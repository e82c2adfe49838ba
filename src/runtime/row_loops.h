/**
 * @file
 * Row loops over a ForestView: the range drivers that add every tree's
 * leaf into each row's margins and finish the rows, in the loop order
 * and interleave the schedule chose (Section IV-A). One set of
 * templates serves every schedule on both backends. The kernel runtime
 * instantiates them ahead of time for every (tile size 1-8, layout,
 * interleave, traversal, missing-value handling) it dispatches to; the
 * source JIT compiles a translation unit that instantiates them for
 * one plan, with the plan's constants known to the compiler. Rows or
 * trees left over after the last full group of K run through the
 * same walkers at K = 1.
 *
 * The drivers allocate nothing: the caller supplies
 * rangeScratchFloats() floats of accumulator scratch, and rows for the
 * quantized packed layout arrive already quantized (quantizeRows).
 * Within a row, trees are always summed in execution order, so every
 * loop order, interleave and traversal yields bit-identical outputs.
 */
#ifndef TREEBEARD_RUNTIME_ROW_LOOPS_H
#define TREEBEARD_RUNTIME_ROW_LOOPS_H

#include <cstdint>

#include "runtime/walkers.h"

namespace treebeard::runtime {

/**
 * Rows per accumulator block of the tree-major loops. Row blocking
 * keeps the feature working set of one tree pass cache-resident even
 * for wide feature vectors (the same blocking XGBoost's tree-major
 * predictor uses): narrow rows keep whole batches resident (better
 * tree locality for large models), wide rows shrink the block to an
 * L2-sized working set. Multiclass rows block at 64.
 */
inline int64_t
rowBlockRows(const ForestView &v)
{
    if (v.numClasses > 1)
        return 64;
    constexpr int64_t kRowBytesBudget = 256 << 10;
    int64_t rows =
        kRowBytesBudget / (static_cast<int64_t>(v.numFeatures) * 4);
    return rows > 64 ? rows : 64;
}

/** Accumulator floats a driver needs to run @p num_rows rows. */
inline int64_t
rangeScratchFloats(const ForestView &v, int64_t num_rows)
{
    int64_t block = rowBlockRows(v);
    return (num_rows < block ? num_rows : block) * v.numClasses;
}

/**
 * Quantize @p num_rows row-major rows into one int32 per feature under
 * the view's affine maps: the row image the int16 packed walkers read.
 */
inline void
quantizeRows(const ForestView &v, const float *rows, int64_t num_rows,
             int32_t *out)
{
    const int64_t nf = v.numFeatures;
    for (int64_t r = 0; r < num_rows; ++r) {
        for (int64_t f = 0; f < nf; ++f) {
            out[r * nf + f] = lir::quantizeValue(
                rows[r * nf + f], v.quantOffset[f], v.quantScale[f]);
        }
    }
}

/** Write one row's outputs from its summed @p margins. */
inline void
finishRow(const ForestView &v, const float *margins, float *out)
{
    if (v.numClasses == 1) {
        out[0] = v.objective == model::Objective::kBinaryLogistic
                     ? model::sigmoid(margins[0])
                     : margins[0];
        return;
    }
    for (int32_t k = 0; k < v.numClasses; ++k)
        out[k] = margins[k];
    if (v.objective == model::Objective::kMulticlassSoftmax)
        model::softmaxInPlace(out, v.numClasses);
}

/**
 * Node-parallel kernels for one (tile size, layout, interleave,
 * missing-value handling) configuration. The quantized packed layout
 * walks pre-quantized rows (one int32 per feature), so its Row type
 * differs from the f32 layouts'.
 */
template <int NT, lir::LayoutKind L, int K, bool HM>
struct PlanKernels
{
    /** Record policy for the packed layouts (unused otherwise). */
    using RecordPolicy = typename RecordWalkOf<NT, L, HM>::type;
    /** Element type of the rows the walkers consume. */
    using Row = typename RecordPolicy::Row;

    /** K walks in lockstep: (roots[k], rows[k]) -> out[k]. */
    static void
    walkMany(const ForestView &v, const int64_t *roots,
             const Row *const *rows, const WalkGroup &group, float *out)
    {
        if constexpr (lir::isPackedKind(L)) {
            if (group.unrolled) {
                walkRecordsUnrolledInterleavedPipelined<RecordPolicy, K>(
                    v, roots, rows, group.walkDepth, out);
            } else {
                walkRecordsGenericInterleavedPipelined<RecordPolicy, K>(
                    v, roots, rows, group.peelDepth, out);
            }
        } else if constexpr (L == lir::LayoutKind::kSparse) {
            if (group.unrolled) {
                walkSparseUnrolledInterleaved<NT, HM, K>(
                    v, roots, rows, group.walkDepth, out);
            } else {
                walkSparseGenericInterleaved<NT, HM, K>(
                    v, roots, rows, group.peelDepth, out);
            }
        } else {
            if (group.unrolled) {
                walkArrayUnrolledInterleaved<NT, HM, K>(
                    v, roots, rows, group.walkDepth, out);
            } else {
                walkArrayGenericInterleaved<NT, HM, K>(
                    v, roots, rows, group.peelDepth, out);
            }
        }
    }

    /** One walk: the K = 1 instantiation of walkMany. */
    static float
    walkOne(const ForestView &v, int64_t root, const Row *row,
            const WalkGroup &group)
    {
        float out = 0.0f;
        PlanKernels<NT, L, 1, HM>::walkMany(v, &root, &row, group, &out);
        return out;
    }

    /**
     * Predict @p num_rows rows (row-major at @p rows) into
     * @p predictions (numClasses outputs per row).
     */
    static void
    runRange(const ForestView &v, const RowLoop &loop, const Row *rows,
             int64_t num_rows, float *predictions, float *scratch)
    {
        const int64_t nf = v.numFeatures;
        const int32_t classes = v.numClasses;
        if (loop.oneTreeAtATime) {
            // Snippet E: tree-major loops over blocks of rows with
            // per-(row, class) accumulators, rows interleaved K at a
            // time per tree.
            const int64_t row_block = rowBlockRows(v);
            for (int64_t block = 0; block < num_rows;
                 block += row_block) {
                int64_t block_end = block + row_block < num_rows
                                        ? block + row_block
                                        : num_rows;
                for (int64_t i = 0; i < (block_end - block) * classes; ++i)
                    scratch[i] = v.baseScore;
                for (int32_t g = 0; g < loop.numGroups; ++g) {
                    const WalkGroup &group = loop.groups[g];
                    for (int64_t pos = group.beginPos;
                         pos < group.endPos; ++pos) {
                        float *acc = scratch + v.treeClass[pos];
                        int64_t root = v.treeFirstTile[pos];
                        int64_t roots[K];
                        for (int k = 0; k < K; ++k)
                            roots[k] = root;
                        int64_t r = block;
                        for (; r + K <= block_end; r += K) {
                            const Row *row_ptrs[K];
                            for (int k = 0; k < K; ++k)
                                row_ptrs[k] = rows + (r + k) * nf;
                            float out[K] = {};
                            walkMany(v, roots, row_ptrs, group, out);
                            for (int k = 0; k < K; ++k)
                                acc[(r + k - block) * classes] += out[k];
                        }
                        for (; r < block_end; ++r) {
                            acc[(r - block) * classes] +=
                                walkOne(v, root, rows + r * nf, group);
                        }
                    }
                }
                for (int64_t r = block; r < block_end; ++r) {
                    finishRow(v, scratch + (r - block) * classes,
                              predictions + r * classes);
                }
            }
            return;
        }

        // Snippet D: one row at a time, trees interleaved K at a time
        // within each group.
        float *margins = scratch;
        for (int64_t r = 0; r < num_rows; ++r) {
            const Row *row = rows + r * nf;
            for (int32_t k = 0; k < classes; ++k)
                margins[k] = v.baseScore;
            for (int32_t g = 0; g < loop.numGroups; ++g) {
                const WalkGroup &group = loop.groups[g];
                int64_t pos = group.beginPos;
                for (; pos + K <= group.endPos; pos += K) {
                    int64_t roots[K];
                    const Row *row_ptrs[K];
                    for (int k = 0; k < K; ++k) {
                        roots[k] = v.treeFirstTile[pos + k];
                        row_ptrs[k] = row;
                    }
                    float out[K] = {};
                    walkMany(v, roots, row_ptrs, group, out);
                    for (int k = 0; k < K; ++k)
                        margins[v.treeClass[pos + k]] += out[k];
                }
                for (; pos < group.endPos; ++pos) {
                    margins[v.treeClass[pos]] +=
                        walkOne(v, v.treeFirstTile[pos], row, group);
                }
            }
            finishRow(v, margins, predictions + r * classes);
        }
    }
};

/**
 * Kernels for the row-parallel traversal
 * (hir::TraversalKind::kRowParallel): 8 rows walk one tree in
 * lockstep. Tile size 1 on the sparse and packed layouts runs the AVX2
 * divergence-mask walkers (walkers.h); every other configuration falls
 * back to the node-parallel interleaved walkers driven with 8 identical
 * roots and 8 consecutive rows — the same lockstep loop structure,
 * scalar per-lane evaluation. Execution is always tree-major (a lane
 * group walks one tree at a time), so the loop order and interleave
 * are ignored.
 */
template <int NT, lir::LayoutKind L, bool HM>
struct RowParallelKernels
{
    using Base = PlanKernels<NT, L, kRowParallelWidth, HM>;
    using Row = typename Base::Row;
    static constexpr bool kVectorized =
        TREEBEARD_HAS_AVX2 && NT == 1 && L != lir::LayoutKind::kArray;

    /**
     * Lane groups walked concurrently per tree by the wide inner loop:
     * one group's walk is a serial gather chain, so several
     * independent groups in flight are what hides gather latency the
     * way interleaving hides it for the node-parallel walks.
     */
    static constexpr int kWideGroups = 4;
    static constexpr int64_t kWideRows =
        static_cast<int64_t>(kWideGroups) * kRowParallelWidth;

    /**
     * Leaf-test-free prefix length carried over from the peel/unroll
     * contracts: an unrolled walk has exactly walkDepth levels, a
     * peeled one at least peelDepth, so that many minus one steps need
     * no leaf test in any lane.
     */
    static int32_t
    uncheckedSteps(const WalkGroup &group)
    {
        return group.unrolled
                   ? group.walkDepth - 1
                   : (group.peelDepth > 1 ? group.peelDepth - 1 : 0);
    }

    /**
     * Walk one tree for G * 8 consecutive rows (row-major at @p rows),
     * writing their leaf values to out[0..8G).
     */
    template <int G>
    static void
    walkLanes(const ForestView &v, int64_t root, const Row *rows,
              const WalkGroup &group, float *out)
    {
#if TREEBEARD_HAS_AVX2
        if constexpr (kVectorized) {
            int32_t unchecked = uncheckedSteps(group);
            if constexpr (L == lir::LayoutKind::kSparse) {
                walkSparseRowsWide<HM, G>(v, root, rows, v.numFeatures,
                                          unchecked, out);
            } else if constexpr (L == lir::LayoutKind::kPacked) {
                walkPackedRowsWide<HM, G>(v, root, rows, v.numFeatures,
                                          unchecked, out);
            } else {
                walkPackedQuantizedRowsWide<HM, G>(
                    v, root, rows, v.numFeatures, unchecked, out);
            }
            return;
        }
#endif
        for (int g = 0; g < G; ++g) {
            int64_t roots[kRowParallelWidth];
            const Row *row_ptrs[kRowParallelWidth];
            for (int k = 0; k < kRowParallelWidth; ++k) {
                roots[k] = root;
                row_ptrs[k] =
                    rows + (g * kRowParallelWidth + k) *
                               static_cast<int64_t>(v.numFeatures);
            }
            Base::walkMany(v, roots, row_ptrs, group,
                           out + g * kRowParallelWidth);
        }
    }

    static void
    runRange(const ForestView &v, const RowLoop &loop, const Row *rows,
             int64_t num_rows, float *predictions, float *scratch)
    {
        const int64_t nf = v.numFeatures;
        const int32_t classes = v.numClasses;
        // Same row blocking as the node-parallel tree-major loop: one
        // tree pass touches an L2-sized slice of the batch.
        const int64_t row_block = rowBlockRows(v);
        for (int64_t block = 0; block < num_rows; block += row_block) {
            int64_t block_end =
                block + row_block < num_rows ? block + row_block
                                             : num_rows;
            for (int64_t i = 0; i < (block_end - block) * classes; ++i)
                scratch[i] = v.baseScore;
            for (int32_t g = 0; g < loop.numGroups; ++g) {
                const WalkGroup &group = loop.groups[g];
                for (int64_t pos = group.beginPos; pos < group.endPos;
                     ++pos) {
                    float *acc = scratch + v.treeClass[pos];
                    int64_t root = v.treeFirstTile[pos];
                    int64_t r = block;
                    if constexpr (kVectorized) {
                        for (; r + kWideRows <= block_end;
                             r += kWideRows) {
                            float out[kWideRows] = {};
                            walkLanes<kWideGroups>(v, root, rows + r * nf,
                                                   group, out);
                            for (int k = 0; k < kWideRows; ++k)
                                acc[(r + k - block) * classes] += out[k];
                        }
                    }
                    for (; r + kRowParallelWidth <= block_end;
                         r += kRowParallelWidth) {
                        float out[kRowParallelWidth] = {};
                        walkLanes<1>(v, root, rows + r * nf, group, out);
                        for (int k = 0; k < kRowParallelWidth; ++k)
                            acc[(r + k - block) * classes] += out[k];
                    }
                    for (; r < block_end; ++r) {
                        acc[(r - block) * classes] += Base::walkOne(
                            v, root, rows + r * nf, group);
                    }
                }
            }
            for (int64_t r = block; r < block_end; ++r) {
                finishRow(v, scratch + (r - block) * classes,
                          predictions + r * classes);
            }
        }
    }
};

} // namespace treebeard::runtime

#endif // TREEBEARD_RUNTIME_ROW_LOOPS_H
