#include "runtime/plan.h"

#include <atomic>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/logging.h"
#include "runtime/walkers.h"

namespace treebeard::runtime {

namespace {

std::atomic<int64_t> gBatchQuantizePasses{0};
std::atomic<int64_t> gBatchQuantizeRows{0};
std::atomic<int64_t> gDatasetQuantizePasses{0};
std::atomic<int64_t> gDatasetQuantizeRows{0};

} // namespace

RowQuantizationStats
rowQuantizationStats()
{
    RowQuantizationStats stats;
    stats.batchPasses = gBatchQuantizePasses.load(std::memory_order_relaxed);
    stats.batchRows = gBatchQuantizeRows.load(std::memory_order_relaxed);
    stats.datasetBinds =
        gDatasetQuantizePasses.load(std::memory_order_relaxed);
    stats.datasetRows = gDatasetQuantizeRows.load(std::memory_order_relaxed);
    return stats;
}

void
noteDatasetQuantization(int64_t num_rows)
{
    gDatasetQuantizePasses.fetch_add(1, std::memory_order_relaxed);
    gDatasetQuantizeRows.fetch_add(num_rows, std::memory_order_relaxed);
}

void
quantizeRowsInto(const lir::ForestBuffers &fb, const float *rows,
                 int64_t num_rows, int32_t *out)
{
    int32_t nf = fb.numFeatures;
    const lir::QuantizationInfo &q = fb.quantization;
    for (int64_t r = 0; r < num_rows; ++r) {
        const float *row = rows + r * nf;
        int32_t *qrow = out + r * nf;
        for (int32_t f = 0; f < nf; ++f)
            qrow[f] = q.quantizeValue(row[f], f);
    }
}

namespace {

using hir::TreeGroup;
using lir::ForestBuffers;
using lir::LayoutKind;

/**
 * Generic dynamic-tile-size walk of tree @p pos (any layout). Used for
 * tile sizes without a specialized kernel and by the instrumented path.
 */
float
walkDynamic(const ForestBuffers &fb, int64_t pos, const float *row)
{
    int64_t base = fb.treeFirstTile[static_cast<size_t>(pos)];
    if (fb.layout != LayoutKind::kArray) {
        // Sparse and packed share the child-base chaining scheme.
        int64_t tile = base;
        while (true) {
            int32_t child = evalTileDynamic(fb, tile, row);
            int32_t child_base = fb.tileFields(tile).childBase;
            if (child_base < 0)
                return fb.leaves[static_cast<size_t>(-(child_base + 1) +
                                                     child)];
            tile = child_base + child;
        }
    }
    int64_t arity = fb.tileSize + 1;
    int64_t local = 0;
    while (true) {
        int64_t tile = base + local;
        if (fb.shapeIds[static_cast<size_t>(tile)] ==
            lir::kLeafTileMarker) {
            return fb.thresholds[static_cast<size_t>(tile) *
                                 fb.tileSize];
        }
        int32_t child = evalTileDynamic(fb, tile, row);
        local = arity * local + child + 1;
    }
}

void
runRangeDynamic(const ExecutablePlan &plan, const float *rows,
                const int32_t *qrows, int64_t begin, int64_t end,
                float *predictions)
{
    // The dynamic walker quantizes per compare inside evalTileDynamic
    // (same quantizer, still bit-exact), so a resident image brings it
    // nothing.
    (void)qrows;
    const ForestBuffers &fb = plan.buffers();
    int32_t nf = fb.numFeatures;
    int32_t classes = fb.numClasses;
    std::vector<float> margins(static_cast<size_t>(classes));
    for (int64_t r = begin; r < end; ++r) {
        const float *row = rows + r * nf;
        std::fill(margins.begin(), margins.end(), fb.baseScore);
        for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
            margins[static_cast<size_t>(
                fb.treeClass[static_cast<size_t>(pos)])] +=
                walkDynamic(fb, pos, row);
        }
        if (classes > 1) {
            float *out = predictions + r * classes;
            std::copy(margins.begin(), margins.end(), out);
            if (fb.objective == model::Objective::kMulticlassSoftmax)
                model::softmaxInPlace(out, classes);
        } else {
            predictions[r] =
                model::applyObjective(fb.objective, margins[0]);
        }
    }
}

/**
 * Quantize rows [begin, end) into one int32 per feature under the
 * model's affine maps ("quantize the row's gathered features once"):
 * every tile compare in the walk then runs entirely in int16, and a
 * feature read R times costs one quantization, not R. The image lives
 * in a per-worker thread_local scratch buffer that only ever grows, so
 * chunked parallel row loops stop paying one heap allocation per
 * chunk; the returned pointer stays valid until this worker's next
 * chunk.
 */
const int32_t *
quantizeRowsScratch(const ForestBuffers &fb, const float *rows,
                    int64_t begin, int64_t end)
{
    static thread_local std::vector<int32_t> scratch;
    size_t needed =
        static_cast<size_t>(end - begin) * fb.numFeatures;
    if (scratch.size() < needed)
        scratch.resize(needed);
    quantizeRowsInto(fb, rows + begin * fb.numFeatures, end - begin,
                     scratch.data());
    gBatchQuantizePasses.fetch_add(1, std::memory_order_relaxed);
    gBatchQuantizeRows.fetch_add(end - begin, std::memory_order_relaxed);
    return scratch.data();
}

} // namespace

/**
 * Kernel bundle for one (tile size, layout, interleave) configuration.
 * All methods compile to specialized straight-line code. The
 * quantized packed layout walks over pre-quantized rows (one int32
 * per feature, materialized per row block in runRange), so its Row
 * type differs from the f32 layouts'.
 */
template <int NT, lir::LayoutKind L, int K, bool HM>
struct PlanKernels
{
    static constexpr bool kQuantized =
        (L == LayoutKind::kPackedQuantized);
    /** Element type of the rows the walkers consume. */
    using Row = std::conditional_t<kQuantized, int32_t, float>;
    /** Record policy for the packed layouts (unused otherwise). */
    using RecordPolicy =
        std::conditional_t<kQuantized, PackedQuantizedWalk<NT, HM>,
                           PackedF32Walk<NT, HM>>;

    static float
    walkOne(const ForestBuffers &fb, const int8_t *lut, int32_t stride,
            int64_t root, const Row *row, const TreeGroup &group)
    {
        if constexpr (lir::isPackedKind(L)) {
            if (group.unrolledWalk) {
                return walkRecordsUnrolled<RecordPolicy>(
                    fb, lut, stride, root, row, group.walkDepth);
            }
            if (group.peelDepth > 1) {
                return walkRecordsPeeled<RecordPolicy>(
                    fb, lut, stride, root, row, group.peelDepth);
            }
            return walkRecords<RecordPolicy>(fb, lut, stride, root, row);
        } else if constexpr (L == LayoutKind::kSparse) {
            if (group.unrolledWalk) {
                return walkSparseUnrolled<NT, HM>(fb, lut, stride, root, row,
                                              group.walkDepth);
            }
            if (group.peelDepth > 1) {
                return walkSparsePeeled<NT, HM>(fb, lut, stride, root, row,
                                            group.peelDepth);
            }
            return walkSparse<NT, HM>(fb, lut, stride, root, row);
        } else {
            if (group.unrolledWalk) {
                return walkArrayUnrolled<NT, HM>(fb, lut, stride, root, row,
                                             group.walkDepth);
            }
            if (group.peelDepth > 0) {
                return walkArrayPeeled<NT, HM>(fb, lut, stride, root, row,
                                           group.peelDepth);
            }
            return walkArray<NT, HM>(fb, lut, stride, root, row);
        }
    }

    static void
    walkMany(const ForestBuffers &fb, const int8_t *lut, int32_t stride,
             const int64_t *roots, const Row *const *rows,
             const TreeGroup &group, bool pipeline, float *out)
    {
        if constexpr (lir::isPackedKind(L)) {
            // The pipeline toggle is a runtime branch (not a template
            // parameter) to keep the kernel instantiation count flat;
            // it is loop-invariant, so the predictor resolves it free.
            if (group.unrolledWalk) {
                if (pipeline) {
                    walkRecordsUnrolledInterleavedPipelined<
                        RecordPolicy, K>(fb, lut, stride, roots, rows,
                                         group.walkDepth, out);
                } else {
                    walkRecordsUnrolledInterleaved<RecordPolicy, K>(
                        fb, lut, stride, roots, rows, group.walkDepth,
                        out);
                }
            } else {
                if (pipeline) {
                    walkRecordsGenericInterleavedPipelined<
                        RecordPolicy, K>(fb, lut, stride, roots, rows,
                                         group.peelDepth, out);
                } else {
                    walkRecordsGenericInterleaved<RecordPolicy, K>(
                        fb, lut, stride, roots, rows, group.peelDepth,
                        out);
                }
            }
        } else if constexpr (L == LayoutKind::kSparse) {
            if (group.unrolledWalk) {
                walkSparseUnrolledInterleaved<NT, HM, K>(
                    fb, lut, stride, roots, rows, group.walkDepth, out);
            } else {
                walkSparseGenericInterleaved<NT, HM, K>(
                    fb, lut, stride, roots, rows, group.peelDepth, out);
            }
        } else {
            if (group.unrolledWalk) {
                walkArrayUnrolledInterleaved<NT, HM, K>(
                    fb, lut, stride, roots, rows, group.walkDepth, out);
            } else {
                walkArrayGenericInterleaved<NT, HM, K>(
                    fb, lut, stride, roots, rows, group.peelDepth, out);
            }
        }
    }

    /**
     * Multiclass execution: same loop structure, but each tree
     * accumulates into its class's margin and the row finishes with a
     * softmax over numClasses outputs.
     */
    static void
    runRangeMulticlass(const ExecutablePlan &plan, const float *rows,
                       const int32_t *qrows, int64_t begin, int64_t end,
                       float *predictions)
    {
        const ForestBuffers &fb = plan.buffers();
        const int8_t *lut = fb.shapes->lutData();
        int32_t stride = fb.shapes->lutStride();
        int32_t nf = fb.numFeatures;
        int32_t classes = fb.numClasses;
        const std::vector<TreeGroup> &groups = plan.groups();
        bool pipeline = plan.mir().schedule.pipelinePackedWalks;

        // Quantized layout: rows are consumed via a pre-quantized
        // view indexed from `origin` — the resident image when the
        // caller bound one, a per-worker scratch pass otherwise.
        const Row *rows_view = nullptr;
        int64_t origin = 0;
        if constexpr (kQuantized) {
            if (qrows != nullptr) {
                rows_view = qrows;
            } else {
                rows_view = quantizeRowsScratch(fb, rows, begin, end);
                origin = begin;
            }
        } else {
            (void)qrows;
            rows_view = rows;
        }

        auto finish_row = [&](int64_t r, float *margins) {
            float *out = predictions + r * classes;
            for (int32_t k = 0; k < classes; ++k)
                out[k] = margins[k];
            if (fb.objective == model::Objective::kMulticlassSoftmax)
                model::softmaxInPlace(out, classes);
        };

        if (plan.mir().schedule.loopOrder ==
            hir::LoopOrder::kOneTreeAtATime) {
            constexpr int64_t kRowBlock = 64;
            std::vector<float> accumulators(
                static_cast<size_t>(
                    std::min(kRowBlock, end - begin) * classes));
            for (int64_t block = begin; block < end;
                 block += kRowBlock) {
                int64_t block_end =
                    std::min<int64_t>(block + kRowBlock, end);
                std::fill(accumulators.begin(), accumulators.end(),
                          fb.baseScore);
                for (const TreeGroup &group : groups) {
                    for (int64_t pos = group.beginPos;
                         pos < group.endPos; ++pos) {
                        int32_t tree_class =
                            fb.treeClass[static_cast<size_t>(pos)];
                        int64_t root =
                            fb.treeFirstTile[static_cast<size_t>(pos)];
                        int64_t roots[K];
                        for (int k = 0; k < K; ++k)
                            roots[k] = root;
                        int64_t r = block;
                        for (; r + K <= block_end; r += K) {
                            const Row *row_ptrs[K];
                            for (int k = 0; k < K; ++k)
                                row_ptrs[k] = rows_view +
                                              (r + k - origin) * nf;
                            float out[K] = {};
                            walkMany(fb, lut, stride, roots, row_ptrs,
                                     group, pipeline, out);
                            for (int k = 0; k < K; ++k)
                                accumulators[static_cast<size_t>(
                                    (r + k - block) * classes +
                                    tree_class)] += out[k];
                        }
                        for (; r < block_end; ++r) {
                            accumulators[static_cast<size_t>(
                                (r - block) * classes + tree_class)] +=
                                walkOne(fb, lut, stride, root,
                                        rows_view + (r - origin) * nf,
                                        group);
                        }
                    }
                }
                for (int64_t r = block; r < block_end; ++r) {
                    finish_row(r,
                               accumulators.data() +
                                   (r - block) * classes);
                }
            }
        } else {
            std::vector<float> margins(static_cast<size_t>(classes));
            for (int64_t r = begin; r < end; ++r) {
                const Row *row = rows_view + (r - origin) * nf;
                std::fill(margins.begin(), margins.end(),
                          fb.baseScore);
                for (const TreeGroup &group : groups) {
                    int64_t pos = group.beginPos;
                    for (; pos + K <= group.endPos; pos += K) {
                        int64_t roots[K];
                        const Row *row_ptrs[K];
                        for (int k = 0; k < K; ++k) {
                            roots[k] = fb.treeFirstTile[
                                static_cast<size_t>(pos + k)];
                            row_ptrs[k] = row;
                        }
                        float out[K] = {};
                        walkMany(fb, lut, stride, roots, row_ptrs,
                                 group, pipeline, out);
                        for (int k = 0; k < K; ++k) {
                            margins[static_cast<size_t>(
                                fb.treeClass[static_cast<size_t>(
                                    pos + k)])] += out[k];
                        }
                    }
                    for (; pos < group.endPos; ++pos) {
                        margins[static_cast<size_t>(
                            fb.treeClass[static_cast<size_t>(pos)])] +=
                            walkOne(
                                fb, lut, stride,
                                fb.treeFirstTile[
                                    static_cast<size_t>(pos)],
                                row, group);
                    }
                }
                finish_row(r, margins.data());
            }
        }
    }

    static void
    runRange(const ExecutablePlan &plan, const float *rows,
             const int32_t *qrows, int64_t begin, int64_t end,
             float *predictions)
    {
        const ForestBuffers &fb = plan.buffers();
        const int8_t *lut = fb.shapes->lutData();
        int32_t stride = fb.shapes->lutStride();
        int32_t nf = fb.numFeatures;
        const std::vector<TreeGroup> &groups = plan.groups();

        if (fb.numClasses > 1) {
            runRangeMulticlass(plan, rows, qrows, begin, end,
                               predictions);
            return;
        }

        bool pipeline = plan.mir().schedule.pipelinePackedWalks;
        const Row *rows_view = nullptr;
        int64_t origin = 0;
        if constexpr (kQuantized) {
            if (qrows != nullptr) {
                rows_view = qrows;
            } else {
                rows_view = quantizeRowsScratch(fb, rows, begin, end);
                origin = begin;
            }
        } else {
            (void)qrows;
            rows_view = rows;
        }

        if (plan.mir().schedule.loopOrder ==
            hir::LoopOrder::kOneTreeAtATime) {
            // Snippet E: tree-major loops over blocks of rows with
            // per-block accumulators, rows interleaved K at a time
            // per tree. Row blocking keeps the feature working set of
            // one tree pass cache-resident even for wide feature
            // vectors (the same blocking XGBoost's tree-major
            // predictor uses). The block size adapts to the feature
            // width: narrow rows keep whole batches resident (better
            // tree locality for large models), wide rows shrink the
            // block to an L2-sized working set.
            constexpr int64_t kRowBytesBudget = 256 << 10;
            int64_t row_block = std::max<int64_t>(
                64, kRowBytesBudget /
                        (static_cast<int64_t>(nf) * 4));
            std::vector<float> accumulators(
                static_cast<size_t>(std::min(row_block, end - begin)),
                0.0f);
            for (int64_t block = begin; block < end;
                 block += row_block) {
                int64_t block_end =
                    std::min<int64_t>(block + row_block, end);
                std::fill(accumulators.begin(), accumulators.end(),
                          fb.baseScore);
                for (const TreeGroup &group : groups) {
                    for (int64_t pos = group.beginPos;
                         pos < group.endPos; ++pos) {
                        int64_t root =
                            fb.treeFirstTile[static_cast<size_t>(pos)];
                        int64_t roots[K];
                        for (int k = 0; k < K; ++k)
                            roots[k] = root;
                        int64_t r = block;
                        for (; r + K <= block_end; r += K) {
                            const Row *row_ptrs[K];
                            for (int k = 0; k < K; ++k)
                                row_ptrs[k] = rows_view +
                                              (r + k - origin) * nf;
                            float out[K] = {};
                            walkMany(fb, lut, stride, roots, row_ptrs,
                                     group, pipeline, out);
                            for (int k = 0; k < K; ++k)
                                accumulators[static_cast<size_t>(
                                    r + k - block)] += out[k];
                        }
                        for (; r < block_end; ++r) {
                            accumulators[static_cast<size_t>(
                                r - block)] +=
                                walkOne(fb, lut, stride, root,
                                        rows_view + (r - origin) * nf,
                                        group);
                        }
                    }
                }
                for (int64_t r = block; r < block_end; ++r) {
                    predictions[r] = model::applyObjective(
                        fb.objective,
                        accumulators[static_cast<size_t>(r - block)]);
                }
            }
        } else {
            // Snippet D: per-row scalar accumulator, trees interleaved
            // K at a time within each group.
            for (int64_t r = begin; r < end; ++r) {
                const Row *row = rows_view + (r - origin) * nf;
                float margin = fb.baseScore;
                for (const TreeGroup &group : groups) {
                    int64_t pos = group.beginPos;
                    for (; pos + K <= group.endPos; pos += K) {
                        int64_t roots[K];
                        const Row *row_ptrs[K];
                        for (int k = 0; k < K; ++k) {
                            roots[k] = fb.treeFirstTile[
                                static_cast<size_t>(pos + k)];
                            row_ptrs[k] = row;
                        }
                        float out[K] = {};
                        walkMany(fb, lut, stride, roots, row_ptrs,
                                 group, pipeline, out);
                        for (int k = 0; k < K; ++k)
                            margin += out[k];
                    }
                    for (; pos < group.endPos; ++pos) {
                        margin += walkOne(
                            fb, lut, stride,
                            fb.treeFirstTile[static_cast<size_t>(pos)],
                            row, group);
                    }
                }
                predictions[r] =
                    model::applyObjective(fb.objective, margin);
            }
        }
    }
};

/**
 * Kernel bundle for the row-parallel traversal
 * (hir::TraversalKind::kRowParallel): 8 rows walk one tree in
 * lockstep. Tile size 1 on the sparse and packed layouts runs the
 * AVX2 divergence-mask walkers (walkers.h); every other configuration
 * falls back to the node-parallel interleaved walkers driven with 8
 * identical roots and 8 consecutive rows — the same lockstep loop
 * structure, scalar per-lane evaluation. Execution is always
 * tree-major (a lane group walks one tree at a time), so loopOrder
 * and interleaveFactor are ignored; per-row accumulation still sums
 * the same leaf values in the same tree order, keeping predictions
 * bit-identical to the node-parallel kernels.
 */
template <int NT, lir::LayoutKind L, bool HM>
struct RowParallelKernels
{
    using Base = PlanKernels<NT, L, kRowParallelWidth, HM>;
    using Row = typename Base::Row;
    static constexpr bool kQuantized = Base::kQuantized;
    static constexpr bool kVectorized =
        TREEBEARD_HAS_AVX2 && NT == 1 && L != LayoutKind::kArray;

    /**
     * Lane groups walked concurrently per tree by the wide inner
     * loop: one group's walk is a serial gather chain, so several
     * independent groups in flight are what hides gather latency the
     * way interleaving hides it for the node-parallel walks.
     */
    static constexpr int kWideGroups = 4;
    static constexpr int64_t kWideRows =
        static_cast<int64_t>(kWideGroups) * kRowParallelWidth;

    /**
     * Leaf-test-free prefix length carried over from the peel/unroll
     * contracts: an unrolled walk has exactly walkDepth levels, a
     * peeled one at least peelDepth, so that many minus one steps
     * need no leaf test in any lane.
     */
    static int32_t
    uncheckedSteps(const TreeGroup &group)
    {
        return group.unrolledWalk
                   ? group.walkDepth - 1
                   : (group.peelDepth > 1 ? group.peelDepth - 1 : 0);
    }

#if TREEBEARD_HAS_AVX2
    /**
     * Walk one tree for kWideRows consecutive rows (kWideGroups lane
     * groups in flight). Only reachable when kVectorized.
     */
    static void
    walkWide(const ForestBuffers &fb, const int8_t *lut,
             const int32_t *dl32, int64_t root, const Row *rows,
             int32_t nf, const TreeGroup &group, float *out)
    {
        if constexpr (kVectorized) {
            int32_t unchecked = uncheckedSteps(group);
            if constexpr (L == LayoutKind::kSparse) {
                walkSparseRowsWide<kWideGroups>(fb, lut, dl32, root,
                                                rows, nf, unchecked,
                                                out);
            } else if constexpr (L == LayoutKind::kPacked) {
                walkPackedRowsWide<HM, kWideGroups>(
                    fb, lut, root, rows, nf, unchecked, out);
            } else {
                walkPackedQuantizedRowsWide<HM, kWideGroups>(
                    fb, lut, root, rows, nf, unchecked, out);
            }
        }
    }
#endif

    /**
     * Walk one tree for 8 consecutive rows (row-major at @p rows8,
     * stride @p nf), writing the 8 leaf values to out[0..8).
     */
    static void
    walk8(const ForestBuffers &fb, const int8_t *lut, int32_t stride,
          const int32_t *dl32, int64_t root, const Row *rows8,
          int32_t nf, const TreeGroup &group, bool pipeline, float *out)
    {
#if TREEBEARD_HAS_AVX2
        if constexpr (kVectorized) {
            (void)stride;
            (void)pipeline;
            int32_t unchecked = uncheckedSteps(group);
            if constexpr (L == LayoutKind::kSparse) {
                walkSparseRows8(fb, lut, dl32, root, rows8, nf,
                                unchecked, out);
            } else if constexpr (L == LayoutKind::kPacked) {
                walkPackedRows8<HM>(fb, lut, root, rows8, nf, unchecked,
                                    out);
            } else {
                walkPackedQuantizedRows8<HM>(fb, lut, root, rows8, nf,
                                             unchecked, out);
            }
            return;
        }
#endif
        (void)dl32;
        int64_t roots[kRowParallelWidth];
        const Row *row_ptrs[kRowParallelWidth];
        for (int k = 0; k < kRowParallelWidth; ++k) {
            roots[k] = root;
            row_ptrs[k] = rows8 + static_cast<int64_t>(k) * nf;
        }
        Base::walkMany(fb, lut, stride, roots, row_ptrs, group,
                       pipeline, out);
    }

    static void
    runRangeMulticlass(const ExecutablePlan &plan, const float *rows,
                       const int32_t *qrows, int64_t begin, int64_t end,
                       float *predictions)
    {
        const ForestBuffers &fb = plan.buffers();
        const int8_t *lut = fb.shapes->lutData();
        int32_t stride = fb.shapes->lutStride();
        int32_t nf = fb.numFeatures;
        int32_t classes = fb.numClasses;
        const std::vector<TreeGroup> &groups = plan.groups();
        bool pipeline = plan.mir().schedule.pipelinePackedWalks;
        const int32_t *dl32 = plan.defaultLeftWide();

        const Row *rows_view = nullptr;
        int64_t origin = 0;
        if constexpr (kQuantized) {
            if (qrows != nullptr) {
                rows_view = qrows;
            } else {
                rows_view = quantizeRowsScratch(fb, rows, begin, end);
                origin = begin;
            }
        } else {
            (void)qrows;
            rows_view = rows;
        }

        constexpr int64_t kRowBlock = 64;
        std::vector<float> accumulators(static_cast<size_t>(
            std::min(kRowBlock, end - begin) * classes));
        for (int64_t block = begin; block < end; block += kRowBlock) {
            int64_t block_end =
                std::min<int64_t>(block + kRowBlock, end);
            std::fill(accumulators.begin(), accumulators.end(),
                      fb.baseScore);
            for (const TreeGroup &group : groups) {
                for (int64_t pos = group.beginPos; pos < group.endPos;
                     ++pos) {
                    int32_t tree_class =
                        fb.treeClass[static_cast<size_t>(pos)];
                    int64_t root =
                        fb.treeFirstTile[static_cast<size_t>(pos)];
                    int64_t r = block;
#if TREEBEARD_HAS_AVX2
                    if constexpr (kVectorized) {
                        for (; r + kWideRows <= block_end;
                             r += kWideRows) {
                            float out[kWideRows];
                            walkWide(fb, lut, dl32, root,
                                     rows_view + (r - origin) * nf, nf,
                                     group, out);
                            for (int k = 0; k < kWideRows; ++k)
                                accumulators[static_cast<size_t>(
                                    (r + k - block) * classes +
                                    tree_class)] += out[k];
                        }
                    }
#endif
                    for (; r + kRowParallelWidth <= block_end;
                         r += kRowParallelWidth) {
                        float out[kRowParallelWidth];
                        walk8(fb, lut, stride, dl32, root,
                              rows_view + (r - origin) * nf, nf, group,
                              pipeline, out);
                        for (int k = 0; k < kRowParallelWidth; ++k)
                            accumulators[static_cast<size_t>(
                                (r + k - block) * classes +
                                tree_class)] += out[k];
                    }
                    for (; r < block_end; ++r) {
                        accumulators[static_cast<size_t>(
                            (r - block) * classes + tree_class)] +=
                            Base::walkOne(fb, lut, stride, root,
                                          rows_view + (r - origin) * nf,
                                          group);
                    }
                }
            }
            for (int64_t r = block; r < block_end; ++r) {
                float *out = predictions + r * classes;
                const float *margins =
                    accumulators.data() + (r - block) * classes;
                for (int32_t k = 0; k < classes; ++k)
                    out[k] = margins[k];
                if (fb.objective ==
                    model::Objective::kMulticlassSoftmax)
                    model::softmaxInPlace(out, classes);
            }
        }
    }

    static void
    runRange(const ExecutablePlan &plan, const float *rows,
             const int32_t *qrows, int64_t begin, int64_t end,
             float *predictions)
    {
        const ForestBuffers &fb = plan.buffers();
        const int8_t *lut = fb.shapes->lutData();
        int32_t stride = fb.shapes->lutStride();
        int32_t nf = fb.numFeatures;
        const std::vector<TreeGroup> &groups = plan.groups();

        if (fb.numClasses > 1) {
            runRangeMulticlass(plan, rows, qrows, begin, end,
                               predictions);
            return;
        }

        bool pipeline = plan.mir().schedule.pipelinePackedWalks;
        const int32_t *dl32 = plan.defaultLeftWide();
        const Row *rows_view = nullptr;
        int64_t origin = 0;
        if constexpr (kQuantized) {
            if (qrows != nullptr) {
                rows_view = qrows;
            } else {
                rows_view = quantizeRowsScratch(fb, rows, begin, end);
                origin = begin;
            }
        } else {
            (void)qrows;
            rows_view = rows;
        }

        // Same adaptive row blocking as the node-parallel tree-major
        // loop: one tree pass touches an L2-sized slice of the batch.
        constexpr int64_t kRowBytesBudget = 256 << 10;
        int64_t row_block = std::max<int64_t>(
            64, kRowBytesBudget / (static_cast<int64_t>(nf) * 4));
        std::vector<float> accumulators(
            static_cast<size_t>(std::min(row_block, end - begin)),
            0.0f);
        for (int64_t block = begin; block < end; block += row_block) {
            int64_t block_end =
                std::min<int64_t>(block + row_block, end);
            std::fill(accumulators.begin(), accumulators.end(),
                      fb.baseScore);
            for (const TreeGroup &group : groups) {
                for (int64_t pos = group.beginPos; pos < group.endPos;
                     ++pos) {
                    int64_t root =
                        fb.treeFirstTile[static_cast<size_t>(pos)];
                    int64_t r = block;
#if TREEBEARD_HAS_AVX2
                    if constexpr (kVectorized) {
                        for (; r + kWideRows <= block_end;
                             r += kWideRows) {
                            float out[kWideRows];
                            walkWide(fb, lut, dl32, root,
                                     rows_view + (r - origin) * nf, nf,
                                     group, out);
                            for (int k = 0; k < kWideRows; ++k)
                                accumulators[static_cast<size_t>(
                                    r + k - block)] += out[k];
                        }
                    }
#endif
                    for (; r + kRowParallelWidth <= block_end;
                         r += kRowParallelWidth) {
                        float out[kRowParallelWidth];
                        walk8(fb, lut, stride, dl32, root,
                              rows_view + (r - origin) * nf, nf, group,
                              pipeline, out);
                        for (int k = 0; k < kRowParallelWidth; ++k)
                            accumulators[static_cast<size_t>(
                                r + k - block)] += out[k];
                    }
                    for (; r < block_end; ++r) {
                        accumulators[static_cast<size_t>(r - block)] +=
                            Base::walkOne(fb, lut, stride, root,
                                          rows_view + (r - origin) * nf,
                                          group);
                    }
                }
            }
            for (int64_t r = block; r < block_end; ++r) {
                predictions[r] = model::applyObjective(
                    fb.objective,
                    accumulators[static_cast<size_t>(r - block)]);
            }
        }
    }
};

namespace {

template <int NT, lir::LayoutKind L, bool HM>
ExecutablePlan::RangeRunner
selectByInterleave(int32_t factor)
{
    switch (factor) {
      case 1: return &PlanKernels<NT, L, 1, HM>::runRange;
      case 2: return &PlanKernels<NT, L, 2, HM>::runRange;
      case 4: return &PlanKernels<NT, L, 4, HM>::runRange;
      case 8: return &PlanKernels<NT, L, 8, HM>::runRange;
      default: fatal("unsupported interleave factor ", factor);
    }
}

template <int NT, lir::LayoutKind L>
ExecutablePlan::RangeRunner
selectByMissing(int32_t factor, bool handle_missing)
{
    return handle_missing ? selectByInterleave<NT, L, true>(factor)
                          : selectByInterleave<NT, L, false>(factor);
}

template <int NT>
ExecutablePlan::RangeRunner
selectByLayout(LayoutKind layout, int32_t factor, bool handle_missing)
{
    switch (layout) {
      case LayoutKind::kSparse:
        return selectByMissing<NT, LayoutKind::kSparse>(
            factor, handle_missing);
      case LayoutKind::kPacked:
        return selectByMissing<NT, LayoutKind::kPacked>(
            factor, handle_missing);
      case LayoutKind::kPackedQuantized:
        return selectByMissing<NT, LayoutKind::kPackedQuantized>(
            factor, handle_missing);
      case LayoutKind::kArray:
        return selectByMissing<NT, LayoutKind::kArray>(
            factor, handle_missing);
    }
    panic("unknown layout kind");
}

template <int NT>
ExecutablePlan::RangeRunner
selectRowParallelByLayout(LayoutKind layout, bool handle_missing)
{
    switch (layout) {
      case LayoutKind::kSparse:
        return handle_missing
                   ? &RowParallelKernels<NT, LayoutKind::kSparse,
                                         true>::runRange
                   : &RowParallelKernels<NT, LayoutKind::kSparse,
                                         false>::runRange;
      case LayoutKind::kPacked:
        return handle_missing
                   ? &RowParallelKernels<NT, LayoutKind::kPacked,
                                         true>::runRange
                   : &RowParallelKernels<NT, LayoutKind::kPacked,
                                         false>::runRange;
      case LayoutKind::kPackedQuantized:
        return handle_missing
                   ? &RowParallelKernels<NT,
                                         LayoutKind::kPackedQuantized,
                                         true>::runRange
                   : &RowParallelKernels<NT,
                                         LayoutKind::kPackedQuantized,
                                         false>::runRange;
      case LayoutKind::kArray:
        return handle_missing
                   ? &RowParallelKernels<NT, LayoutKind::kArray,
                                         true>::runRange
                   : &RowParallelKernels<NT, LayoutKind::kArray,
                                         false>::runRange;
    }
    panic("unknown layout kind");
}

} // namespace

ExecutablePlan::ExecutablePlan(lir::ForestBuffers buffers,
                               mir::MirFunction mir,
                               std::vector<hir::TreeGroup> groups)
    : buffers_(std::move(buffers)), mir_(std::move(mir)),
      groups_(std::move(groups))
{
    fatalIf(groups_.empty(), "plan needs at least one tree group");
    selectRunner();
    if (mir_.schedule.numThreads > 1) {
        pool_ = std::make_unique<ThreadPool>(
            static_cast<unsigned>(mir_.schedule.numThreads));
    }
}

void
ExecutablePlan::selectRunner()
{
    int32_t factor = mir_.schedule.interleaveFactor;
    // Missing-value handling is on by default (NaN inputs then route
    // per default directions, all-right for models without them, and
    // stay exact through padded trees). The schedule can promise
    // NaN-free inputs to use the slightly faster kernels — unless the
    // model carries default directions, which must be honored.
    bool missing = buffers_.hasDefaultLeft ||
                   !mir_.schedule.assumeNoMissingValues;
    if (mir_.schedule.traversal == hir::TraversalKind::kRowParallel) {
        // The vectorized sparse walker gathers default-direction bits
        // as int32 words; widen the uint8 array once here (word
        // gathers from the byte array itself would read past its
        // end). Packed records carry the bit in-record. Built whenever
        // missing handling is on — not just when the model has default
        // directions: padding writes load-bearing all-left bits on
        // dummy tiles (NaN must follow the child-0 chain; the filler
        // slots are unreachable), so NaN routing needs the bits even
        // for direction-free models.
        if (missing && buffers_.layout == LayoutKind::kSparse &&
            buffers_.tileSize == 1) {
            dlWide_.assign(buffers_.defaultLeft.begin(),
                           buffers_.defaultLeft.end());
        }
        switch (buffers_.tileSize) {
          case 1:
            runner_ =
                selectRowParallelByLayout<1>(buffers_.layout, missing);
            return;
          case 2:
            runner_ =
                selectRowParallelByLayout<2>(buffers_.layout, missing);
            return;
          case 4:
            runner_ =
                selectRowParallelByLayout<4>(buffers_.layout, missing);
            return;
          case 8:
            runner_ =
                selectRowParallelByLayout<8>(buffers_.layout, missing);
            return;
          default:
            runner_ = &runRangeDynamic;
            return;
        }
    }
    switch (buffers_.tileSize) {
      case 1:
        runner_ = selectByLayout<1>(buffers_.layout, factor, missing);
        break;
      case 2:
        runner_ = selectByLayout<2>(buffers_.layout, factor, missing);
        break;
      case 4:
        runner_ = selectByLayout<4>(buffers_.layout, factor, missing);
        break;
      case 8:
        runner_ = selectByLayout<8>(buffers_.layout, factor, missing);
        break;
      default:
        // Non-power-of-two tile sizes run through the dynamic path.
        runner_ = &runRangeDynamic;
        break;
    }
}

void
ExecutablePlan::dispatchRows(const float *rows, const int32_t *qrows,
                             int64_t num_rows, float *predictions) const
{
    if (num_rows <= 0)
        return;
    if (!pool_) {
        runner_(*this, rows, qrows, 0, num_rows, predictions);
        return;
    }
    int64_t chunk_rows = mir_.schedule.rowChunkRows;
    if (chunk_rows > 0) {
        // Align chunk boundaries to the scheduled chunk size; each
        // worker still receives one contiguous span of chunks.
        int64_t num_chunks = ceilDiv(num_rows, chunk_rows);
        pool_->parallelFor(
            0, num_chunks, [&](int64_t chunk_begin, int64_t chunk_end) {
                runner_(*this, rows, qrows, chunk_begin * chunk_rows,
                        std::min(chunk_end * chunk_rows, num_rows),
                        predictions);
            });
        return;
    }
    pool_->parallelFor(0, num_rows, [&](int64_t begin, int64_t end) {
        runner_(*this, rows, qrows, begin, end, predictions);
    });
}

void
ExecutablePlan::run(const float *rows, int64_t num_rows,
                    float *predictions) const
{
    dispatchRows(rows, nullptr, num_rows, predictions);
}

void
ExecutablePlan::runResident(const float *rows, const int32_t *qrows,
                            int64_t num_rows, float *predictions) const
{
    dispatchRows(rows, qrows, num_rows, predictions);
}

void
ExecutablePlan::runInstrumented(const float *rows, int64_t num_rows,
                                float *predictions,
                                WalkCounters *counters) const
{
    const ForestBuffers &fb = buffers_;
    int32_t nf = fb.numFeatures;
    int32_t nt = fb.tileSize;
    // Bytes touched per tile evaluation: thresholds + feature indices
    // + shape id (+ child base in the sparse layout). Packed records
    // touch their full fixed stride.
    int64_t tile_bytes =
        lir::isPackedKind(fb.layout)
            ? fb.packedStride
            : nt * 8 + 2 +
                  (fb.layout == LayoutKind::kSparse ? 4 : 0);

    int32_t classes = fb.numClasses;
    std::vector<float> margins(static_cast<size_t>(classes));
    for (int64_t r = 0; r < num_rows; ++r) {
        const float *row = rows + r * nf;
        std::fill(margins.begin(), margins.end(), fb.baseScore);
        for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
            float &margin = margins[static_cast<size_t>(
                fb.treeClass[static_cast<size_t>(pos)])];
            const TreeGroup *group = nullptr;
            for (const TreeGroup &g : groups_) {
                if (pos >= g.beginPos && pos < g.endPos) {
                    group = &g;
                    break;
                }
            }
            panicIf(group == nullptr, "position not covered by a group");

            int64_t tile = fb.treeFirstTile[static_cast<size_t>(pos)];
            int64_t arity = nt + 1;
            int64_t local = 0;
            // Sparse and packed layouts chain through child bases; the
            // array layout indexes children arithmetically.
            bool chained = fb.layout != LayoutKind::kArray;
            int32_t steps = 0;
            while (true) {
                int64_t current = chained ? tile : tile + local;
                lir::ForestBuffers::TileFields fields =
                    fb.tileFields(current);
                if (!chained && fields.shapeId == lir::kLeafTileMarker) {
                    margin += fields.thresholds[0];
                    break;
                }

                // Count the in-tile path length: the node predicates a
                // plain binary walk would have evaluated here.
                int16_t shape = fields.shapeId;
                const lir::TileShape &ts = fb.shapes->shape(shape);
                // Dummy padding/hop tiles hold no real model nodes;
                // they do not contribute to the scalar-walk cost.
                // Quantized records mark them with the int16 sentinel.
                bool quantized =
                    fb.layout == LayoutKind::kPackedQuantized;
                bool is_dummy =
                    quantized
                        ? fields.qthresholds[0] == lir::kQuantizedNaN
                        : std::isinf(fields.thresholds[0]);
                uint32_t default_left = fields.defaultLeft;
                int32_t slot = 0;
                int32_t child = -1;
                while (true) {
                    if (!is_dummy)
                        counters->scalarNodesNeeded += 1;
                    int32_t feature = fields.feature(slot);
                    float value = row[feature];
                    bool go_left;
                    if (quantized) {
                        int32_t qv = fb.quantization.quantizeValue(
                            value, feature);
                        go_left =
                            qv == static_cast<int32_t>(
                                      lir::kQuantizedNaN)
                                ? ((default_left >> slot) & 1u) != 0
                                : qv < static_cast<int32_t>(
                                           fields.qthresholds[slot]);
                    } else {
                        go_left =
                            std::isnan(value)
                                ? ((default_left >> slot) & 1u) != 0
                                : value < fields.thresholds[slot];
                    }
                    int32_t next =
                        go_left ? ts.left[static_cast<size_t>(slot)]
                                : ts.right[static_cast<size_t>(slot)];
                    if (next < 0) {
                        child = fb.shapes->exitOrdinal(shape, slot,
                                                       go_left ? 0 : 1);
                        break;
                    }
                    slot = next;
                }

                counters->tilesVisited += 1;
                counters->nodePredicatesEvaluated += nt;
                counters->featureGathers += nt;
                counters->modelBytesTouched += tile_bytes;
                // Unrolled walks execute no data-dependent branches;
                // generic walks test for termination once per tile.
                if (!group->unrolledWalk &&
                    steps >= (group->peelDepth > 0 ? group->peelDepth
                                                   : 0)) {
                    counters->walkBranches += 1;
                }
                ++steps;

                if (chained) {
                    int32_t base = fields.childBase;
                    if (base < 0) {
                        margin += fb.leaves[static_cast<size_t>(
                            -(base + 1) + child)];
                        break;
                    }
                    tile = base + child;
                } else {
                    local = arity * local + child + 1;
                }
            }
        }
        if (classes > 1) {
            float *out = predictions + r * classes;
            std::copy(margins.begin(), margins.end(), out);
            if (fb.objective == model::Objective::kMulticlassSoftmax)
                model::softmaxInPlace(out, classes);
        } else {
            predictions[r] =
                model::applyObjective(fb.objective, margins[0]);
        }
    }
}

} // namespace treebeard::runtime
