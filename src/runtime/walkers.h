/**
 * @file
 * Tree-walk kernels over a ForestView. Each function is the
 * runtime realization of one lowered WalkDecisionTree configuration:
 *
 *  - generic:   `while (!isLeaf(tile)) { evaluate; move; }`
 *  - peeled:    a checked-free prologue of known-safe steps followed
 *               by the generic loop (Section IV-B);
 *  - unrolled:  exactly `depth` traverseTile steps with no termination
 *               checks, valid for padded balanced trees (Figure 2 F);
 *  - interleaved<K>: K independent walks advanced in lockstep so the
 *               processor can overlap their dependency chains
 *               (Section IV-A).
 *
 * Everything is templated on the tile size NT so each configuration
 * compiles to straight-line specialized code. The kernel runtime
 * instantiates these templates ahead of time for tile sizes 1, 2, 4
 * and 8; the source JIT instantiates them for one plan at a time.
 */
#ifndef TREEBEARD_RUNTIME_WALKERS_H
#define TREEBEARD_RUNTIME_WALKERS_H

#include <cstdint>

#include "runtime/tile_eval.h"

namespace treebeard::runtime {

// ---------------------------------------------------------------------
// Sparse layout (Section V-B2). Termination: childBase < 0 means the
// children are leaves in the leaf pool.
// ---------------------------------------------------------------------

/** Generic sparse walk of the tree rooted at global tile @p root. */
template <int NT, bool HM>
inline float
walkSparse(const ForestView &v, int64_t root, const float *row)
{
    int64_t tile = root;
    while (true) {
        int32_t child = evalTile<NT, HM>(v, tile, row);
        int32_t base = v.childBase[tile];
        if (base < 0)
            return v.leaves[-(base + 1) + child];
        tile = base + child;
    }
}

/**
 * Peeled sparse walk: the first peel-1 steps run with no termination
 * test (safe because every root-to-leaf path crosses at least @p peel
 * internal tiles).
 */
template <int NT, bool HM>
inline float
walkSparsePeeled(const ForestView &v, int64_t root, const float *row,
                 int32_t peel)
{
    int64_t tile = root;
    for (int32_t d = 0; d + 1 < peel; ++d) {
        int32_t child = evalTile<NT, HM>(v, tile, row);
        tile = v.childBase[tile] + child;
    }
    return walkSparse<NT, HM>(v, tile, row);
}

/** Fully unrolled sparse walk: exactly @p depth tile evaluations. */
template <int NT, bool HM>
inline float
walkSparseUnrolled(const ForestView &v, int64_t root, const float *row,
                   int32_t depth)
{
    int64_t tile = root;
    for (int32_t d = 0; d + 1 < depth; ++d) {
        int32_t child = evalTile<NT, HM>(v, tile, row);
        tile = v.childBase[tile] + child;
    }
    int32_t child = evalTile<NT, HM>(v, tile, row);
    int32_t base = v.childBase[tile];
    return v.leaves[-(base + 1) + child];
}

// ---------------------------------------------------------------------
// Packed layouts: sparse topology over fixed-stride AoS records.
// Termination matches the sparse walk (childBase < 0 => leaf pool).
// The f32 and int16-quantized record formats differ only in the field
// offsets, the stride and the row element type, so one set of walkers
// serves both precisions through a walk policy. The generic walk
// prefetches the extremes of the contiguous child block while the
// current tile's predicates evaluate, hiding the line fill of
// whichever child the LUT selects next; the interleaved walkers also
// come in software-pipelined variants that carry each lane's child
// base in a register loaded one full lane round ahead of its use.
// ---------------------------------------------------------------------

/** Walk policy for the f32 packed record format. */
template <int NT, bool HM>
struct PackedF32Walk
{
    /** Row element type the tile evaluation consumes. */
    using Row = float;
    static constexpr int kNT = NT;
    static constexpr int64_t kStride = lir::packedTileStride(NT);

    static int32_t childBase(const unsigned char *record)
    {
        return packedChildBase<NT>(record);
    }

    static int32_t eval(const ForestView &v, const unsigned char *record,
                        const Row *row)
    {
        return evalTilePacked<NT, HM>(v, record, row);
    }
};

/** Walk policy for the int16-quantized packed record format. */
template <int NT, bool HM>
struct PackedQuantizedWalk
{
    /** Rows are pre-quantized: one int32 per feature. */
    using Row = int32_t;
    static constexpr int kNT = NT;
    static constexpr int64_t kStride = lir::packedqTileStride(NT);

    static int32_t childBase(const unsigned char *record)
    {
        return packedqChildBase<NT>(record);
    }

    static int32_t eval(const ForestView &v, const unsigned char *record,
                        const Row *row)
    {
        return evalTilePackedQuantized<NT, HM>(v, record, row);
    }
};

/** The record walk policy of layout @p L (f32 for the SoA layouts). */
template <int NT, lir::LayoutKind L, bool HM>
struct RecordWalkOf
{
    using type = PackedF32Walk<NT, HM>;
};

template <int NT, bool HM>
struct RecordWalkOf<NT, lir::LayoutKind::kPackedQuantized, HM>
{
    using type = PackedQuantizedWalk<NT, HM>;
};

/** Prefetch the first and last candidate child records of a tile. */
template <class P>
inline void
prefetchRecordChildren(const unsigned char *base_ptr, int32_t child_base)
{
    const unsigned char *first = base_ptr + child_base * P::kStride;
    __builtin_prefetch(first, 0, 3);
    __builtin_prefetch(first + P::kNT * P::kStride, 0, 3);
}

/** Generic record walk of the tree rooted at global tile @p root. */
template <class P>
inline float
walkRecords(const ForestView &v, int64_t root, const typename P::Row *row)
{
    const unsigned char *base_ptr = v.packed;
    int64_t tile = root;
    while (true) {
        const unsigned char *record = base_ptr + tile * P::kStride;
        int32_t base = P::childBase(record);
        if (base >= 0)
            prefetchRecordChildren<P>(base_ptr, base);
        int32_t child = P::eval(v, record, row);
        if (base < 0)
            return v.leaves[-(base + 1) + child];
        tile = base + child;
    }
}

/** Peeled record walk (same contract as walkSparsePeeled). */
template <class P>
inline float
walkRecordsPeeled(const ForestView &v, int64_t root,
                  const typename P::Row *row, int32_t peel)
{
    const unsigned char *base_ptr = v.packed;
    int64_t tile = root;
    for (int32_t d = 0; d + 1 < peel; ++d) {
        const unsigned char *record = base_ptr + tile * P::kStride;
        int32_t base = P::childBase(record);
        prefetchRecordChildren<P>(base_ptr, base);
        int32_t child = P::eval(v, record, row);
        tile = base + child;
    }
    return walkRecords<P>(v, tile, row);
}

/** Fully unrolled record walk: exactly @p depth tile evaluations. */
template <class P>
inline float
walkRecordsUnrolled(const ForestView &v, int64_t root,
                    const typename P::Row *row, int32_t depth)
{
    const unsigned char *base_ptr = v.packed;
    int64_t tile = root;
    for (int32_t d = 0; d + 1 < depth; ++d) {
        const unsigned char *record = base_ptr + tile * P::kStride;
        int32_t base = P::childBase(record);
        prefetchRecordChildren<P>(base_ptr, base);
        int32_t child = P::eval(v, record, row);
        tile = base + child;
    }
    const unsigned char *record = base_ptr + tile * P::kStride;
    int32_t child = P::eval(v, record, row);
    int32_t base = P::childBase(record);
    return v.leaves[-(base + 1) + child];
}

// ---------------------------------------------------------------------
// Array layout (Section V-B1). Tiles form an implicit (NT+1)-ary
// array per tree; leaf tiles carry kLeafTileMarker.
// ---------------------------------------------------------------------

/** Generic array-layout walk of the tree whose block starts at @p base. */
template <int NT, bool HM>
inline float
walkArray(const ForestView &v, int64_t base, const float *row)
{
    int64_t local = 0;
    while (true) {
        int64_t tile = base + local;
        if (v.shapeIds[tile] == lir::kLeafTileMarker)
            return v.thresholds[tile * NT];
        int32_t child = evalTile<NT, HM>(v, tile, row);
        local = (NT + 1) * local + child + 1;
    }
}

/** Peeled array walk: the first @p peel iterations skip the leaf test. */
template <int NT, bool HM>
inline float
walkArrayPeeled(const ForestView &v, int64_t base, const float *row,
                int32_t peel)
{
    int64_t local = 0;
    for (int32_t d = 0; d < peel; ++d) {
        int32_t child = evalTile<NT, HM>(v, base + local, row);
        local = (NT + 1) * local + child + 1;
    }
    // Continue with the generic checked loop from the current tile.
    while (true) {
        int64_t tile = base + local;
        if (v.shapeIds[tile] == lir::kLeafTileMarker)
            return v.thresholds[tile * NT];
        int32_t child = evalTile<NT, HM>(v, tile, row);
        local = (NT + 1) * local + child + 1;
    }
}

/** Fully unrolled array walk: @p depth evaluations then the leaf read. */
template <int NT, bool HM>
inline float
walkArrayUnrolled(const ForestView &v, int64_t base, const float *row,
                  int32_t depth)
{
    int64_t local = 0;
    for (int32_t d = 0; d < depth; ++d) {
        int32_t child = evalTile<NT, HM>(v, base + local, row);
        local = (NT + 1) * local + child + 1;
    }
    return v.thresholds[(base + local) * NT];
}

// ---------------------------------------------------------------------
// Interleaved walks (Section IV-A): K independent (root, row) pairs in
// lockstep. `roots` and `rows` each have K entries; results go to
// `out[0..K)`. The same primitives serve row interleaving (same tree,
// K rows) and tree interleaving (K trees, same row).
// ---------------------------------------------------------------------

/** Interleaved fully unrolled sparse walks. */
template <int NT, bool HM, int K>
inline void
walkSparseUnrolledInterleaved(const ForestView &v, const int64_t *roots,
                              const float *const *rows, int32_t depth,
                              float *out)
{
    int64_t tile[K];
    for (int k = 0; k < K; ++k)
        tile[k] = roots[k];
    for (int32_t d = 0; d + 1 < depth; ++d) {
        for (int k = 0; k < K; ++k) {
            int32_t child =
                evalTile<NT, HM>(v, tile[k], rows[k]);
            tile[k] = v.childBase[tile[k]] + child;
        }
    }
    for (int k = 0; k < K; ++k) {
        int32_t child = evalTile<NT, HM>(v, tile[k], rows[k]);
        int32_t base = v.childBase[tile[k]];
        out[k] = v.leaves[-(base + 1) + child];
    }
}

/** Interleaved generic (optionally peeled) sparse walks. */
template <int NT, bool HM, int K>
inline void
walkSparseGenericInterleaved(const ForestView &v, const int64_t *roots,
                             const float *const *rows, int32_t peel,
                             float *out)
{
    int64_t tile[K];
    for (int k = 0; k < K; ++k)
        tile[k] = roots[k];
    for (int32_t d = 0; d + 1 < peel; ++d) {
        for (int k = 0; k < K; ++k) {
            int32_t child =
                evalTile<NT, HM>(v, tile[k], rows[k]);
            tile[k] = v.childBase[tile[k]] + child;
        }
    }
    uint32_t done = 0;
    const uint32_t all_done = (K >= 32) ? ~0u : ((1u << K) - 1);
    while (done != all_done) {
        for (int k = 0; k < K; ++k) {
            if (done & (1u << k))
                continue;
            int32_t child =
                evalTile<NT, HM>(v, tile[k], rows[k]);
            int32_t base = v.childBase[tile[k]];
            if (base < 0) {
                out[k] =
                    v.leaves[-(base + 1) + child];
                done |= 1u << k;
            } else {
                tile[k] = base + child;
            }
        }
    }
}

/** Interleaved fully unrolled record walks (prefetch-hint variant). */
template <class P, int K>
inline void
walkRecordsUnrolledInterleaved(const ForestView &v, const int64_t *roots,
                               const typename P::Row *const *rows,
                               int32_t depth, float *out)
{
    const unsigned char *base_ptr = v.packed;
    int64_t tile[K];
    for (int k = 0; k < K; ++k)
        tile[k] = roots[k];
    for (int32_t d = 0; d + 1 < depth; ++d) {
        // Prefetch every lane's child block first, then evaluate: the
        // loads of lane k's next record overlap the other lanes' work.
        for (int k = 0; k < K; ++k) {
            prefetchRecordChildren<P>(
                base_ptr,
                P::childBase(base_ptr + tile[k] * P::kStride));
        }
        for (int k = 0; k < K; ++k) {
            const unsigned char *record =
                base_ptr + tile[k] * P::kStride;
            int32_t child = P::eval(v, record, rows[k]);
            tile[k] = P::childBase(record) + child;
        }
    }
    for (int k = 0; k < K; ++k) {
        const unsigned char *record = base_ptr + tile[k] * P::kStride;
        int32_t child = P::eval(v, record, rows[k]);
        int32_t base = P::childBase(record);
        out[k] = v.leaves[-(base + 1) + child];
    }
}

/**
 * Software-pipelined interleaved unrolled record walks: each lane
 * carries its current record pointer and that record's child base in
 * registers; advancing lane k issues the next record's child-base
 * load a full K-1 lanes of work before its next use, so the dependent
 * line fill overlaps the other lanes' evaluations instead of relying
 * on prefetch hints.
 */
template <class P, int K>
inline void
walkRecordsUnrolledInterleavedPipelined(
    const ForestView &v, const int64_t *roots, const typename P::Row *const *rows,
    int32_t depth, float *out)
{
    const unsigned char *base_ptr = v.packed;
    const unsigned char *rec[K];
    int32_t base[K];
    for (int k = 0; k < K; ++k) {
        rec[k] = base_ptr + roots[k] * P::kStride;
        base[k] = P::childBase(rec[k]);
    }
    for (int32_t d = 0; d + 1 < depth; ++d) {
        for (int k = 0; k < K; ++k) {
            int32_t child = P::eval(v, rec[k], rows[k]);
            rec[k] = base_ptr +
                     static_cast<int64_t>(base[k] + child) * P::kStride;
            base[k] = P::childBase(rec[k]);
        }
    }
    // The final records' child bases are already in flight (negative:
    // leaf-pool offsets).
    for (int k = 0; k < K; ++k) {
        int32_t child = P::eval(v, rec[k], rows[k]);
        out[k] =
            v.leaves[-(base[k] + 1) + child];
    }
}

/** Interleaved generic (optionally peeled) record walks. */
template <class P, int K>
inline void
walkRecordsGenericInterleaved(const ForestView &v, const int64_t *roots,
                              const typename P::Row *const *rows,
                              int32_t peel, float *out)
{
    const unsigned char *base_ptr = v.packed;
    int64_t tile[K];
    for (int k = 0; k < K; ++k)
        tile[k] = roots[k];
    for (int32_t d = 0; d + 1 < peel; ++d) {
        for (int k = 0; k < K; ++k) {
            const unsigned char *record =
                base_ptr + tile[k] * P::kStride;
            int32_t child = P::eval(v, record, rows[k]);
            tile[k] = P::childBase(record) + child;
        }
    }
    uint32_t done = 0;
    const uint32_t all_done = (K >= 32) ? ~0u : ((1u << K) - 1);
    while (done != all_done) {
        for (int k = 0; k < K; ++k) {
            if (done & (1u << k))
                continue;
            const unsigned char *record =
                base_ptr + tile[k] * P::kStride;
            int32_t base = P::childBase(record);
            if (base >= 0)
                prefetchRecordChildren<P>(base_ptr, base);
            int32_t child = P::eval(v, record, rows[k]);
            if (base < 0) {
                out[k] =
                    v.leaves[-(base + 1) + child];
                done |= 1u << k;
            } else {
                tile[k] = base + child;
            }
        }
    }
}

/**
 * Software-pipelined interleaved generic record walks: like the
 * unrolled pipelined variant, but each lane checks its register-held
 * child base for leaf termination before advancing.
 */
template <class P, int K>
inline void
walkRecordsGenericInterleavedPipelined(
    const ForestView &v, const int64_t *roots, const typename P::Row *const *rows,
    int32_t peel, float *out)
{
    const unsigned char *base_ptr = v.packed;
    const unsigned char *rec[K];
    int32_t base[K];
    for (int k = 0; k < K; ++k) {
        rec[k] = base_ptr + roots[k] * P::kStride;
        base[k] = P::childBase(rec[k]);
    }
    for (int32_t d = 0; d + 1 < peel; ++d) {
        for (int k = 0; k < K; ++k) {
            int32_t child = P::eval(v, rec[k], rows[k]);
            rec[k] = base_ptr +
                     static_cast<int64_t>(base[k] + child) * P::kStride;
            base[k] = P::childBase(rec[k]);
        }
    }
    uint32_t done = 0;
    const uint32_t all_done = (K >= 32) ? ~0u : ((1u << K) - 1);
    while (done != all_done) {
        for (int k = 0; k < K; ++k) {
            if (done & (1u << k))
                continue;
            int32_t child = P::eval(v, rec[k], rows[k]);
            if (base[k] < 0) {
                out[k] = v.leaves[-(base[k] + 1) + child];
                done |= 1u << k;
            } else {
                rec[k] = base_ptr +
                         static_cast<int64_t>(base[k] + child) *
                             P::kStride;
                base[k] = P::childBase(rec[k]);
            }
        }
    }
}

/** Interleaved fully unrolled array walks. */
template <int NT, bool HM, int K>
inline void
walkArrayUnrolledInterleaved(const ForestView &v, const int64_t *bases,
                             const float *const *rows, int32_t depth,
                             float *out)
{
    int64_t local[K] = {};
    for (int32_t d = 0; d < depth; ++d) {
        for (int k = 0; k < K; ++k) {
            int32_t child = evalTile<NT, HM>(v, bases[k] + local[k], rows[k]);
            local[k] = (NT + 1) * local[k] + child + 1;
        }
    }
    for (int k = 0; k < K; ++k) {
        out[k] = v.thresholds[(bases[k] + local[k]) * NT];
    }
}

// ---------------------------------------------------------------------
// Row-parallel (batch-major) vectorized walks: the FIL-style traversal
// shape selected by hir::TraversalKind::kRowParallel. Eight rows of a
// row-major block walk ONE tree in lockstep, one SIMD lane per row:
// each step gathers the lanes' current tile fields, gathers each
// lane's feature value from its own row, and blends every lane to its
// own child; a done-mask retires lanes whose walk reached a leaf
// (their tile index is frozen so trailing gathers stay in bounds, and
// the masked leaf gather makes the out[] write idempotent). Only tile
// size 1 is vectorized this way — at NT == 1 the per-node predicate is
// a single compare, so vectorizing across rows recovers the SIMD width
// that node-parallel evaluation cannot use; larger tile sizes keep the
// node-parallel tile kernels and get their row parallelism from the
// scalar lockstep fallback in the plan.
//
// Missing-value semantics match the scalar predicate bit for bit
// (goesLeft): with HM, NaN lanes compare false (unordered) and are
// OR'd with the node's default-left bit; without, they go left. The
// sparse layout reads that bit through ForestView::defaultLeftWide,
// an int32-widened copy of the default-left bytes (word gathers from
// the uint8 array itself would read past its end), built only for
// plans that route missing values (see handleMissingValues). The bits
// matter even for models without default directions: padded dummy
// tiles carry all-left bits that keep NaN lanes on the child-0 chain
// (their filler slots are unreachable). Packed records gather the bit
// from inside the 16-byte record, which is always in bounds.
// ---------------------------------------------------------------------

/** Rows per row-parallel lane group (__m256 width). */
constexpr int32_t kRowParallelWidth = 8;

#if TREEBEARD_HAS_AVX2

/**
 * Row-parallel sparse walk, tile size 1: @p G lane groups of 8 rows
 * each (row-major at @p rows, stride @p num_features) walk the tree
 * rooted at @p root; leaf values go to out[0..8G). The first
 * @p unchecked steps skip the leaf test (the peel/unroll contract:
 * every root-to-leaf path crosses more than @p unchecked internal
 * tiles).
 *
 * The groups exist purely to hide gather latency: one group's walk is
 * a serial gather->compare->blend->gather chain, so G independent
 * chains in flight keep the load ports busy the way the interleaved
 * node-parallel walks do. Groups that retire all 8 lanes drop out of
 * the loop individually; per-row results are independent of G.
 */
template <bool HM, int G>
inline void
walkSparseRowsWide(const ForestView &v, int64_t root, const float *rows,
                   int64_t num_features, int32_t unchecked, float *out)
{
    const float *thresholds = v.thresholds;
    const int32_t *features = v.featureIndices;
    const int32_t *child_base = v.childBase;
    const float *leaves = v.leaves;
    [[maybe_unused]] const int32_t *dl32 = v.defaultLeftWide;
    const int8_t *lut = v.lut;
    const int32_t nf = static_cast<int32_t>(num_features);
    // Lane l reads row l of its group's block: feature addresses are
    // fi + l * num_features off the group's first row.
    const __m256i lane_row = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(nf));
    // NT == 1 has a single tile shape (id 0), so the LUT collapses to
    // two entries: child on predicate-false vs predicate-true.
    const __m256i child_false = _mm256_set1_epi32(lut[0]);
    const __m256i child_true = _mm256_set1_epi32(lut[1]);
    const __m256i ones = _mm256_set1_epi32(1);
    __m256i tile[G];
    const float *rows_g[G];
    for (int g = 0; g < G; ++g) {
        tile[g] = _mm256_set1_epi32(static_cast<int32_t>(root));
        rows_g[g] = rows + static_cast<int64_t>(g) *
                               kRowParallelWidth * num_features;
    }

    auto step = [&](__m256i t, const float *rg) {
        __m256 th = _mm256_i32gather_ps(thresholds, t, 4);
        __m256i fi = _mm256_i32gather_epi32(features, t, 4);
        __m256 fv = _mm256_i32gather_ps(
            rg, _mm256_add_epi32(fi, lane_row), 4);
        __m256 go_left = _mm256_cmp_ps(fv, th, kGoLeftPredicate<HM>);
        if constexpr (HM) {
            __m256 missing = _mm256_cmp_ps(fv, fv, _CMP_UNORD_Q);
            __m256i dl = _mm256_i32gather_epi32(dl32, t, 4);
            __m256 dlm = _mm256_castsi256_ps(
                _mm256_cmpgt_epi32(dl, _mm256_setzero_si256()));
            go_left = _mm256_or_ps(go_left,
                                   _mm256_and_ps(missing, dlm));
        }
        return _mm256_blendv_epi8(child_false, child_true,
                                  _mm256_castps_si256(go_left));
    };

    for (int32_t d = 0; d < unchecked; ++d) {
        for (int g = 0; g < G; ++g) {
            __m256i child = step(tile[g], rows_g[g]);
            __m256i base =
                _mm256_i32gather_epi32(child_base, tile[g], 4);
            tile[g] = _mm256_add_epi32(base, child);
        }
    }
    __m256 result[G];
    __m256i done[G];
    for (int g = 0; g < G; ++g) {
        result[g] = _mm256_setzero_ps();
        done[g] = _mm256_setzero_si256();
    }
    uint32_t active = (G >= 32) ? ~0u : ((1u << G) - 1);
    while (active != 0) {
        for (int g = 0; g < G; ++g) {
            if (!(active & (1u << g)))
                continue;
            __m256i child = step(tile[g], rows_g[g]);
            __m256i base =
                _mm256_i32gather_epi32(child_base, tile[g], 4);
            // base < 0: the children are leaves in the leaf pool at
            // -(base + 1) + child.
            __m256i leaf =
                _mm256_cmpgt_epi32(_mm256_setzero_si256(), base);
            __m256i leaf_index = _mm256_sub_epi32(
                child, _mm256_add_epi32(base, ones));
            result[g] = _mm256_mask_i32gather_ps(
                result[g], leaves, leaf_index,
                _mm256_castsi256_ps(leaf), 4);
            done[g] = _mm256_or_si256(done[g], leaf);
            if (_mm256_movemask_ps(_mm256_castsi256_ps(done[g])) ==
                0xff) {
                active &= ~(1u << g);
                continue;
            }
            // Retired lanes stay on their final tile so the next
            // iteration's gathers remain in bounds.
            tile[g] = _mm256_blendv_epi8(
                _mm256_add_epi32(base, child), tile[g], leaf);
        }
    }
    for (int g = 0; g < G; ++g)
        _mm256_storeu_ps(out + g * kRowParallelWidth, result[g]);
}

/**
 * Row-parallel walk over NT == 1 packed f32 records (16-byte stride:
 * word 0 f32 threshold, word 1 feature|shape, word 2 default-left
 * byte, word 3 child base) for @p G lane groups of 8 rows. All field
 * gathers are 4-byte words inside the record, so no shadow array is
 * needed. See walkSparseRowsWide for the group-interleaving rationale.
 */
template <bool HM, int G>
inline void
walkPackedRowsWide(const ForestView &v, int64_t root, const float *rows,
                   int64_t num_features, int32_t unchecked, float *out)
{
    static_assert(lir::packedTileStride(1) == 16,
                  "NT==1 packed record must be 4 words");
    const float *pd_f32 =
        reinterpret_cast<const float *>(v.packed);
    const int32_t *pd_i32 =
        reinterpret_cast<const int32_t *>(v.packed);
    const float *leaves = v.leaves;
    const int8_t *lut = v.lut;
    const int32_t nf = static_cast<int32_t>(num_features);
    const __m256i lane_row = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(nf));
    const __m256i child_false = _mm256_set1_epi32(lut[0]);
    const __m256i child_true = _mm256_set1_epi32(lut[1]);
    const __m256i ones = _mm256_set1_epi32(1);
    __m256i tile[G];
    const float *rows_g[G];
    for (int g = 0; g < G; ++g) {
        tile[g] = _mm256_set1_epi32(static_cast<int32_t>(root));
        rows_g[g] = rows + static_cast<int64_t>(g) *
                               kRowParallelWidth * num_features;
    }

    auto step = [&](__m256i t, const float *rg) {
        // Word index of the lanes' records: tile * (stride / 4).
        __m256i w = _mm256_slli_epi32(t, 2);
        __m256 th = _mm256_i32gather_ps(pd_f32, w, 4);
        __m256i w1 = _mm256_i32gather_epi32(
            pd_i32, _mm256_add_epi32(w, ones), 4);
        // Low 16 bits of word 1: the int16 feature index.
        __m256i fi = _mm256_srai_epi32(_mm256_slli_epi32(w1, 16), 16);
        __m256 fv = _mm256_i32gather_ps(
            rg, _mm256_add_epi32(fi, lane_row), 4);
        __m256 go_left = _mm256_cmp_ps(fv, th, kGoLeftPredicate<HM>);
        if constexpr (HM) {
            __m256 missing = _mm256_cmp_ps(fv, fv, _CMP_UNORD_Q);
            __m256i w2 = _mm256_i32gather_epi32(
                pd_i32, _mm256_add_epi32(w, _mm256_set1_epi32(2)), 4);
            __m256i dl = _mm256_and_si256(w2, ones);
            __m256 dlm = _mm256_castsi256_ps(
                _mm256_cmpgt_epi32(dl, _mm256_setzero_si256()));
            go_left = _mm256_or_ps(go_left,
                                   _mm256_and_ps(missing, dlm));
        }
        __m256i base = _mm256_i32gather_epi32(
            pd_i32, _mm256_add_epi32(w, _mm256_set1_epi32(3)), 4);
        __m256i child = _mm256_blendv_epi8(
            child_false, child_true, _mm256_castps_si256(go_left));
        struct { __m256i child, base; } r = {child, base};
        return r;
    };

    for (int32_t d = 0; d < unchecked; ++d) {
        for (int g = 0; g < G; ++g) {
            auto r = step(tile[g], rows_g[g]);
            tile[g] = _mm256_add_epi32(r.base, r.child);
        }
    }
    __m256 result[G];
    __m256i done[G];
    for (int g = 0; g < G; ++g) {
        result[g] = _mm256_setzero_ps();
        done[g] = _mm256_setzero_si256();
    }
    uint32_t active = (G >= 32) ? ~0u : ((1u << G) - 1);
    while (active != 0) {
        for (int g = 0; g < G; ++g) {
            if (!(active & (1u << g)))
                continue;
            auto r = step(tile[g], rows_g[g]);
            __m256i leaf =
                _mm256_cmpgt_epi32(_mm256_setzero_si256(), r.base);
            __m256i leaf_index = _mm256_sub_epi32(
                r.child, _mm256_add_epi32(r.base, ones));
            result[g] = _mm256_mask_i32gather_ps(
                result[g], leaves, leaf_index,
                _mm256_castsi256_ps(leaf), 4);
            done[g] = _mm256_or_si256(done[g], leaf);
            if (_mm256_movemask_ps(_mm256_castsi256_ps(done[g])) ==
                0xff) {
                active &= ~(1u << g);
                continue;
            }
            tile[g] = _mm256_blendv_epi8(
                _mm256_add_epi32(r.base, r.child), tile[g], leaf);
        }
    }
    for (int g = 0; g < G; ++g)
        _mm256_storeu_ps(out + g * kRowParallelWidth, result[g]);
}

/**
 * Row-parallel walk over NT == 1 quantized packed records (16-byte
 * stride: word 0 int16 threshold | uint8 feature, word 1 shape |
 * default-left byte, word 2 child base) against @p G lane groups of 8
 * pre-quantized rows (@p qrows, int32 per feature). Comparison and
 * NaN-sentinel
 * semantics match evalTilePackedQuantized exactly, so predictDataset
 * over the resident image takes this path with no extra work.
 */
template <bool HM, int G>
inline void
walkPackedQuantizedRowsWide(const ForestView &v, int64_t root, const int32_t *qrows,
                            int64_t num_features, int32_t unchecked,
                            float *out)
{
    static_assert(lir::packedqTileStride(1) == 16,
                  "NT==1 quantized record must be 4 words");
    const int32_t *pd_i32 =
        reinterpret_cast<const int32_t *>(v.packed);
    const float *leaves = v.leaves;
    const int8_t *lut = v.lut;
    const int32_t nf = static_cast<int32_t>(num_features);
    const __m256i lane_row = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(nf));
    const __m256i child_false = _mm256_set1_epi32(lut[0]);
    const __m256i child_true = _mm256_set1_epi32(lut[1]);
    const __m256i ones = _mm256_set1_epi32(1);
    __m256i tile[G];
    const int32_t *qrows_g[G];
    for (int g = 0; g < G; ++g) {
        tile[g] = _mm256_set1_epi32(static_cast<int32_t>(root));
        qrows_g[g] = qrows + static_cast<int64_t>(g) *
                                 kRowParallelWidth * num_features;
    }

    auto step = [&](__m256i t, const int32_t *rg) {
        __m256i w = _mm256_slli_epi32(t, 2);
        __m256i w0 = _mm256_i32gather_epi32(pd_i32, w, 4);
        // Low 16 bits: int16 threshold (sign-extended); bits 16..23:
        // the uint8 feature index.
        __m256i th = _mm256_srai_epi32(_mm256_slli_epi32(w0, 16), 16);
        __m256i fi = _mm256_and_si256(_mm256_srli_epi32(w0, 16),
                                      _mm256_set1_epi32(0xff));
        __m256i qv = _mm256_i32gather_epi32(
            rg, _mm256_add_epi32(fi, lane_row), 4);
        __m256i go_left = _mm256_cmpgt_epi32(th, qv);
        if constexpr (HM) {
            __m256i missing = _mm256_cmpeq_epi32(
                qv, _mm256_set1_epi32(lir::kQuantizedNaN));
            __m256i w1 = _mm256_i32gather_epi32(
                pd_i32, _mm256_add_epi32(w, ones), 4);
            __m256i dl = _mm256_and_si256(_mm256_srli_epi32(w1, 16),
                                          ones);
            __m256i dlm =
                _mm256_cmpgt_epi32(dl, _mm256_setzero_si256());
            go_left = _mm256_or_si256(go_left,
                                      _mm256_and_si256(missing, dlm));
        }
        __m256i base = _mm256_i32gather_epi32(
            pd_i32, _mm256_add_epi32(w, _mm256_set1_epi32(2)), 4);
        __m256i child =
            _mm256_blendv_epi8(child_false, child_true, go_left);
        struct { __m256i child, base; } r = {child, base};
        return r;
    };

    for (int32_t d = 0; d < unchecked; ++d) {
        for (int g = 0; g < G; ++g) {
            auto r = step(tile[g], qrows_g[g]);
            tile[g] = _mm256_add_epi32(r.base, r.child);
        }
    }
    __m256 result[G];
    __m256i done[G];
    for (int g = 0; g < G; ++g) {
        result[g] = _mm256_setzero_ps();
        done[g] = _mm256_setzero_si256();
    }
    uint32_t active = (G >= 32) ? ~0u : ((1u << G) - 1);
    while (active != 0) {
        for (int g = 0; g < G; ++g) {
            if (!(active & (1u << g)))
                continue;
            auto r = step(tile[g], qrows_g[g]);
            __m256i leaf =
                _mm256_cmpgt_epi32(_mm256_setzero_si256(), r.base);
            __m256i leaf_index = _mm256_sub_epi32(
                r.child, _mm256_add_epi32(r.base, ones));
            result[g] = _mm256_mask_i32gather_ps(
                result[g], leaves, leaf_index,
                _mm256_castsi256_ps(leaf), 4);
            done[g] = _mm256_or_si256(done[g], leaf);
            if (_mm256_movemask_ps(_mm256_castsi256_ps(done[g])) ==
                0xff) {
                active &= ~(1u << g);
                continue;
            }
            tile[g] = _mm256_blendv_epi8(
                _mm256_add_epi32(r.base, r.child), tile[g], leaf);
        }
    }
    for (int g = 0; g < G; ++g)
        _mm256_storeu_ps(out + g * kRowParallelWidth, result[g]);
}

#endif // TREEBEARD_HAS_AVX2

/** Interleaved generic (optionally peeled) array walks. */
template <int NT, bool HM, int K>
inline void
walkArrayGenericInterleaved(const ForestView &v, const int64_t *bases,
                            const float *const *rows, int32_t peel,
                            float *out)
{
    int64_t local[K] = {};
    for (int32_t d = 0; d < peel; ++d) {
        for (int k = 0; k < K; ++k) {
            int32_t child = evalTile<NT, HM>(v, bases[k] + local[k], rows[k]);
            local[k] = (NT + 1) * local[k] + child + 1;
        }
    }
    uint32_t done = 0;
    const uint32_t all_done = (K >= 32) ? ~0u : ((1u << K) - 1);
    while (done != all_done) {
        for (int k = 0; k < K; ++k) {
            if (done & (1u << k))
                continue;
            int64_t tile = bases[k] + local[k];
            if (v.shapeIds[tile] ==
                lir::kLeafTileMarker) {
                out[k] = v.thresholds[tile * NT];
                done |= 1u << k;
                continue;
            }
            int32_t child = evalTile<NT, HM>(v, tile, rows[k]);
            local[k] = (NT + 1) * local[k] + child + 1;
        }
    }
}

} // namespace treebeard::runtime

#endif // TREEBEARD_RUNTIME_WALKERS_H
