/**
 * @file
 * Tile predicate evaluation: the innermost operation of the vectorized
 * tree walk (Section V-A listing, lines 10-22). One call speculatively
 * evaluates all node predicates of a tile, packs the comparison bits
 * into an integer and looks up the child index in the shape LUT.
 *
 * The templated scalar path compiles to fully unrolled straight-line
 * code for each tile size; the NT == 8 and NT == 4 paths use AVX2
 * vector loads, a feature gather, a vector compare and a movemask when
 * the build enables AVX2, exactly the instruction sequence the paper's
 * LLVM-generated code uses. Lane i always evaluates tile slot i and
 * maps to outcome bit i, matching the LUT's bit convention.
 */
#ifndef TREEBEARD_RUNTIME_TILE_EVAL_H
#define TREEBEARD_RUNTIME_TILE_EVAL_H

#include <cstdint>

#include "runtime/forest_view.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define TREEBEARD_HAS_AVX2 1
#else
#define TREEBEARD_HAS_AVX2 0
#endif

namespace treebeard::runtime {

/**
 * The node predicate `value < threshold` as the walkers evaluate it.
 * With missing-value handling, a NaN compares false here and the
 * tile's default-direction bits route it instead. Without (the
 * NaN-free promise), the compare is `!(value >= threshold)`: identical
 * for every number, and a NaN takes the left child at no extra cost.
 * Every real node and every padding tile has a left child, so a NaN
 * row that breaks the promise still walks a real path to a leaf: its
 * prediction is unspecified, its reads stay in bounds.
 */
template <bool HandleMissing>
inline bool
goesLeft(float value, float threshold)
{
    return HandleMissing ? value < threshold : !(value >= threshold);
}

#if TREEBEARD_HAS_AVX2
/** goesLeft's vector compare predicate. */
template <bool HandleMissing>
constexpr int kGoLeftPredicate =
    HandleMissing ? _CMP_LT_OQ : _CMP_NGE_UQ;
#endif

/**
 * Evaluate the predicates of the tile at global index @p tile against
 * @p row and return the LUT child index.
 *
 * @tparam NT the compile-time tile size (1 to 8).
 * @tparam HandleMissing when true, NaN feature values follow the
 *         tile's default-direction bits (plans select it with
 *         handleMissingValues()). When false, NaN lanes take the left
 *         child (goesLeft), with no extra work.
 */
template <int NT, bool HandleMissing>
inline int32_t
evalTile(const ForestView &v, int64_t tile, const float *row)
{
    const int8_t *lut = v.lut;
    const int32_t lut_stride = v.lutStride;
    const float *thresholds = v.thresholds + tile * NT;
    const int32_t *features = v.featureIndices + tile * NT;
    int16_t shape = v.shapeIds[tile];
    [[maybe_unused]] uint32_t default_left = v.defaultLeft[tile];

#if TREEBEARD_HAS_AVX2
    if constexpr (NT == 8) {
        __m256 th = _mm256_loadu_ps(thresholds);
        __m256i fi = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(features));
        __m256 fv = _mm256_i32gather_ps(row, fi, 4);
        __m256 cmp =
            _mm256_cmp_ps(fv, th, kGoLeftPredicate<HandleMissing>);
        uint32_t outcome =
            static_cast<uint32_t>(_mm256_movemask_ps(cmp));
        if constexpr (HandleMissing) {
            // Missing (NaN) lanes compare false; route them per the
            // tile's default-direction bits instead.
            __m256 missing = _mm256_cmp_ps(fv, fv, _CMP_UNORD_Q);
            outcome |=
                static_cast<uint32_t>(_mm256_movemask_ps(missing)) &
                default_left;
        }
        return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
    }
    if constexpr (NT == 4) {
        __m128 th = _mm_loadu_ps(thresholds);
        __m128i fi = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(features));
        __m128 fv = _mm_i32gather_ps(row, fi, 4);
        __m128 cmp = _mm_cmp_ps(fv, th, kGoLeftPredicate<HandleMissing>);
        uint32_t outcome = static_cast<uint32_t>(_mm_movemask_ps(cmp));
        if constexpr (HandleMissing) {
            __m128 missing = _mm_cmpunord_ps(fv, fv);
            outcome |=
                static_cast<uint32_t>(_mm_movemask_ps(missing)) &
                default_left;
        }
        return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
    }
#endif

    uint32_t outcome = 0;
    for (int s = 0; s < NT; ++s) {
        float value = row[features[s]];
        uint32_t bit = static_cast<uint32_t>(
            goesLeft<HandleMissing>(value, thresholds[s]));
        if constexpr (HandleMissing) {
            // Branchless: OR in the default-left bit when the value
            // is NaN (both comparisons lower to setcc).
            bit |= static_cast<uint32_t>(value != value) &
                   ((default_left >> s) & 1u);
        }
        outcome |= bit << s;
    }
    return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
}

// ---------------------------------------------------------------------
// Packed layout: the whole tile is one fixed-stride record; @p record
// points at its first byte (ForestView::packed + tile * stride).
// Field offsets are compile-time constants of NT, so a tile
// evaluation issues loads against a single cache line.
// ---------------------------------------------------------------------

/** Child-base field of a packed tile record. */
template <int NT>
inline int32_t
packedChildBase(const unsigned char *record)
{
    int32_t base;
    __builtin_memcpy(&base, record + lir::packedChildBaseOffset(NT),
                     sizeof(int32_t));
    return base;
}

/**
 * As evalTile, reading every field from the packed record at
 * @p record instead of the SoA arrays.
 */
template <int NT, bool HandleMissing>
inline int32_t
evalTilePacked(const ForestView &v, const unsigned char *record,
               const float *row)
{
    const int8_t *lut = v.lut;
    const int32_t lut_stride = v.lutStride;
    const float *thresholds = reinterpret_cast<const float *>(record);
    const int16_t *features = reinterpret_cast<const int16_t *>(
        record + lir::packedFeaturesOffset(NT));
    int16_t shape;
    __builtin_memcpy(&shape, record + lir::packedShapeOffset(NT),
                     sizeof(int16_t));
    [[maybe_unused]] uint32_t default_left =
        record[lir::packedDefaultLeftOffset(NT)];

#if TREEBEARD_HAS_AVX2
    if constexpr (NT == 8) {
        __m256 th = _mm256_loadu_ps(thresholds);
        // 8 x int16 -> 8 x int32 for the gather.
        __m128i fi16 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(features));
        __m256i fi = _mm256_cvtepi16_epi32(fi16);
        __m256 fv = _mm256_i32gather_ps(row, fi, 4);
        __m256 cmp =
            _mm256_cmp_ps(fv, th, kGoLeftPredicate<HandleMissing>);
        uint32_t outcome =
            static_cast<uint32_t>(_mm256_movemask_ps(cmp));
        if constexpr (HandleMissing) {
            __m256 missing = _mm256_cmp_ps(fv, fv, _CMP_UNORD_Q);
            outcome |=
                static_cast<uint32_t>(_mm256_movemask_ps(missing)) &
                default_left;
        }
        return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
    }
    if constexpr (NT == 4) {
        __m128 th = _mm_loadu_ps(thresholds);
        __m128i fi16 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(features));
        __m128i fi = _mm_cvtepi16_epi32(fi16);
        __m128 fv = _mm_i32gather_ps(row, fi, 4);
        __m128 cmp = _mm_cmp_ps(fv, th, kGoLeftPredicate<HandleMissing>);
        uint32_t outcome = static_cast<uint32_t>(_mm_movemask_ps(cmp));
        if constexpr (HandleMissing) {
            __m128 missing = _mm_cmpunord_ps(fv, fv);
            outcome |=
                static_cast<uint32_t>(_mm_movemask_ps(missing)) &
                default_left;
        }
        return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
    }
#endif

    uint32_t outcome = 0;
    for (int s = 0; s < NT; ++s) {
        float value = row[features[s]];
        uint32_t bit = static_cast<uint32_t>(
            goesLeft<HandleMissing>(value, thresholds[s]));
        if constexpr (HandleMissing) {
            bit |= static_cast<uint32_t>(value != value) &
                   ((default_left >> s) & 1u);
        }
        outcome |= bit << s;
    }
    return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
}

// ---------------------------------------------------------------------
// Quantized packed layout: same record-per-tile discipline, but the
// thresholds are int16 under the model's per-feature affine maps and
// the row has been pre-quantized into one int32 per feature (see
// lir::quantizeValue). The compare runs in int32 over
// sign-extended thresholds — outcome-identical to an int16 compare
// since both sides are in int16 range; a lane holding the
// kQuantizedNaN sentinel (a NaN row value) compares false against
// every populated threshold and is routed by the default-direction
// bits, exactly like the f32 NaN path.
// ---------------------------------------------------------------------

/** Child-base field of a quantized packed tile record. */
template <int NT>
inline int32_t
packedqChildBase(const unsigned char *record)
{
    int32_t base;
    __builtin_memcpy(&base, record + lir::packedqChildBaseOffset(NT),
                     sizeof(int32_t));
    return base;
}

/**
 * As evalTilePacked, but @p qrow holds the row's quantized feature
 * values (int32 per feature, each already in int16 range).
 */
template <int NT, bool HandleMissing>
inline int32_t
evalTilePackedQuantized(const ForestView &v, const unsigned char *record,
                        const int32_t *qrow)
{
    const int8_t *lut = v.lut;
    const int32_t lut_stride = v.lutStride;
    const int16_t *thresholds =
        reinterpret_cast<const int16_t *>(record);
    const uint8_t *features = record + lir::packedqFeaturesOffset(NT);
    int16_t shape;
    __builtin_memcpy(&shape, record + lir::packedqShapeOffset(NT),
                     sizeof(int16_t));
    [[maybe_unused]] uint32_t default_left =
        record[lir::packedqDefaultLeftOffset(NT)];

#if TREEBEARD_HAS_AVX2
    if constexpr (NT == 8) {
        // Sign-extend the int16 thresholds to int32 (off the gather's
        // critical path) and compare in epi32: identical results to
        // an int16 compare since both sides are in int16 range, and
        // the walk's serial tile->tile dependence chain stays as
        // short as the f32 path's.
        __m256i th = _mm256_cvtepi16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(thresholds)));
        __m128i fi8 = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(features));
        __m256i fi = _mm256_cvtepu8_epi32(fi8);
        __m256i qv = _mm256_i32gather_epi32(qrow, fi, 4);
        __m256i lt = _mm256_cmpgt_epi32(th, qv);
        uint32_t outcome = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(lt)));
        if constexpr (HandleMissing) {
            __m256i missing = _mm256_cmpeq_epi32(
                qv, _mm256_set1_epi32(lir::kQuantizedNaN));
            outcome |= static_cast<uint32_t>(_mm256_movemask_ps(
                           _mm256_castsi256_ps(missing))) &
                       default_left;
        }
        return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
    }
    if constexpr (NT == 4) {
        __m128i th = _mm_cvtepi16_epi32(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(thresholds)));
        uint32_t fi_bytes;
        __builtin_memcpy(&fi_bytes, features, sizeof(fi_bytes));
        __m128i fi8 = _mm_cvtsi32_si128(static_cast<int32_t>(fi_bytes));
        __m128i fi = _mm_cvtepu8_epi32(fi8);
        __m128i qv = _mm_i32gather_epi32(qrow, fi, 4);
        __m128i lt = _mm_cmpgt_epi32(th, qv);
        uint32_t outcome = static_cast<uint32_t>(
            _mm_movemask_ps(_mm_castsi128_ps(lt)));
        if constexpr (HandleMissing) {
            __m128i missing = _mm_cmpeq_epi32(
                qv, _mm_set1_epi32(lir::kQuantizedNaN));
            outcome |= static_cast<uint32_t>(_mm_movemask_ps(
                           _mm_castsi128_ps(missing))) &
                       default_left;
        }
        return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
    }
#endif

    uint32_t outcome = 0;
    for (int s = 0; s < NT; ++s) {
        int32_t value = qrow[features[s]];
        uint32_t bit = static_cast<uint32_t>(
            value < static_cast<int32_t>(thresholds[s]));
        if constexpr (HandleMissing) {
            bit |= static_cast<uint32_t>(
                       value ==
                       static_cast<int32_t>(lir::kQuantizedNaN)) &
                   ((default_left >> s) & 1u);
        }
        outcome |= bit << s;
    }
    return lut[static_cast<int64_t>(shape) * lut_stride + outcome];
}

} // namespace treebeard::runtime

#endif // TREEBEARD_RUNTIME_TILE_EVAL_H
