/**
 * @file
 * The byte formats the LIR buffers share with the walkers that read
 * them: the layout kinds, the array-layout tile markers, the field
 * offsets and strides of the packed tile records, and the row
 * quantizer of the int16 records. The kernel runtime and the code the
 * source JIT compiles both read these definitions, so this header
 * includes only the standard headers it needs.
 */
#ifndef TREEBEARD_LIR_BUFFER_FORMAT_H
#define TREEBEARD_LIR_BUFFER_FORMAT_H

#include <cmath>
#include <cstdint>

namespace treebeard::lir {

/** Shape-id marker for leaf tiles in the array layout. */
constexpr int16_t kLeafTileMarker = -1;

/** Shape-id marker for never-visited array slots. */
constexpr int16_t kUnusedTileMarker = -2;

/** Layout discriminator (mirrors hir::MemoryLayout + precision). */
enum class LayoutKind {
    kArray,
    kSparse,
    kPacked,
    kPackedQuantized,
};

/** True for both AoS record layouts (f32 packed and int16 packed). */
constexpr bool
isPackedKind(LayoutKind kind)
{
    return kind == LayoutKind::kPacked ||
           kind == LayoutKind::kPackedQuantized;
}

// ---------------------------------------------------------------------
// Packed tile records.
//
// One tile is a single fixed-stride record:
//
//   offset 0:                 float   thresholds[NT]
//   packedFeaturesOffset:     int16_t featureIndices[NT]
//   packedShapeOffset:        int16_t shapeId
//   packedDefaultLeftOffset:  uint8_t defaultLeft
//   packedChildBaseOffset:    int32_t childBase   (4-byte aligned)
//
// The stride is the next power of two covering the record (16/32/64
// bytes for NT in [1,8]), so records never straddle a cache line and
// the NT=8 record is exactly one 64-byte line. Indexing is
// record = packedData() + tile * stride; the kernels instantiate the
// offsets as compile-time constants per NT.
// ---------------------------------------------------------------------

/** Exclusive upper bound on feature indices in the packed layout. */
constexpr int32_t kPackedMaxFeatures = 32768;

constexpr int32_t
packedFeaturesOffset(int32_t tile_size)
{
    return tile_size * 4;
}

constexpr int32_t
packedShapeOffset(int32_t tile_size)
{
    return tile_size * 6;
}

constexpr int32_t
packedDefaultLeftOffset(int32_t tile_size)
{
    return tile_size * 6 + 2;
}

constexpr int32_t
packedChildBaseOffset(int32_t tile_size)
{
    // First 4-byte-aligned offset past the default-left byte.
    return (tile_size * 6 + 3 + 3) & ~3;
}

/** Bytes per packed tile record (a power of two in [16, 64]). */
constexpr int32_t
packedTileStride(int32_t tile_size)
{
    int32_t raw = packedChildBaseOffset(tile_size) + 4;
    int32_t stride = 16;
    while (stride < raw)
        stride *= 2;
    return stride;
}

// ---------------------------------------------------------------------
// Quantized packed tile records.
//
// One tile is a single fixed-stride record:
//
//   offset 0:                  int16_t thresholds[NT]  (quantized)
//   packedqFeaturesOffset:     uint8_t featureIndices[NT]
//   packedqShapeOffset:        int16_t shapeId         (2-byte aligned)
//   packedqDefaultLeftOffset:  uint8_t defaultLeft
//   packedqChildBaseOffset:    int32_t childBase       (4-byte aligned)
//
// The stride is the next power of two covering the record: 16 bytes
// for NT in [1,2] and 32 bytes for NT in [3,8], so the tile-size-8
// record is exactly half a cache line and two records never straddle
// a line. Thresholds hold quantizeValue(threshold) under the model's
// per-feature affine scale; +inf (dummy/padding) slots hold
// kQuantizedNaN, which every finite quantized row value compares
// strictly below (finite values clamp to kQuantizedNaN - 1), so dummy
// tiles route every walk to child 0 exactly like their f32 +inf form.
// ---------------------------------------------------------------------

/** Exclusive upper bound on feature indices (uint8 storage). */
constexpr int32_t kPackedQuantizedMaxFeatures = 256;

/**
 * Sentinel for +inf thresholds and NaN row values in the int16
 * domain (INT16_MAX). Finite quantized values clamp to at most
 * kQuantizedNaN - 1, so `q == kQuantizedNaN` means "missing" and
 * `q(x) < q(t)` is false for every NaN lane — exactly the f32
 * comparison semantics (NaN routes by defaultLeft).
 */
constexpr int16_t kQuantizedNaN = 32767;

constexpr int32_t
packedqFeaturesOffset(int32_t tile_size)
{
    return tile_size * 2;
}

constexpr int32_t
packedqShapeOffset(int32_t tile_size)
{
    // First 2-byte-aligned offset past the feature bytes.
    return (tile_size * 3 + 1) & ~1;
}

constexpr int32_t
packedqDefaultLeftOffset(int32_t tile_size)
{
    return packedqShapeOffset(tile_size) + 2;
}

constexpr int32_t
packedqChildBaseOffset(int32_t tile_size)
{
    // First 4-byte-aligned offset past the default-left byte.
    return (packedqDefaultLeftOffset(tile_size) + 1 + 3) & ~3;
}

/** Bytes per quantized packed tile record (16 or 32). */
constexpr int32_t
packedqTileStride(int32_t tile_size)
{
    int32_t raw = packedqChildBaseOffset(tile_size) + 4;
    int32_t stride = 16;
    while (stride < raw)
        stride *= 2;
    return stride;
}

static_assert(packedqTileStride(8) == 32,
              "tile-size-8 quantized record must be exactly 32 bytes");

/**
 * Quantize one row value under a feature's affine map
 * (q = round((value - offset) * scale)). NaN maps to kQuantizedNaN;
 * finite values clamp into [INT16_MIN, kQuantizedNaN - 1].
 */
inline int16_t
quantizeValue(float value, float offset, float scale)
{
    if (value != value) // NaN
        return kQuantizedNaN;
    float scaled = (value - offset) * scale;
    if (scaled >= 32766.0f)
        return 32766;
    if (scaled <= -32768.0f)
        return -32768;
    return static_cast<int16_t>(std::lrintf(scaled));
}

} // namespace treebeard::lir

#endif // TREEBEARD_LIR_BUFFER_FORMAT_H
