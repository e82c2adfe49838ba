/**
 * @file
 * The low-level IR's explicit memory representation of a compiled
 * forest (Section V-B): flattened tile buffers in either the
 * array-based or the sparse layout, plus the shape LUT, ready for the
 * runtime kernels (or the C++ source emitter) to consume.
 *
 * Conventions shared by both layouts:
 *  - Trees are stored in HIR execution order: buffer tree index ==
 *    position in HirModule::treeOrder().
 *  - Every tile occupies tileSize slots in `thresholds` and
 *    `featureIndices` (tiles with fewer nodes pad the remaining slots
 *    with +inf thresholds / feature 0, which are harmless don't-care
 *    lanes for the LUT).
 *  - Dummy (padding/hop) tiles use +inf thresholds and the
 *    left-leaning chain shape, so every walk through them exits at
 *    child 0 deterministically.
 *
 * Array layout:
 *  - Each tree is an implicit (tileSize+1)-ary array: the c-th child
 *    of local tile n lives at local index (tileSize+1)*n + c + 1.
 *  - Leaf tiles occupy full tile slots with shapeId == kLeafTileMarker
 *    and the leaf value in their first threshold slot.
 *
 * Sparse layout:
 *  - `childBase[tile] >= 0`: global index of the tile's first child;
 *    children are contiguous.
 *  - `childBase[tile] < 0`: all children are leaves; the child values
 *    live at leaves[-(childBase+1) + c].
 *  - Mixed leaf/non-leaf children are eliminated with "hop" tiles.
 *
 * Packed layout:
 *  - Same topology and childBase/leaves semantics as the sparse
 *    layout, but the per-tile SoA arrays are fused into one
 *    fixed-stride AoS record per tile (see packed* helpers below), so
 *    a tile evaluation touches a single cache line instead of ~5.
 *  - Feature indices are narrowed to int16; models with >= 32768
 *    features cannot use this layout (the builder falls back).
 *
 * Packed-quantized layout:
 *  - Same topology as the packed layout, but thresholds are narrowed
 *    to int16 under a per-feature affine scale (see QuantizationInfo)
 *    and feature indices to uint8, halving the tile-size-8 record to
 *    32 bytes — two tiles per 64-byte cache line. +inf (dummy/padding)
 *    thresholds map to the kQuantizedNaN sentinel; finite thresholds
 *    clamp to <= kQuantizedNaN - 1 so the sentinel stays unambiguous.
 *    Models with >= 256 features fall back to the f32 packed layout.
 */
#ifndef TREEBEARD_LIR_FOREST_BUFFERS_H
#define TREEBEARD_LIR_FOREST_BUFFERS_H

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lir/tile_shape.h"
#include "model/forest.h"

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

const char *layoutKindName(LayoutKind kind);

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

/** 64-byte-aligned backing unit for the packed record buffer. */
struct alignas(64) PackedLine
{
    unsigned char bytes[64];
};

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
 * Per-model quantization metadata for the packed-quantized layout:
 * the per-feature affine maps (q = round((x - offset) * scale)) and
 * the worst-case error budgets the layout builder computed from them.
 */
struct QuantizationInfo
{
    /** Per-feature scale (always finite and > 0). */
    std::vector<float> scale;
    /** Per-feature offset (always finite). */
    std::vector<float> offset;

    /**
     * Per-feature threshold resolution 1/scale: the quantized compare
     * behaves exactly like an f32 compare against an effective
     * threshold t' with t - stepBudget[f] <= t' <= t.
     */
    std::vector<float> stepBudget;

    /** Max stepBudget over features that appear in any record. */
    float maxThresholdError = 0.0f;

    /**
     * Worst-case |quantized - f32| prediction drift: the sum over
     * trees of (max leaf - min leaf), i.e. the margin change if every
     * tree flipped to its farthest leaf. Loose but always sound.
     */
    float predictionErrorBudget = 0.0f;

    /**
     * Quantize one row value for feature @p feature. NaN maps to
     * kQuantizedNaN; finite values clamp into
     * [INT16_MIN, kQuantizedNaN - 1]. The source-JIT emitter inlines
     * this exact expression so both backends round identically.
     */
    int16_t quantizeValue(float value, int32_t feature) const
    {
        if (value != value) // NaN
            return kQuantizedNaN;
        float scaled = (value - offset[static_cast<size_t>(feature)]) *
                       scale[static_cast<size_t>(feature)];
        if (scaled >= 32766.0f)
            return 32766;
        if (scaled <= -32768.0f)
            return -32768;
        return static_cast<int16_t>(std::lrintf(scaled));
    }
};

/** Walk-shape metadata for one tree, copied from its HIR tree group. */
struct TreeWalkInfo
{
    /** Exact walk depth when the tree's walk is fully unrolled. */
    int32_t unrolledDepth = 0;
    bool unrolled = false;
    /** Checked-free prefix length for generic walks. */
    int32_t peelDepth = 0;
};

/**
 * The complete compiled-model memory image.
 */
struct ForestBuffers
{
    LayoutKind layout = LayoutKind::kSparse;
    int32_t tileSize = 0;
    int64_t numTrees = 0;
    int32_t numFeatures = 0;
    float baseScore = 0.0f;
    model::Objective objective = model::Objective::kRegression;
    /** Output classes (1 for single-output models). */
    int32_t numClasses = 1;
    /** Class each tree feeds, by buffer (execution-order) index. */
    std::vector<int32_t> treeClass;

    /** Shape table (LUT) for tileSize; owned by the process cache. */
    const TileShapeTable *shapes = nullptr;

    /** Global tile index of each tree's root: treeFirstTile[pos]. */
    std::vector<int64_t> treeFirstTile;
    /** One-past-the-end global tile index per tree. */
    std::vector<int64_t> treeTileEnd;

    /** Per-tile node data; tile t's slots at [t*tileSize, (t+1)*tileSize). */
    std::vector<float> thresholds;
    std::vector<int32_t> featureIndices;
    /** Per-tile shape id (or array-layout markers). */
    std::vector<int16_t> shapeIds;

    /**
     * Per-tile default-direction bits: bit s is 1 when slot s routes
     * left on a missing (NaN) feature value. Dummy/padded slots are 1
     * so NaN walks keep following the deterministic child-0 path.
     */
    std::vector<uint8_t> defaultLeft;

    /**
     * True when any model node carries a default-left direction; the
     * runtime then selects the missing-value-aware kernels. Models
     * without default directions use the plain predicate (NaN routes
     * right, which is exactly defaultLeft == false everywhere).
     */
    bool hasDefaultLeft = false;

    /** Sparse layout only: per-tile child base (see file comment). */
    std::vector<int32_t> childBase;
    /** Sparse/packed layouts: leaf value pool. */
    std::vector<float> leaves;

    /**
     * Packed layout only: the AoS record buffer (tile t's record at
     * byte offset t * packedStride) and its per-tile stride. The SoA
     * vectors above are empty in this layout; all per-tile data lives
     * here (leaves/treeFirstTile/walkInfo are unchanged).
     */
    std::vector<PackedLine> packed;
    int32_t packedStride = 0;
    int64_t packedTileCount = 0;

    /** Packed-quantized layout only: the affine maps + error budgets. */
    QuantizationInfo quantization;

    /** Per-tree walk metadata (unroll/peel), by buffer tree index. */
    std::vector<TreeWalkInfo> walkInfo;

    int64_t numTiles() const
    {
        return isPackedKind(layout)
                   ? packedTileCount
                   : static_cast<int64_t>(shapeIds.size());
    }

    const unsigned char *packedData() const
    {
        return reinterpret_cast<const unsigned char *>(packed.data());
    }

    unsigned char *packedData()
    {
        return reinterpret_cast<unsigned char *>(packed.data());
    }

    const unsigned char *packedTileRecord(int64_t tile) const
    {
        return packedData() + tile * packedStride;
    }

    /**
     * Layout-agnostic view of one tile's fields, resolved with
     * runtime offsets. For reference/instrumented paths and the
     * layout builders — the hot kernels use compile-time offsets.
     */
    struct TileFields
    {
        const float *thresholds = nullptr;
        /** Packed-quantized layout: int16-quantized thresholds. */
        const int16_t *qthresholds = nullptr;
        const int32_t *features32 = nullptr; // array/sparse layouts
        const int16_t *features16 = nullptr; // packed layout
        const uint8_t *features8 = nullptr;  // packed-quantized layout
        int16_t shapeId = 0;
        uint8_t defaultLeft = 0;
        /** Sparse/packed only; 0 in the array layout. */
        int32_t childBase = 0;

        int32_t feature(int32_t slot) const
        {
            if (features32 != nullptr)
                return features32[slot];
            if (features16 != nullptr)
                return static_cast<int32_t>(features16[slot]);
            return static_cast<int32_t>(features8[slot]);
        }
    };

    TileFields tileFields(int64_t tile) const;

    /** Model bytes (excluding the shared LUT). */
    int64_t footprintBytes() const;

    /** LUT bytes for this tile size. */
    int64_t lutBytes() const;

    /** Human-readable summary for IR dumps. */
    std::string summary() const;
};

/**
 * Bytes of a plain scalar (tile size 1, node-array) representation of
 * @p forest: the baseline for the memory-bloat comparison the paper
 * reports in Section V-B.
 */
int64_t scalarRepresentationBytes(const model::Forest &forest);

} // namespace treebeard::lir

#endif // TREEBEARD_LIR_FOREST_BUFFERS_H
