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

#include "lir/buffer_format.h"
#include "lir/tile_shape.h"
#include "model/forest.h"

namespace treebeard::lir {

const char *layoutKindName(LayoutKind kind);

/** 64-byte-aligned backing unit for the packed record buffer. */
struct alignas(64) PackedLine
{
    unsigned char bytes[64];
};

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
     * [INT16_MIN, kQuantizedNaN - 1].
     */
    int16_t quantizeValue(float value, int32_t feature) const
    {
        return lir::quantizeValue(value,
                                  offset[static_cast<size_t>(feature)],
                                  scale[static_cast<size_t>(feature)]);
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
