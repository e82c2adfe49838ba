#include "lir/layout_builder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <utility>

#include "common/logging.h"

namespace treebeard::lir {

namespace {

using hir::Tile;
using hir::TiledTree;
using hir::TileId;

constexpr float kInf = std::numeric_limits<float>::infinity();

/** Safety cap on total materialized tiles (array layout can bloat). */
constexpr int64_t kMaxTotalTiles = int64_t{1} << 28;

/**
 * Write the per-slot data of one internal (or dummy/hop) tile into the
 * global buffers at tile index @p global. Unpopulated slots get +inf
 * thresholds and feature 0: their comparison lanes are don't-cares.
 */
void
writeInternalTileSlots(ForestBuffers &fb, int64_t global,
                       const TiledTree &tiled, TileId id, bool is_hop)
{
    int32_t nt = fb.tileSize;
    float *thresholds = fb.thresholds.data() + global * nt;
    int32_t *features = fb.featureIndices.data() + global * nt;

    if (is_hop || tiled.tile(id).isDummy()) {
        for (int32_t s = 0; s < nt; ++s) {
            thresholds[s] = kInf;
            features[s] = 0;
        }
        fb.shapeIds[static_cast<size_t>(global)] =
            static_cast<int16_t>(fb.shapes->leftChainShapeId());
        // NaN features must still follow the deterministic child-0
        // path through dummy predicates: default every lane left.
        fb.defaultLeft[static_cast<size_t>(global)] = 0xFF;
        return;
    }

    Tile tile = tiled.tile(id);
    std::vector<int32_t> left, right;
    tiled.tileSlotLinks(id, left, right);
    fb.shapeIds[static_cast<size_t>(global)] =
        static_cast<int16_t>(fb.shapes->shapeIdOf(left, right));

    const model::DecisionTree &tree = tiled.baseTree();
    uint8_t default_bits = 0;
    for (int32_t s = 0; s < nt; ++s) {
        if (s < tile.numNodes()) {
            const model::Node &node =
                tree.node(tile.nodes()[static_cast<size_t>(s)]);
            thresholds[s] = node.threshold;
            features[s] = node.featureIndex;
            if (node.defaultLeft)
                default_bits |= static_cast<uint8_t>(1u << s);
        } else {
            thresholds[s] = kInf;
            features[s] = 0;
            // Padded don't-care lanes: NaN behaves like the +inf
            // threshold (left), keeping the lane's bit a don't-care.
            default_bits |= static_cast<uint8_t>(1u << s);
        }
    }
    fb.defaultLeft[static_cast<size_t>(global)] = default_bits;
}

/** Common header fields shared by both layout builders. */
ForestBuffers
makeHeader(const hir::HirModule &module, LayoutKind layout)
{
    const hir::Schedule &schedule = module.schedule();
    static_assert(hir::kMaxScheduleTileSize == kMaxTileSize,
                  "schedule and LIR tile-size limits diverged");

    ForestBuffers fb;
    fb.layout = layout;
    fb.tileSize = schedule.tileSize;
    fb.numTrees = module.forest().numTrees();
    fb.numFeatures = module.forest().numFeatures();
    fb.baseScore = module.forest().baseScore();
    fb.objective = module.forest().objective();
    fb.numClasses = module.forest().numClasses();
    fb.shapes = &TileShapeTable::get(schedule.tileSize);

    for (const model::DecisionTree &tree : module.forest().trees()) {
        for (const model::Node &node : tree.nodes()) {
            if (!node.isLeaf() && node.defaultLeft) {
                fb.hasDefaultLeft = true;
                break;
            }
        }
        if (fb.hasDefaultLeft)
            break;
    }

    // Class assignment follows the ORIGINAL tree index (round-robin),
    // recorded per execution position since reordering permutes trees.
    fb.treeClass.resize(static_cast<size_t>(fb.numTrees));
    for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
        fb.treeClass[static_cast<size_t>(pos)] =
            module.forest().treeClass(
                module.treeOrder()[static_cast<size_t>(pos)]);
    }

    // Per-position walk metadata from the HIR groups.
    fb.walkInfo.resize(static_cast<size_t>(fb.numTrees));
    for (const hir::TreeGroup &group : module.groups()) {
        for (int64_t pos = group.beginPos; pos < group.endPos; ++pos) {
            TreeWalkInfo &info = fb.walkInfo[static_cast<size_t>(pos)];
            info.unrolled = group.unrolledWalk;
            info.unrolledDepth = group.walkDepth;
            info.peelDepth = group.peelDepth;
        }
    }
    return fb;
}

void
growTileStorage(ForestBuffers &fb, int64_t total_tiles)
{
    fatalIf(total_tiles > kMaxTotalTiles,
            "layout would materialize ", total_tiles,
            " tiles; model too large for this layout");
    fb.thresholds.resize(static_cast<size_t>(total_tiles) * fb.tileSize);
    fb.featureIndices.resize(static_cast<size_t>(total_tiles) *
                             fb.tileSize);
    fb.shapeIds.resize(static_cast<size_t>(total_tiles));
    fb.defaultLeft.resize(static_cast<size_t>(total_tiles));
}

/**
 * Tiles and leaf-pool entries the sparse layout materializes for one
 * tree: buildSparseLayout's item walk, counted without writing, so the
 * buffers can be sized once before they are filled.
 */
std::pair<int64_t, int64_t>
sparseTreeSize(const TiledTree &tiled)
{
    if (tiled.tile(tiled.rootTile()).isLeafKind())
        return {1, 1}; // one hop tile holding the single leaf
    int64_t tiles = 0;
    int64_t leaves = 0;
    std::vector<TileId> pending{tiled.rootTile()};
    while (!pending.empty()) {
        Tile tile = tiled.tile(pending.back());
        pending.pop_back();
        ++tiles;
        if (tile.kind == Tile::Kind::kDummyInternal) {
            TileId continuation = tile.children().front();
            if (tiled.tile(continuation).isLeafKind())
                ++leaves;
            else
                pending.push_back(continuation);
            continue;
        }
        bool all_leaves = true;
        for (TileId child : tile.children())
            all_leaves = all_leaves && tiled.tile(child).isLeafKind();
        if (all_leaves) {
            leaves += static_cast<int64_t>(tile.children().size());
            continue;
        }
        for (TileId child : tile.children()) {
            if (tiled.tile(child).isLeafKind()) {
                ++tiles; // hop tile
                ++leaves;
            } else {
                pending.push_back(child);
            }
        }
    }
    return {tiles, leaves};
}

} // namespace

ForestBuffers
buildArrayLayout(const hir::HirModule &module)
{
    fatalIf(!module.isTiled() || module.groups().empty(),
            "layout lowering requires the HIR passes");
    ForestBuffers fb = makeHeader(module, LayoutKind::kArray);
    int64_t arity = fb.tileSize + 1;

    // First pass: compute each tree's implicit array size.
    std::vector<int64_t> tree_sizes;
    int64_t total_tiles = 0;
    fb.treeFirstTile.reserve(static_cast<size_t>(fb.numTrees));
    fb.treeTileEnd.reserve(static_cast<size_t>(fb.numTrees));
    for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
        const TiledTree &tiled =
            module.tiledTree(module.treeOrder()[static_cast<size_t>(pos)]);
        int32_t depth = tiled.maxLeafDepth();
        int64_t size = 0;
        int64_t level_size = 1;
        for (int32_t d = 0; d <= depth; ++d) {
            size += level_size;
            level_size *= arity;
            fatalIf(size > kMaxTotalTiles,
                    "array layout for one tree exceeds the tile cap");
        }
        tree_sizes.push_back(size);
        total_tiles += size;
        fb.treeFirstTile.push_back(total_tiles - size);
        fb.treeTileEnd.push_back(total_tiles);
    }
    growTileStorage(fb, total_tiles);
    std::fill(fb.shapeIds.begin(), fb.shapeIds.end(), kUnusedTileMarker);

    // Second pass: place tiles at their implicit positions.
    for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
        const TiledTree &tiled =
            module.tiledTree(module.treeOrder()[static_cast<size_t>(pos)]);
        int64_t base = fb.treeFirstTile[static_cast<size_t>(pos)];

        // BFS carrying each tile's local array index.
        std::queue<std::pair<TileId, int64_t>> queue;
        queue.push({tiled.rootTile(), 0});
        while (!queue.empty()) {
            auto [id, local] = queue.front();
            queue.pop();
            int64_t global = base + local;
            panicIf(global >= fb.treeTileEnd[static_cast<size_t>(pos)],
                    "array layout index escaped its tree block");
            Tile tile = tiled.tile(id);
            if (tile.isLeafKind()) {
                fb.shapeIds[static_cast<size_t>(global)] =
                    kLeafTileMarker;
                fb.thresholds[static_cast<size_t>(global) * fb.tileSize] =
                    tile.leafValue;
                continue;
            }
            writeInternalTileSlots(fb, global, tiled, id,
                                   /*is_hop=*/false);
            for (size_t c = 0; c < tile.children().size(); ++c) {
                int64_t child_local =
                    arity * local + static_cast<int64_t>(c) + 1;
                queue.push({tile.children()[c], child_local});
            }
        }
    }
    return fb;
}

ForestBuffers
buildSparseLayout(const hir::HirModule &module)
{
    fatalIf(!module.isTiled() || module.groups().empty(),
            "layout lowering requires the HIR passes");
    ForestBuffers fb = makeHeader(module, LayoutKind::kSparse);

    // Work items: real tiles, or synthetic hop tiles standing in for a
    // leaf that has non-leaf siblings (Section V-B2's "extra hop").
    struct Item
    {
        TileId id = hir::kNoTile; // kNoTile => hop
        float hopValue = 0.0f;
    };

    // Size every buffer once (the safety tail below included): grown
    // tile by tile, vector doubling would leave capacity slack that a
    // resident Session keeps for its lifetime.
    int64_t total_tiles = fb.tileSize + 1;
    int64_t total_leaves = fb.tileSize + 1;
    for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
        auto [tiles, leaves] = sparseTreeSize(module.tiledTree(
            module.treeOrder()[static_cast<size_t>(pos)]));
        total_tiles += tiles;
        total_leaves += leaves;
    }
    growTileStorage(fb, total_tiles);
    fb.childBase.resize(static_cast<size_t>(total_tiles));
    fb.leaves.reserve(static_cast<size_t>(total_leaves));
    fb.treeFirstTile.reserve(static_cast<size_t>(fb.numTrees));
    fb.treeTileEnd.reserve(static_cast<size_t>(fb.numTrees));

    int64_t base = 0;
    for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
        const TiledTree &tiled =
            module.tiledTree(module.treeOrder()[static_cast<size_t>(pos)]);
        fb.treeFirstTile.push_back(base);

        std::vector<Item> items;
        Tile root = tiled.tile(tiled.rootTile());
        if (root.isLeafKind()) {
            // Single-leaf tree: represent it as one hop tile whose
            // children are all that leaf's value.
            items.push_back({hir::kNoTile, root.leafValue});
        } else {
            items.push_back({tiled.rootTile(), 0.0f});
        }

        // Process items in index order; children are appended to the
        // item list, so each tile's children are contiguous.
        for (size_t head = 0; head < items.size(); ++head) {
            Item item = items[head];
            int64_t global = base + static_cast<int64_t>(head);
            if (item.id == hir::kNoTile) {
                // Hop tile: dummy predicates route every walk to
                // child 0, so a single leaf value suffices.
                writeInternalTileSlots(fb, global, tiled, 0,
                                       /*is_hop=*/true);
                int64_t leaf_base =
                    static_cast<int64_t>(fb.leaves.size());
                fb.leaves.push_back(item.hopValue);
                fb.childBase[static_cast<size_t>(global)] =
                    static_cast<int32_t>(-(leaf_base + 1));
                continue;
            }

            Tile tile = tiled.tile(item.id);
            panicIf(tile.isLeafKind(),
                    "leaf tile reached the sparse item queue");
            writeInternalTileSlots(fb, global, tiled, item.id,
                                   /*is_hop=*/false);

            if (tile.kind == Tile::Kind::kDummyInternal) {
                // Padding tiles also route every walk to child 0;
                // only the continuation child is materialized (the
                // dummy-leaf fillers are unreachable).
                TileId continuation = tile.children().front();
                Tile next = tiled.tile(continuation);
                if (next.isLeafKind()) {
                    int64_t leaf_base =
                        static_cast<int64_t>(fb.leaves.size());
                    fb.leaves.push_back(next.leafValue);
                    fb.childBase[static_cast<size_t>(global)] =
                        static_cast<int32_t>(-(leaf_base + 1));
                } else {
                    int64_t first_child =
                        base + static_cast<int64_t>(items.size());
                    fb.childBase[static_cast<size_t>(global)] =
                        static_cast<int32_t>(first_child);
                    items.push_back({continuation, 0.0f});
                }
                continue;
            }

            bool all_leaves = true;
            for (TileId child : tile.children()) {
                if (!tiled.tile(child).isLeafKind()) {
                    all_leaves = false;
                    break;
                }
            }

            if (all_leaves) {
                int64_t leaf_base =
                    static_cast<int64_t>(fb.leaves.size());
                for (TileId child : tile.children())
                    fb.leaves.push_back(tiled.tile(child).leafValue);
                fb.childBase[static_cast<size_t>(global)] =
                    static_cast<int32_t>(-(leaf_base + 1));
                continue;
            }

            // Mixed or internal children: all children become tiles;
            // leaf children become hops.
            int64_t first_child =
                base + static_cast<int64_t>(items.size());
            fatalIf(first_child >
                        std::numeric_limits<int32_t>::max(),
                    "sparse layout exceeds 32-bit tile indexing");
            fb.childBase[static_cast<size_t>(global)] =
                static_cast<int32_t>(first_child);
            for (TileId child : tile.children()) {
                Tile child_tile = tiled.tile(child);
                if (child_tile.isLeafKind())
                    items.push_back({hir::kNoTile, child_tile.leafValue});
                else
                    items.push_back({child, 0.0f});
            }
        }
        base += static_cast<int64_t>(items.size());
        fb.treeTileEnd.push_back(base);
    }
    panicIf(base + fb.tileSize + 1 != total_tiles ||
                static_cast<int64_t>(fb.leaves.size()) + fb.tileSize + 1 !=
                    total_leaves,
            "sparse layout sizing pass disagrees with the fill");

    // Safety tail: dummy tiles route every walk to child 0 — their
    // default-direction bits are all-left, so this holds for NaN
    // features too — and the tiles above never read their
    // unmaterialized siblings. As defense in depth against corrupted
    // buffers, append a block of self-terminating tiles and zero
    // leaves so any stray child index lands in valid storage (tile
    // indices only ever increase, so such a walk still terminates).
    {
        int64_t tail_begin = base;
        int64_t zero_base = static_cast<int64_t>(fb.leaves.size());
        for (int32_t c = 0; c <= fb.tileSize; ++c)
            fb.leaves.push_back(0.0f);
        for (int64_t tile = tail_begin; tile < fb.numTiles(); ++tile) {
            float *thresholds =
                fb.thresholds.data() + tile * fb.tileSize;
            int32_t *features =
                fb.featureIndices.data() + tile * fb.tileSize;
            for (int32_t s = 0; s < fb.tileSize; ++s) {
                thresholds[s] =
                    std::numeric_limits<float>::infinity();
                features[s] = 0;
            }
            fb.shapeIds[static_cast<size_t>(tile)] =
                static_cast<int16_t>(fb.shapes->leftChainShapeId());
            fb.defaultLeft[static_cast<size_t>(tile)] = 0xFF;
            fb.childBase[static_cast<size_t>(tile)] =
                static_cast<int32_t>(-(zero_base + 1));
        }
    }
    return fb;
}

ForestBuffers
buildPackedLayout(const hir::HirModule &module)
{
    fatalIf(module.forest().numFeatures() >= kPackedMaxFeatures,
            "packed layout narrows feature indices to int16; model has ",
            module.forest().numFeatures(), " features (limit ",
            kPackedMaxFeatures, ")");

    // Build the sparse topology first, then fuse the SoA arrays into
    // per-tile records. The repack is pure data movement, so the
    // packed layout is bit-identical to the sparse one by
    // construction; only the memory access pattern changes.
    ForestBuffers fb = buildSparseLayout(module);
    fb.layout = LayoutKind::kPacked;
    fb.packedStride = packedTileStride(fb.tileSize);
    int64_t tiles = static_cast<int64_t>(fb.shapeIds.size());
    fb.packedTileCount = tiles;
    int64_t total_bytes = tiles * fb.packedStride;
    fb.packed.assign(
        static_cast<size_t>((total_bytes + sizeof(PackedLine) - 1) /
                            sizeof(PackedLine)),
        PackedLine{});

    int32_t nt = fb.tileSize;
    for (int64_t tile = 0; tile < tiles; ++tile) {
        unsigned char *record =
            fb.packedData() + tile * fb.packedStride;
        std::memcpy(record, fb.thresholds.data() + tile * nt,
                    static_cast<size_t>(nt) * sizeof(float));
        int16_t features16[kMaxTileSize];
        const int32_t *features = fb.featureIndices.data() + tile * nt;
        for (int32_t s = 0; s < nt; ++s) {
            panicIf(features[s] >= kPackedMaxFeatures,
                    "feature index escaped the packed-layout gate");
            features16[s] = static_cast<int16_t>(features[s]);
        }
        std::memcpy(record + packedFeaturesOffset(nt), features16,
                    static_cast<size_t>(nt) * sizeof(int16_t));
        std::memcpy(record + packedShapeOffset(nt),
                    &fb.shapeIds[static_cast<size_t>(tile)],
                    sizeof(int16_t));
        record[packedDefaultLeftOffset(nt)] =
            fb.defaultLeft[static_cast<size_t>(tile)];
        std::memcpy(record + packedChildBaseOffset(nt),
                    &fb.childBase[static_cast<size_t>(tile)],
                    sizeof(int32_t));
    }

    // The SoA arrays are dead weight now; every consumer goes through
    // the records (or tileFields()).
    fb.thresholds.clear();
    fb.thresholds.shrink_to_fit();
    fb.featureIndices.clear();
    fb.featureIndices.shrink_to_fit();
    fb.shapeIds.clear();
    fb.shapeIds.shrink_to_fit();
    fb.defaultLeft.clear();
    fb.defaultLeft.shrink_to_fit();
    fb.childBase.clear();
    fb.childBase.shrink_to_fit();
    return fb;
}

namespace {

/**
 * Per-feature affine maps from the threshold ranges that actually
 * appear in @p fb 's (still-SoA) tile slots, plus the implied error
 * budgets. A feature's range [lo, hi] maps its midpoint to 0 and
 * spreads the span over ~65000 quantization steps, so every finite
 * threshold lands well inside [-32768, kQuantizedNaN - 1] and the
 * per-feature resolution is span/65000.
 */
QuantizationInfo
computeQuantization(const ForestBuffers &fb,
                    const model::Forest &forest)
{
    size_t nf = static_cast<size_t>(fb.numFeatures);
    std::vector<double> lo(nf, std::numeric_limits<double>::infinity());
    std::vector<double> hi(nf,
                           -std::numeric_limits<double>::infinity());
    for (size_t slot = 0; slot < fb.thresholds.size(); ++slot) {
        float threshold = fb.thresholds[slot];
        if (!std::isfinite(threshold))
            continue; // dummy/padding slot
        size_t feature = static_cast<size_t>(fb.featureIndices[slot]);
        lo[feature] = std::min(lo[feature],
                               static_cast<double>(threshold));
        hi[feature] = std::max(hi[feature],
                               static_cast<double>(threshold));
    }

    QuantizationInfo info;
    info.scale.resize(nf);
    info.offset.resize(nf);
    info.stepBudget.resize(nf);
    for (size_t f = 0; f < nf; ++f) {
        double scale = 1.0;
        double offset = 0.0;
        if (lo[f] <= hi[f]) {
            double span = hi[f] - lo[f];
            if (span < 1e-30) {
                // Single distinct threshold: map it to 0 exactly.
                offset = lo[f];
            } else {
                offset = (lo[f] + hi[f]) * 0.5;
                scale = 65000.0 / span;
            }
        }
        info.scale[f] = static_cast<float>(scale);
        info.offset[f] = static_cast<float>(offset);
        info.stepBudget[f] = static_cast<float>(1.0 / scale);
    }

    // maxThresholdError covers only features that appear in a record.
    for (size_t f = 0; f < nf; ++f) {
        if (lo[f] <= hi[f])
            info.maxThresholdError = std::max(info.maxThresholdError,
                                              info.stepBudget[f]);
    }

    // Worst-case prediction drift: every tree flips to its farthest
    // leaf. Loose, but sound for any input and any class.
    double budget = 0.0;
    for (const model::DecisionTree &tree : forest.trees()) {
        double leaf_lo = std::numeric_limits<double>::infinity();
        double leaf_hi = -std::numeric_limits<double>::infinity();
        for (const model::Node &node : tree.nodes()) {
            if (!node.isLeaf())
                continue;
            leaf_lo = std::min(leaf_lo,
                               static_cast<double>(node.threshold));
            leaf_hi = std::max(leaf_hi,
                               static_cast<double>(node.threshold));
        }
        if (leaf_lo <= leaf_hi)
            budget += leaf_hi - leaf_lo;
    }
    info.predictionErrorBudget = static_cast<float>(budget);
    return info;
}

} // namespace

ForestBuffers
buildPackedQuantizedLayout(const hir::HirModule &module)
{
    fatalIf(module.forest().numFeatures() >= kPackedQuantizedMaxFeatures,
            "quantized packed layout narrows feature indices to uint8; "
            "model has ",
            module.forest().numFeatures(), " features (limit ",
            kPackedQuantizedMaxFeatures, ")");

    // Build the sparse topology first (same plan as the f32 packed
    // layout), derive the affine maps from the materialized threshold
    // slots, then fuse + narrow into 32-byte records.
    ForestBuffers fb = buildSparseLayout(module);
    fb.quantization = computeQuantization(fb, module.forest());
    fb.layout = LayoutKind::kPackedQuantized;
    fb.packedStride = packedqTileStride(fb.tileSize);
    int64_t tiles = static_cast<int64_t>(fb.shapeIds.size());
    fb.packedTileCount = tiles;
    int64_t total_bytes = tiles * fb.packedStride;
    fb.packed.assign(
        static_cast<size_t>((total_bytes + sizeof(PackedLine) - 1) /
                            sizeof(PackedLine)),
        PackedLine{});

    int32_t nt = fb.tileSize;
    for (int64_t tile = 0; tile < tiles; ++tile) {
        unsigned char *record =
            fb.packedData() + tile * fb.packedStride;
        const float *thresholds = fb.thresholds.data() + tile * nt;
        const int32_t *features = fb.featureIndices.data() + tile * nt;
        int16_t qthresholds[kMaxTileSize];
        uint8_t features8[kMaxTileSize];
        for (int32_t s = 0; s < nt; ++s) {
            // +inf (dummy/padding) slots take the sentinel; finite
            // thresholds quantize with the same rounding the runtime
            // applies to row values, so the compare behaves like f32
            // against an effective threshold within stepBudget below
            // the original.
            qthresholds[s] =
                std::isinf(thresholds[s])
                    ? kQuantizedNaN
                    : fb.quantization.quantizeValue(thresholds[s],
                                                    features[s]);
            panicIf(features[s] >= kPackedQuantizedMaxFeatures,
                    "feature index escaped the quantized-layout gate");
            features8[s] = static_cast<uint8_t>(features[s]);
        }
        std::memcpy(record, qthresholds,
                    static_cast<size_t>(nt) * sizeof(int16_t));
        std::memcpy(record + packedqFeaturesOffset(nt), features8,
                    static_cast<size_t>(nt) * sizeof(uint8_t));
        std::memcpy(record + packedqShapeOffset(nt),
                    &fb.shapeIds[static_cast<size_t>(tile)],
                    sizeof(int16_t));
        record[packedqDefaultLeftOffset(nt)] =
            fb.defaultLeft[static_cast<size_t>(tile)];
        std::memcpy(record + packedqChildBaseOffset(nt),
                    &fb.childBase[static_cast<size_t>(tile)],
                    sizeof(int32_t));
    }

    fb.thresholds.clear();
    fb.thresholds.shrink_to_fit();
    fb.featureIndices.clear();
    fb.featureIndices.shrink_to_fit();
    fb.shapeIds.clear();
    fb.shapeIds.shrink_to_fit();
    fb.defaultLeft.clear();
    fb.defaultLeft.shrink_to_fit();
    fb.childBase.clear();
    fb.childBase.shrink_to_fit();
    return fb;
}

ForestBuffers
buildForestBuffers(const hir::HirModule &module)
{
    switch (module.schedule().layout) {
      case hir::MemoryLayout::kArray:
        return buildArrayLayout(module);
      case hir::MemoryLayout::kSparse:
        return buildSparseLayout(module);
      case hir::MemoryLayout::kPacked:
        if (module.forest().numFeatures() >= kPackedMaxFeatures) {
            warn("packed layout requires < ", kPackedMaxFeatures,
                 " features (model has ",
                 module.forest().numFeatures(),
                 "); falling back to the sparse layout");
            return buildSparseLayout(module);
        }
        if (module.schedule().packedPrecision ==
            hir::PackedPrecision::kI16) {
            if (module.forest().numFeatures() >=
                kPackedQuantizedMaxFeatures) {
                warn("quantized packed layout requires < ",
                     kPackedQuantizedMaxFeatures,
                     " features (model has ",
                     module.forest().numFeatures(),
                     "); falling back to f32 packed records");
                return buildPackedLayout(module);
            }
            return buildPackedQuantizedLayout(module);
        }
        return buildPackedLayout(module);
    }
    panic("unknown memory layout");
}

} // namespace treebeard::lir
