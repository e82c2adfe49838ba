#include "analysis/verifier.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "model/verifier.h"

namespace treebeard::analysis {

namespace {

using hir::Tile;
using hir::TiledTree;
using hir::TileId;
using lir::ForestBuffers;
using lir::TileShape;
using lir::TileShapeTable;

std::string
str(int64_t value)
{
    return std::to_string(value);
}

// ---------------------------------------------------------------------
// HIR
// ---------------------------------------------------------------------

int32_t
slotOf(std::span<const model::NodeIndex> nodes, model::NodeIndex node)
{
    for (size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i] == node)
            return static_cast<int32_t>(i);
    }
    return -1;
}

/**
 * Exit ordinal of the edge leaving @p target_slot on @p target_side
 * (0 = left) in a tile with in-tile links @p left / @p right: exit
 * edges are numbered left-to-right by depth-first traversal, matching
 * the tile-shape LUT convention.
 */
int32_t
exitOrdinalOf(const std::vector<int32_t> &left,
              const std::vector<int32_t> &right, int32_t slot,
              int32_t target_slot, int32_t target_side,
              int32_t &ordinal)
{
    for (int32_t side = 0; side < 2; ++side) {
        int32_t link = side == 0 ? left[static_cast<size_t>(slot)]
                                 : right[static_cast<size_t>(slot)];
        if (link < 0) {
            if (slot == target_slot && side == target_side)
                return ordinal;
            ++ordinal;
        } else {
            int32_t found = exitOrdinalOf(left, right, link,
                                          target_slot, target_side,
                                          ordinal);
            if (found >= 0)
                return found;
        }
    }
    return -1;
}

void
verifyInternalTile(const TiledTree &tiled, TileId id, int64_t tree_id,
                   const std::vector<model::NodeIndex> &parents,
                   DiagnosticEngine &diag)
{
    const model::DecisionTree &tree = tiled.baseTree();
    Tile t = tiled.tile(id);

    if (t.numNodes() < 1 || t.numNodes() > tiled.tileSize()) {
        diag.error(IrLevel::kHir, "hir.tiling.arity",
                   "tile has " + str(t.numNodes()) +
                       " nodes (tile size " +
                       str(tiled.tileSize()) + ")")
            .atTree(tree_id)
            .atTile(id);
        return;
    }
    bool leaves_inside = false;
    for (model::NodeIndex node : t.nodes()) {
        if (tree.node(node).isLeaf()) {
            diag.error(IrLevel::kHir, "hir.tiling.leaf-separation",
                       "internal tile contains leaf node " + str(node))
                .atTree(tree_id)
                .atTile(id);
            leaves_inside = true;
        }
    }
    if (leaves_inside)
        return;

    // Connectedness: every non-slot-0 node's base parent is in the
    // tile, and slot 0's parent is outside (slot 0 is the tile root).
    bool connected = true;
    for (size_t i = 1; i < t.nodes().size(); ++i) {
        model::NodeIndex parent =
            parents[static_cast<size_t>(t.nodes()[i])];
        if (parent == model::kInvalidNode ||
            slotOf(t.nodes(), parent) < 0) {
            diag.error(IrLevel::kHir, "hir.tiling.connectedness",
                       "tile is not connected: node " +
                           str(t.nodes()[i]) +
                           "'s parent is outside the tile")
                .atTree(tree_id)
                .atTile(id)
                .atSlot(static_cast<int32_t>(i));
            connected = false;
        }
    }
    model::NodeIndex root_parent =
        parents[static_cast<size_t>(t.nodes()[0])];
    if (root_parent != model::kInvalidNode &&
        slotOf(t.nodes(), root_parent) >= 0) {
        diag.error(IrLevel::kHir, "hir.tiling.connectedness",
                   "slot 0 is not the tile root")
            .atTree(tree_id)
            .atTile(id);
        connected = false;
    }
    if (!connected)
        return;

    std::vector<int32_t> left;
    std::vector<int32_t> right;
    tiled.tileSlotLinks(id, left, right);

    // Slot order must be level order (BFS) over the in-tile links: the
    // SIMD lanes and the shape LUT both assume it.
    std::vector<int32_t> bfs{0};
    for (size_t head = 0; head < bfs.size(); ++head) {
        int32_t slot = bfs[head];
        if (left[static_cast<size_t>(slot)] >= 0)
            bfs.push_back(left[static_cast<size_t>(slot)]);
        if (right[static_cast<size_t>(slot)] >= 0)
            bfs.push_back(right[static_cast<size_t>(slot)]);
    }
    if (bfs.size() != t.nodes().size()) {
        diag.error(IrLevel::kHir, "hir.tiling.connectedness",
                   "in-tile links are not connected")
            .atTree(tree_id)
            .atTile(id);
        return;
    }
    for (size_t i = 0; i < bfs.size(); ++i) {
        if (bfs[i] != static_cast<int32_t>(i)) {
            diag.error(IrLevel::kHir, "hir.tiling.level-order",
                       "tile nodes are not in level order")
                .atTree(tree_id)
                .atTile(id)
                .atSlot(static_cast<int32_t>(i));
            return;
        }
    }

    int32_t exits = 0;
    for (size_t i = 0; i < t.nodes().size(); ++i) {
        exits += (left[i] < 0 ? 1 : 0) + (right[i] < 0 ? 1 : 0);
    }
    if (static_cast<int32_t>(t.children().size()) != exits) {
        diag.error(IrLevel::kHir, "hir.tiling.arity",
                   "tile has " + str(t.children().size()) +
                       " children but " + str(exits) + " exit edges")
            .atTree(tree_id)
            .atTile(id);
        return;
    }

    // Exit ordering and child parent links: exit k's base-tree target
    // must be the root node of children[k].
    for (size_t i = 0; i < t.nodes().size(); ++i) {
        const model::Node &node = tree.node(t.nodes()[i]);
        for (int32_t side = 0; side < 2; ++side) {
            int32_t link = side == 0 ? left[i] : right[i];
            if (link >= 0)
                continue;
            model::NodeIndex target =
                side == 0 ? node.left : node.right;
            int32_t ordinal = 0;
            int32_t exit = exitOrdinalOf(left, right, 0,
                                         static_cast<int32_t>(i),
                                         side, ordinal);
            TileId child = t.children()[static_cast<size_t>(exit)];
            if (child < 0 || child >= tiled.numTiles()) {
                diag.error(IrLevel::kHir, "hir.tiling.parent-link",
                           "exit " + str(exit) +
                               " points at tile " + str(child) +
                               " outside the tree")
                    .atTree(tree_id)
                    .atTile(id);
                continue;
            }
            Tile child_tile = tiled.tile(child);
            if (child_tile.parent != id) {
                diag.error(IrLevel::kHir, "hir.tiling.parent-link",
                           "tile " + str(child) +
                               " has a wrong parent link")
                    .atTree(tree_id)
                    .atTile(child);
            }
            if (!child_tile.isDummy() &&
                (child_tile.nodes().empty() ||
                 child_tile.nodes().front() != target)) {
                diag.error(IrLevel::kHir, "hir.tiling.exit-order",
                           "exit " + str(exit) +
                               " does not lead to base node " +
                               str(target))
                    .atTree(tree_id)
                    .atTile(id);
            }
        }
    }

    // Maximal tiling: an under-full tile may only border leaves (or
    // padding above leaves).
    if (t.numNodes() < tiled.tileSize()) {
        for (TileId child : t.children()) {
            if (child < 0 || child >= tiled.numTiles())
                continue;
            if (tiled.tile(child).kind == Tile::Kind::kInternal) {
                diag.error(IrLevel::kHir, "hir.tiling.maximal",
                           "tile has " + str(t.numNodes()) +
                               " nodes yet borders internal tile " +
                               str(child))
                    .atTree(tree_id)
                    .atTile(id);
            }
        }
    }
}

/**
 * Verify one tiled tree. Returns true when every tile's parent link
 * is in range and acyclic — only then may callers trust the tree's
 * depths (tileDepth walks parent chains and would not terminate on a
 * cycle; leaf depths follow child links, which a broken parent link
 * says are suspect too).
 */
bool
verifyTiledTree(const TiledTree &tiled, int64_t tree_id,
                DiagnosticEngine &diag)
{
    const model::DecisionTree &tree = tiled.baseTree();

    // Parent links must stay in range and form a forest (no cycles);
    // everything downstream that walks parent chains depends on it.
    bool parents_ok = true;
    for (TileId id = 0; id < tiled.numTiles() && parents_ok; ++id) {
        int32_t steps = 0;
        TileId current = id;
        while (current != hir::kNoTile) {
            TileId parent = tiled.tile(current).parent;
            if (parent != hir::kNoTile &&
                (parent < 0 || parent >= tiled.numTiles())) {
                diag.error(IrLevel::kHir, "hir.tiling.parent-link",
                           "parent link " + str(parent) +
                               " is outside the tile range")
                    .atTree(tree_id)
                    .atTile(current);
                parents_ok = false;
                break;
            }
            if (++steps > tiled.numTiles()) {
                diag.error(IrLevel::kHir, "hir.tiling.parent-link",
                           "parent links form a cycle")
                    .atTree(tree_id)
                    .atTile(id);
                parents_ok = false;
                break;
            }
            current = parent;
        }
    }
    if (!parents_ok)
        return false;

    // Partitioning: every base node appears in exactly one tile.
    std::vector<TileId> owner(static_cast<size_t>(tree.numNodes()),
                              hir::kNoTile);
    int64_t covered = 0;
    std::vector<char> tile_ok(static_cast<size_t>(tiled.numTiles()),
                              1);
    for (TileId id = 0; id < tiled.numTiles(); ++id) {
        Tile t = tiled.tile(id);
        for (model::NodeIndex node : t.nodes()) {
            if (node < 0 || node >= tree.numNodes()) {
                diag.error(IrLevel::kHir, "hir.tiling.node-range",
                           "tile references node " + str(node) +
                               " outside the base tree")
                    .atTree(tree_id)
                    .atTile(id);
                tile_ok[static_cast<size_t>(id)] = 0;
                continue;
            }
            if (owner[static_cast<size_t>(node)] != hir::kNoTile) {
                diag.error(IrLevel::kHir, "hir.tiling.partition",
                           "node " + str(node) +
                               " appears in more than one tile")
                    .atTree(tree_id)
                    .atTile(id);
            } else {
                owner[static_cast<size_t>(node)] = id;
                ++covered;
            }
        }
        if (t.isDummy() && !t.nodes().empty()) {
            diag.error(IrLevel::kHir, "hir.tiling.partition",
                       "dummy tile holds base nodes")
                .atTree(tree_id)
                .atTile(id);
            tile_ok[static_cast<size_t>(id)] = 0;
        }
    }
    if (covered != tree.numNodes()) {
        diag.error(IrLevel::kHir, "hir.tiling.partition",
                   "tiling covers " + str(covered) + " of " +
                       str(tree.numNodes()) + " base nodes")
            .atTree(tree_id);
    }

    std::vector<model::NodeIndex> parents = tree.parentArray();
    for (TileId id = 0; id < tiled.numTiles(); ++id) {
        if (!tile_ok[static_cast<size_t>(id)])
            continue;
        Tile t = tiled.tile(id);
        switch (t.kind) {
          case Tile::Kind::kLeaf:
            if (t.numNodes() != 1 ||
                !tree.node(t.nodes().front()).isLeaf()) {
                diag.error(IrLevel::kHir,
                           "hir.tiling.leaf-separation",
                           "leaf tile must hold exactly one base leaf")
                    .atTree(tree_id)
                    .atTile(id);
                break;
            }
            if (!t.children().empty()) {
                diag.error(IrLevel::kHir, "hir.tiling.arity",
                           "leaf tile has children")
                    .atTree(tree_id)
                    .atTile(id);
            }
            if (t.leafValue != tree.node(t.nodes().front()).threshold) {
                diag.error(IrLevel::kHir, "hir.tiling.stale-leaf",
                           "leaf tile caches a stale value")
                    .atTree(tree_id)
                    .atTile(id);
            }
            break;
          case Tile::Kind::kDummyLeaf:
            if (!t.children().empty()) {
                diag.error(IrLevel::kHir, "hir.tiling.arity",
                           "dummy leaf has children")
                    .atTree(tree_id)
                    .atTile(id);
            }
            break;
          case Tile::Kind::kDummyInternal:
            if (static_cast<int32_t>(t.children().size()) !=
                tiled.tileSize() + 1) {
                diag.error(IrLevel::kHir, "hir.tiling.arity",
                           "dummy tile has wrong arity")
                    .atTree(tree_id)
                    .atTile(id);
            }
            break;
          case Tile::Kind::kInternal:
            verifyInternalTile(tiled, id, tree_id, parents, diag);
            break;
        }
    }

    if (tiled.numTiles() > 0 &&
        tiled.tile(tiled.rootTile()).parent != hir::kNoTile) {
        diag.error(IrLevel::kHir, "hir.tiling.parent-link",
                   "root tile has a parent")
            .atTree(tree_id)
            .atTile(tiled.rootTile());
    }
    return true;
}

// ---------------------------------------------------------------------
// LIR
// ---------------------------------------------------------------------

/** Outcome of checking one tile record's value fields. */
struct TileRecordCheck
{
    /** Shape id was valid; the fields below are meaningful. */
    bool ok = false;
    /**
     * A dummy/hop/tail tile: left-chain shape with all-+inf
     * thresholds, so every walk (NaN included, via the all-left
     * default bits) exits at child 0 and only child 0 exists.
     */
    bool deterministic = false;
    /** Children the walk can reach (1 for deterministic tiles). */
    int32_t numChildren = 0;
};

TileRecordCheck
checkTileRecord(const ForestBuffers &buffers, int64_t tile,
                int64_t tree_id, DiagnosticEngine &diag)
{
    const TileShapeTable &shapes = *buffers.shapes;
    ForestBuffers::TileFields fields = buffers.tileFields(tile);
    TileRecordCheck result;
    if (fields.shapeId < 0 || fields.shapeId >= shapes.numShapes()) {
        diag.error(IrLevel::kLir, "lir.shape-id.range",
                   "shape id " + str(fields.shapeId) +
                       " out of range [0, " +
                       str(shapes.numShapes()) + ")")
            .atTree(tree_id)
            .atTile(tile);
        return result;
    }
    result.ok = true;
    const TileShape &shape = shapes.shape(fields.shapeId);
    constexpr float inf = std::numeric_limits<float>::infinity();
    bool quantized =
        buffers.layout == lir::LayoutKind::kPackedQuantized;

    // In the quantized layout +inf narrows to the kQuantizedNaN
    // sentinel (no quantized row value ever compares less than it).
    bool all_inf = true;
    for (int32_t slot = 0; slot < buffers.tileSize; ++slot) {
        all_inf =
            all_inf &&
            (quantized ? fields.qthresholds[slot] == lir::kQuantizedNaN
                       : fields.thresholds[slot] == inf);
    }
    result.deterministic =
        all_inf && fields.shapeId == shapes.leftChainShapeId();

    uint32_t lane_mask = (1u << buffers.tileSize) - 1;
    if (result.deterministic) {
        // Sentinel invariant: a deterministic tile must route NaN
        // lanes left too, or a missing value could reach one of its
        // unmaterialized siblings.
        if ((fields.defaultLeft & lane_mask) != lane_mask) {
            diag.error(IrLevel::kLir, "lir.sentinel.default-left",
                       "deterministic (+inf) tile without all-left "
                       "default bits")
                .atTree(tree_id)
                .atTile(tile);
        }
        result.numChildren = 1;
        return result;
    }

    // Populated slots (level-order slots [0, numNodes)) hold real
    // predicates: thresholds finite, features in range. Slots past
    // numNodes are LUT don't-cares.
    for (int32_t slot = 0; slot < shape.numNodes(); ++slot) {
        if (quantized) {
            // A populated predicate must hold a representable int16
            // threshold, never the NaN/+inf sentinel.
            if (fields.qthresholds[slot] == lir::kQuantizedNaN) {
                diag.error(IrLevel::kLir, "lir.packedq.threshold",
                           "quantized NaN/+inf sentinel in a populated "
                           "slot of a non-dummy tile")
                    .atTree(tree_id)
                    .atTile(tile)
                    .atSlot(slot);
            }
        } else if (!std::isfinite(fields.thresholds[slot])) {
            diag.error(IrLevel::kLir, "lir.threshold.invalid",
                       "non-finite threshold in a populated slot of a "
                       "non-dummy tile")
                .atTree(tree_id)
                .atTile(tile)
                .atSlot(slot);
        }
        int32_t feature = fields.feature(slot);
        if (feature < 0 || feature >= buffers.numFeatures) {
            diag.error(IrLevel::kLir, "lir.feature.range",
                       "feature index " + str(feature) +
                           " out of range [0, " +
                           str(buffers.numFeatures) + ")")
                .atTree(tree_id)
                .atTile(tile)
                .atSlot(slot);
        }
    }
    result.numChildren = shape.numChildren();
    return result;
}

void
verifySparseTree(const ForestBuffers &buffers, int64_t tree_id,
                 int64_t first, int64_t end, DiagnosticEngine &diag)
{
    int64_t block = end - first;
    std::vector<int32_t> claims(static_cast<size_t>(block), 0);
    bool topology_intact = true;

    for (int64_t tile = first; tile < end; ++tile) {
        TileRecordCheck check =
            checkTileRecord(buffers, tile, tree_id, diag);
        if (!check.ok) {
            topology_intact = false;
            continue;
        }
        int32_t child_base = buffers.tileFields(tile).childBase;
        if (child_base >= 0) {
            // Termination: child indices strictly increase, so every
            // walk reaches a leaf range in finitely many steps.
            if (child_base <= tile) {
                diag.error(IrLevel::kLir, "lir.child-base.backward",
                           "childBase " + str(child_base) +
                               " does not advance past tile " +
                               str(tile) +
                               " (walk may not terminate)")
                    .atTree(tree_id)
                    .atTile(tile);
                topology_intact = false;
            } else if (child_base + check.numChildren > end) {
                diag.error(IrLevel::kLir, "lir.child-base.oob",
                           "children [" + str(child_base) + ", " +
                               str(child_base + check.numChildren) +
                               ") fall outside tree block [" +
                               str(first) + ", " + str(end) + ")")
                    .atTree(tree_id)
                    .atTile(tile);
                topology_intact = false;
            } else {
                for (int32_t c = 0; c < check.numChildren; ++c)
                    ++claims[static_cast<size_t>(child_base - first +
                                                 c)];
            }
        } else {
            int64_t leaf_base =
                -(static_cast<int64_t>(child_base) + 1);
            if (leaf_base + check.numChildren >
                static_cast<int64_t>(buffers.leaves.size())) {
                diag.error(IrLevel::kLir, "lir.leaf-range.oob",
                           "leaf range [" + str(leaf_base) + ", " +
                               str(leaf_base + check.numChildren) +
                               ") exceeds the leaf pool (" +
                               str(static_cast<int64_t>(
                                   buffers.leaves.size())) +
                               " entries)")
                    .atTree(tree_id)
                    .atTile(tile);
            }
        }
    }

    // With all child links proven in range, the block must form a
    // tree: every non-root tile claimed by exactly one parent.
    if (!topology_intact)
        return;
    if (block > 0 && claims[0] > 0) {
        diag.error(IrLevel::kLir, "lir.topology.shared",
                   "tree root tile has a parent")
            .atTree(tree_id)
            .atTile(first);
    }
    for (int64_t i = 1; i < block; ++i) {
        if (claims[static_cast<size_t>(i)] == 0) {
            diag.error(IrLevel::kLir, "lir.topology.orphan",
                       "tile is unreachable (no parent in the block)")
                .atTree(tree_id)
                .atTile(first + i);
        } else if (claims[static_cast<size_t>(i)] > 1) {
            diag.error(IrLevel::kLir, "lir.topology.shared",
                       "tile has multiple parents")
                .atTree(tree_id)
                .atTile(first + i);
        }
    }
}

void
verifySafetyTail(const ForestBuffers &buffers, int64_t tail_begin,
                 DiagnosticEngine &diag)
{
    constexpr float inf = std::numeric_limits<float>::infinity();
    const TileShapeTable &shapes = *buffers.shapes;
    int64_t num_tiles = buffers.numTiles();
    if (num_tiles - tail_begin < buffers.tileSize + 1) {
        diag.error(IrLevel::kLir, "lir.tail.broken",
                   "safety tail has " + str(num_tiles - tail_begin) +
                       " tiles; expected at least " +
                       str(buffers.tileSize + 1));
        return;
    }
    bool quantized =
        buffers.layout == lir::LayoutKind::kPackedQuantized;
    uint32_t lane_mask = (1u << buffers.tileSize) - 1;
    for (int64_t tile = tail_begin; tile < num_tiles; ++tile) {
        ForestBuffers::TileFields fields = buffers.tileFields(tile);
        bool all_inf = true;
        for (int32_t slot = 0; slot < buffers.tileSize; ++slot) {
            all_inf = all_inf &&
                      (quantized ? fields.qthresholds[slot] ==
                                       lir::kQuantizedNaN
                                 : fields.thresholds[slot] == inf);
        }
        if (!all_inf ||
            fields.shapeId != shapes.leftChainShapeId()) {
            diag.error(IrLevel::kLir, "lir.tail.broken",
                       "safety-tail tile is not a deterministic +inf "
                       "left-chain tile")
                .atTile(tile);
            continue;
        }
        if ((fields.defaultLeft & lane_mask) != lane_mask) {
            diag.error(IrLevel::kLir, "lir.sentinel.default-left",
                       "safety-tail tile without all-left default "
                       "bits")
                .atTile(tile);
        }
        if (fields.childBase >= 0) {
            diag.error(IrLevel::kLir, "lir.tail.broken",
                       "safety-tail tile is not self-terminating "
                       "(childBase points at tiles)")
                .atTile(tile);
            continue;
        }
        int64_t leaf_base =
            -(static_cast<int64_t>(fields.childBase) + 1);
        if (leaf_base + 1 >
            static_cast<int64_t>(buffers.leaves.size())) {
            diag.error(IrLevel::kLir, "lir.tail.broken",
                       "safety-tail tile's leaf offset is out of "
                       "bounds")
                .atTile(tile);
        }
    }
}

void
verifyArrayTree(const ForestBuffers &buffers, int64_t tree_id,
                int64_t first, int64_t end, DiagnosticEngine &diag)
{
    int64_t arity = buffers.tileSize + 1;
    // BFS over tiles a walk can actually reach; the implicit-array
    // child formula visits each local index through at most one
    // parent, so no visited set is needed.
    std::vector<int64_t> queue{0};
    for (size_t head = 0; head < queue.size(); ++head) {
        int64_t local = queue[head];
        int64_t tile = first + local;
        int16_t shape_id =
            buffers.shapeIds[static_cast<size_t>(tile)];
        if (shape_id == lir::kLeafTileMarker) {
            float value =
                buffers
                    .thresholds[static_cast<size_t>(tile) *
                                static_cast<size_t>(buffers.tileSize)];
            if (!std::isfinite(value)) {
                diag.error(IrLevel::kLir, "lir.leaf.non-finite",
                           "leaf tile carries a non-finite value")
                    .atTree(tree_id)
                    .atTile(tile);
            }
            continue;
        }
        if (shape_id == lir::kUnusedTileMarker) {
            diag.error(IrLevel::kLir, "lir.array.reached-unused",
                       "walk can reach a tile marked unused")
                .atTree(tree_id)
                .atTile(tile);
            continue;
        }
        TileRecordCheck check =
            checkTileRecord(buffers, tile, tree_id, diag);
        if (!check.ok)
            continue;
        for (int32_t c = 0; c < check.numChildren; ++c) {
            int64_t child = arity * local + c + 1;
            if (first + child >= end) {
                diag.error(IrLevel::kLir, "lir.array.child.oob",
                           "child " + str(c) +
                               " falls outside tree block [" +
                               str(first) + ", " + str(end) + ")")
                    .atTree(tree_id)
                    .atTile(tile);
            } else {
                queue.push_back(child);
            }
        }
    }
}

/** Shared header checks; false means per-tile analysis cannot run. */
bool
verifyLirHeader(const ForestBuffers &buffers, DiagnosticEngine &diag)
{
    int64_t num_trees = buffers.numTrees;
    bool ok = true;

    if (static_cast<int64_t>(buffers.treeFirstTile.size()) !=
            num_trees ||
        static_cast<int64_t>(buffers.treeTileEnd.size()) !=
            num_trees) {
        diag.error(IrLevel::kLir, "lir.tree-table.shape",
                   "tree tile tables have " +
                       str(static_cast<int64_t>(
                           buffers.treeFirstTile.size())) +
                       "/" +
                       str(static_cast<int64_t>(
                           buffers.treeTileEnd.size())) +
                       " entries for " + str(num_trees) + " trees");
        ok = false;
    }

    if (buffers.numClasses < 1 ||
        static_cast<int64_t>(buffers.treeClass.size()) != num_trees) {
        diag.error(IrLevel::kLir, "lir.tree-class.range",
                   "per-tree class table is missing or numClasses < "
                   "1");
    } else {
        for (int64_t t = 0; t < num_trees; ++t) {
            int32_t cls = buffers.treeClass[static_cast<size_t>(t)];
            if (cls < 0 || cls >= buffers.numClasses) {
                diag.error(IrLevel::kLir, "lir.tree-class.range",
                           "tree class " + str(cls) +
                               " out of range [0, " +
                               str(buffers.numClasses) + ")")
                    .atTree(t);
            }
        }
    }

    if (static_cast<int64_t>(buffers.walkInfo.size()) != num_trees) {
        diag.error(IrLevel::kLir, "lir.walk-info.shape",
                   "walkInfo has " +
                       str(static_cast<int64_t>(
                           buffers.walkInfo.size())) +
                       " entries for " + str(num_trees) + " trees");
    } else {
        for (int64_t t = 0; t < num_trees; ++t) {
            const lir::TreeWalkInfo &info =
                buffers.walkInfo[static_cast<size_t>(t)];
            if (info.peelDepth < 0 || info.unrolledDepth < 0 ||
                (info.unrolled && info.unrolledDepth < 1)) {
                diag.error(IrLevel::kLir, "lir.walk-info.shape",
                           "inconsistent unroll/peel depths")
                    .atTree(t);
            }
        }
    }

    int64_t num_tiles = buffers.numTiles();
    if (buffers.layout == lir::LayoutKind::kPacked) {
        if (buffers.packedStride !=
            lir::packedTileStride(buffers.tileSize)) {
            diag.error(IrLevel::kLir, "lir.packed.stride",
                       "packed stride " + str(buffers.packedStride) +
                           " does not match tile size " +
                           str(buffers.tileSize) + " (expected " +
                           str(lir::packedTileStride(
                               buffers.tileSize)) +
                           ")");
            ok = false;
        } else if (64 % buffers.packedStride != 0) {
            // Unreachable while the stride matches (strides are
            // powers of two <= 64), but states the cache-line
            // invariant the kernels rely on.
            diag.error(IrLevel::kLir, "lir.packed.alignment",
                       "packed records straddle cache lines (stride " +
                           str(buffers.packedStride) + ")");
            ok = false;
        }
        if (ok &&
            num_tiles * buffers.packedStride >
                static_cast<int64_t>(buffers.packed.size()) * 64) {
            diag.error(IrLevel::kLir, "lir.packed.buffer-size",
                       str(num_tiles) + " records of " +
                           str(buffers.packedStride) +
                           " bytes exceed the packed buffer (" +
                           str(static_cast<int64_t>(
                                   buffers.packed.size()) *
                               64) +
                           " bytes)");
            ok = false;
        }
        if (buffers.numFeatures >= lir::kPackedMaxFeatures) {
            diag.error(IrLevel::kLir, "lir.packed.features",
                       "feature indices do not fit int16 (" +
                           str(buffers.numFeatures) + " features >= " +
                           str(lir::kPackedMaxFeatures) + ")");
            ok = false;
        }
    } else if (buffers.layout == lir::LayoutKind::kPackedQuantized) {
        int32_t expected =
            lir::packedqTileStride(buffers.tileSize);
        if (buffers.packedStride != expected) {
            diag.error(IrLevel::kLir, "lir.packedq.stride",
                       "quantized packed stride " +
                           str(buffers.packedStride) +
                           " does not match tile size " +
                           str(buffers.tileSize) + " (expected " +
                           str(expected) + ")");
            ok = false;
        } else if (64 % buffers.packedStride != 0 ||
                   (buffers.tileSize == 8 &&
                    buffers.packedStride != 32)) {
            // Unreachable while the stride matches (packedqTileStride
            // yields powers of two and exactly 32 for tile size 8),
            // but states the two-records-per-cache-line contract the
            // pipelined walkers rely on.
            diag.error(IrLevel::kLir, "lir.packedq.stride",
                       "quantized records are not cache-line packed "
                       "(stride " +
                           str(buffers.packedStride) + ")");
            ok = false;
        }
        if (ok &&
            num_tiles * buffers.packedStride >
                static_cast<int64_t>(buffers.packed.size()) * 64) {
            diag.error(IrLevel::kLir, "lir.packedq.stride",
                       str(num_tiles) + " records of " +
                           str(buffers.packedStride) +
                           " bytes exceed the packed buffer (" +
                           str(static_cast<int64_t>(
                                   buffers.packed.size()) *
                               64) +
                           " bytes)");
            ok = false;
        }
        if (buffers.numFeatures >=
            lir::kPackedQuantizedMaxFeatures) {
            diag.error(IrLevel::kLir, "lir.packedq.features",
                       "feature indices do not fit uint8 (" +
                           str(buffers.numFeatures) + " features >= " +
                           str(lir::kPackedQuantizedMaxFeatures) +
                           ")");
            ok = false;
        }
        const lir::QuantizationInfo &q = buffers.quantization;
        size_t nf = static_cast<size_t>(buffers.numFeatures);
        if (q.scale.size() != nf || q.offset.size() != nf ||
            q.stepBudget.size() != nf) {
            diag.error(IrLevel::kLir, "lir.packedq.scale",
                       "quantization metadata is not sized to the "
                       "feature count (" +
                           str(static_cast<int64_t>(q.scale.size())) +
                           "/" +
                           str(static_cast<int64_t>(q.offset.size())) +
                           "/" +
                           str(static_cast<int64_t>(
                               q.stepBudget.size())) +
                           " entries for " + str(buffers.numFeatures) +
                           " features)");
            ok = false;
        } else {
            for (size_t f = 0; f < nf; ++f) {
                if (!std::isfinite(q.scale[f]) || q.scale[f] <= 0.0f ||
                    !std::isfinite(q.offset[f])) {
                    diag.error(IrLevel::kLir, "lir.packedq.scale",
                               "feature " +
                                   str(static_cast<int64_t>(f)) +
                                   " has a non-finite or non-positive "
                                   "affine map");
                    ok = false;
                    break;
                }
                float step_scale = q.stepBudget[f] * q.scale[f];
                if (!std::isfinite(q.stepBudget[f]) ||
                    q.stepBudget[f] <= 0.0f || step_scale < 0.99f ||
                    step_scale > 1.01f) {
                    diag.error(IrLevel::kLir, "lir.packedq.budget",
                               "feature " +
                                   str(static_cast<int64_t>(f)) +
                                   " declares step budget " +
                                   str(q.stepBudget[f]) +
                                   " inconsistent with scale " +
                                   str(q.scale[f]));
                    break;
                }
            }
        }
        if (!std::isfinite(q.maxThresholdError) ||
            q.maxThresholdError < 0.0f ||
            !std::isfinite(q.predictionErrorBudget) ||
            q.predictionErrorBudget < 0.0f) {
            diag.error(IrLevel::kLir, "lir.packedq.budget",
                       "worst-case error budgets are non-finite or "
                       "negative");
        } else if (ok && q.stepBudget.size() == nf) {
            // Every threshold actually materialized in a record must
            // round within the declared budget: its feature's step
            // fits under maxThresholdError.
            for (int64_t tile = 0; tile < num_tiles; ++tile) {
                ForestBuffers::TileFields fields =
                    buffers.tileFields(tile);
                bool over = false;
                for (int32_t slot = 0; slot < buffers.tileSize;
                     ++slot) {
                    if (fields.qthresholds[slot] ==
                        lir::kQuantizedNaN)
                        continue; // dummy/padding slot
                    int32_t feature = fields.feature(slot);
                    if (feature < 0 ||
                        feature >= buffers.numFeatures)
                        continue; // lir.feature.range reports this
                    if (q.stepBudget[static_cast<size_t>(feature)] >
                        q.maxThresholdError) {
                        diag.error(
                                IrLevel::kLir, "lir.packedq.budget",
                                "record threshold for feature " +
                                    str(feature) +
                                    " rounds coarser than the "
                                    "declared max threshold error")
                            .atTile(tile)
                            .atSlot(slot);
                        over = true;
                        break;
                    }
                }
                if (over)
                    break;
            }
        }
    } else {
        size_t slots = static_cast<size_t>(num_tiles) *
                       static_cast<size_t>(buffers.tileSize);
        bool shape_ok =
            buffers.thresholds.size() == slots &&
            buffers.featureIndices.size() == slots &&
            buffers.defaultLeft.size() ==
                static_cast<size_t>(num_tiles) &&
            (buffers.layout != lir::LayoutKind::kSparse ||
             buffers.childBase.size() ==
                 static_cast<size_t>(num_tiles));
        if (!shape_ok) {
            diag.error(IrLevel::kLir, "lir.buffer.shape",
                       "per-tile buffers disagree about the tile "
                       "count");
            ok = false;
        }
    }
    return ok;
}

} // namespace

void
verifyForest(const model::Forest &forest, DiagnosticEngine &diag)
{
    model::verifyForest(forest, diag);
}

void
verifySchedule(const hir::Schedule &schedule, DiagnosticEngine &diag)
{
    schedule.verifyInto(diag);
}

void
verifyHir(const hir::HirModule &module, DiagnosticEngine &diag)
{
    int64_t num_trees = module.forest().numTrees();
    if (!module.isTiled() ||
        static_cast<int64_t>(module.tiledTrees().size()) !=
            num_trees) {
        diag.error(IrLevel::kHir, "hir.tiling.not-run",
                   "tiling pass has not run (or tiled " +
                       str(static_cast<int64_t>(
                           module.tiledTrees().size())) +
                       " of " + str(num_trees) + " trees)");
        return;
    }

    std::vector<char> depth_safe(static_cast<size_t>(num_trees), 1);
    for (int64_t tree = 0; tree < num_trees; ++tree) {
        if (!verifyTiledTree(module.tiledTree(tree), tree, diag))
            depth_safe[static_cast<size_t>(tree)] = 0;
    }

    // Tree order must be a permutation of [0, numTrees).
    const std::vector<int64_t> &order = module.treeOrder();
    bool order_ok =
        static_cast<int64_t>(order.size()) == num_trees;
    if (order_ok) {
        std::vector<char> seen(static_cast<size_t>(num_trees), 0);
        for (int64_t position = 0; position < num_trees; ++position) {
            int64_t tree = order[static_cast<size_t>(position)];
            if (tree < 0 || tree >= num_trees ||
                seen[static_cast<size_t>(tree)]) {
                order_ok = false;
                break;
            }
            seen[static_cast<size_t>(tree)] = 1;
        }
    }
    if (!order_ok) {
        diag.error(IrLevel::kHir, "hir.reorder.permutation",
                   "tree execution order is not a permutation of [0, " +
                       str(num_trees) + ")");
    }

    // Groups (when formed) must cover all positions contiguously and
    // promise only walk shapes their members actually have.
    const std::vector<hir::TreeGroup> &groups = module.groups();
    if (groups.empty())
        return;
    int64_t expected_begin = 0;
    bool coverage_ok = true;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
        const hir::TreeGroup &group = groups[gi];
        if (group.beginPos != expected_begin ||
            group.endPos <= group.beginPos ||
            group.endPos > num_trees) {
            diag.error(IrLevel::kHir, "hir.group.coverage",
                       "group positions [" + str(group.beginPos) +
                           ", " + str(group.endPos) +
                           ") do not tile the tree order")
                .atGroup(static_cast<int64_t>(gi));
            coverage_ok = false;
            break;
        }
        expected_begin = group.endPos;
    }
    if (coverage_ok && expected_begin != num_trees) {
        diag.error(IrLevel::kHir, "hir.group.coverage",
                   "groups cover " + str(expected_begin) + " of " +
                       str(num_trees) + " positions");
        coverage_ok = false;
    }
    if (!coverage_ok || !order_ok)
        return;

    for (size_t gi = 0; gi < groups.size(); ++gi) {
        const hir::TreeGroup &group = groups[gi];
        for (int64_t position = group.beginPos;
             position < group.endPos; ++position) {
            int64_t tree = order[static_cast<size_t>(position)];
            // Skip members whose parent links did not verify: their
            // depths are not trustworthy (see verifyTiledTree).
            if (!depth_safe[static_cast<size_t>(tree)])
                continue;
            const TiledTree &tiled = module.tiledTree(tree);
            if (group.unrolledWalk) {
                if (!tiled.isPerfectlyBalanced() ||
                    tiled.maxLeafDepth() != group.walkDepth) {
                    diag.error(IrLevel::kHir, "hir.group.pad-depth",
                               "unrolled group promises walk depth " +
                                   str(group.walkDepth) +
                                   " but member depths are [" +
                                   str(tiled.minLeafDepth()) + ", " +
                                   str(tiled.maxLeafDepth()) + "]")
                        .atGroup(static_cast<int64_t>(gi))
                        .atTree(
                            order[static_cast<size_t>(position)]);
                }
            } else if (group.peelDepth < 0 ||
                       group.peelDepth > tiled.minLeafDepth()) {
                diag.error(IrLevel::kHir, "hir.group.peel-depth",
                           "peel depth " + str(group.peelDepth) +
                               " exceeds member min leaf depth " +
                               str(tiled.minLeafDepth()))
                    .atGroup(static_cast<int64_t>(gi))
                    .atTree(order[static_cast<size_t>(position)]);
            }
        }
    }
}

void
verifyMir(const mir::MirFunction &function, int64_t num_groups,
          DiagnosticEngine &diag)
{
    function.verifyInto(diag);
    if (num_groups < 0)
        return;
    for (const mir::MirOp *walk : function.walkOps()) {
        if (walk->groupIndex >= num_groups) {
            diag.error(IrLevel::kMir, "mir.walk.group-range",
                       "walk group " + str(walk->groupIndex) +
                           " out of range [0, " + str(num_groups) +
                           ")")
                .atOp(mir::opKindName(mir::OpKind::kWalkGroup))
                .atGroup(walk->groupIndex);
        }
    }
}

void
verifyLir(const lir::ForestBuffers &buffers, DiagnosticEngine &diag)
{
    if (buffers.tileSize < 1 ||
        buffers.tileSize > lir::kMaxTileSize) {
        diag.error(IrLevel::kLir, "lir.tile-size.range",
                   "tile size " + str(buffers.tileSize) +
                       " out of range [1, " + str(lir::kMaxTileSize) +
                       "]");
        return;
    }
    if (buffers.shapes == nullptr) {
        diag.error(IrLevel::kLir, "lir.shape-table.missing",
                   "forest buffers carry no tile-shape table");
        return;
    }
    const TileShapeTable &shapes = *buffers.shapes;
    if (shapes.tileSize() != buffers.tileSize) {
        diag.error(IrLevel::kLir, "lir.shape-table.mismatch",
                   "shape table is for tile size " +
                       str(shapes.tileSize()) + ", buffers use " +
                       str(buffers.tileSize));
        return;
    }

    // Shape-LUT totality: every (shape, outcome) entry selects an
    // existing child, so no vector comparison outcome can index past
    // a tile's children.
    if (shapes.lutStride() != (1 << buffers.tileSize)) {
        diag.error(IrLevel::kLir, "lir.lut.stride",
                   "LUT stride " + str(shapes.lutStride()) +
                       " is not 2^" + str(buffers.tileSize));
    } else {
        for (int32_t shape_id = 0; shape_id < shapes.numShapes();
             ++shape_id) {
            int32_t num_children =
                shapes.shape(shape_id).numChildren();
            for (int32_t outcome = 0; outcome < shapes.lutStride();
                 ++outcome) {
                int32_t child = shapes.child(
                    shape_id, static_cast<uint32_t>(outcome));
                if (child < 0 || child >= num_children) {
                    diag.error(IrLevel::kLir, "lir.lut.range",
                               "LUT entry (" + str(shape_id) + ", " +
                                   str(outcome) + ") selects child " +
                                   str(child) + " of " +
                                   str(num_children))
                        .atSlot(outcome);
                    break; // one diagnostic per shape row
                }
            }
        }
    }

    if (!verifyLirHeader(buffers, diag))
        return;

    // Tree blocks must be disjoint, in order, and inside the buffers.
    int64_t num_tiles = buffers.numTiles();
    int64_t previous_end = 0;
    for (int64_t t = 0; t < buffers.numTrees; ++t) {
        int64_t first = buffers.treeFirstTile[static_cast<size_t>(t)];
        int64_t end = buffers.treeTileEnd[static_cast<size_t>(t)];
        if (first < previous_end || end < first || end > num_tiles) {
            diag.error(IrLevel::kLir, "lir.tree-table.shape",
                       "tree block [" + str(first) + ", " + str(end) +
                           ") is not ordered within [0, " +
                           str(num_tiles) + ")")
                .atTree(t);
            return;
        }
        previous_end = end;
    }

    if (buffers.layout != lir::LayoutKind::kArray) {
        for (size_t i = 0; i < buffers.leaves.size(); ++i) {
            if (!std::isfinite(buffers.leaves[i])) {
                diag.error(IrLevel::kLir, "lir.leaf.non-finite",
                           "leaf pool entry " +
                               str(static_cast<int64_t>(i)) +
                               " is non-finite");
            }
        }
    }

    for (int64_t t = 0; t < buffers.numTrees; ++t) {
        int64_t first = buffers.treeFirstTile[static_cast<size_t>(t)];
        int64_t end = buffers.treeTileEnd[static_cast<size_t>(t)];
        if (buffers.layout == lir::LayoutKind::kArray)
            verifyArrayTree(buffers, t, first, end, diag);
        else
            verifySparseTree(buffers, t, first, end, diag);
    }

    if (buffers.layout != lir::LayoutKind::kArray &&
        buffers.numTrees > 0) {
        verifySafetyTail(buffers, previous_end, diag);
    }
}

} // namespace treebeard::analysis
