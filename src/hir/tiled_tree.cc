#include "hir/tiled_tree.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/logging.h"

namespace treebeard::hir {

namespace {

/** Slot of @p node inside @p nodes, or -1. */
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
 * Exit ordinal of edge (slot, side) for in-tile links, counting exits
 * in left-to-right depth-first order. side 0 = left, 1 = right.
 */
int32_t
exitOrdinal(const std::vector<int32_t> &left,
            const std::vector<int32_t> &right, int32_t target_slot,
            int32_t target_side)
{
    int32_t counter = 0;
    int32_t found = -1;
    auto visit = [&](auto &&self, int32_t slot) -> void {
        if (left[static_cast<size_t>(slot)] < 0) {
            if (slot == target_slot && target_side == 0)
                found = counter;
            ++counter;
        } else {
            self(self, left[static_cast<size_t>(slot)]);
        }
        if (right[static_cast<size_t>(slot)] < 0) {
            if (slot == target_slot && target_side == 1)
                found = counter;
            ++counter;
        } else {
            self(self, right[static_cast<size_t>(slot)]);
        }
    };
    visit(visit, 0);
    panicIf(found < 0, "exit edge not found in tile");
    return found;
}

} // namespace

TiledTree::TiledTree(const model::DecisionTree &tree, int32_t tile_size)
    : tree_(&tree), tileSize_(tile_size)
{
    fatalIf(tile_size < 1, "tile size must be at least 1");
    // Every base node lands in exactly one tile.
    nodes_.reserve(static_cast<size_t>(tree.numNodes()));
}

TileId
TiledTree::appendTile(Tile::Kind kind, TileId parent, float leaf_value,
                      std::span<const model::NodeIndex> nodes,
                      int32_t num_children)
{
    panicIf(nodes.size() > UINT8_MAX || num_children < 0 ||
                num_children > UINT8_MAX,
            "tile arity exceeds its record");
    TileRecord r;
    r.kind = kind;
    r.numNodes = static_cast<uint8_t>(nodes.size());
    r.numChildren = static_cast<uint8_t>(num_children);
    r.parent = parent;
    r.leafValue = leaf_value;
    r.nodeOffset = static_cast<int32_t>(nodes_.size());
    r.childOffset = static_cast<int32_t>(children_.size());
    nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
    children_.resize(children_.size() + static_cast<size_t>(num_children),
                     kNoTile);
    tiles_.push_back(r);
    return numTiles() - 1;
}

void
TiledTree::setChild(TileId id, int32_t ordinal, TileId child)
{
    const TileRecord &r = record(id);
    panicIf(ordinal < 0 || ordinal >= r.numChildren,
            "child ordinal out of range");
    children_[static_cast<size_t>(r.childOffset + ordinal)] = child;
}

void
TiledTree::shrinkToFit()
{
    tiles_.shrink_to_fit();
    nodes_.shrink_to_fit();
    children_.shrink_to_fit();
}

void
TiledTree::setParent(TileId id, TileId parent)
{
    record(id).parent = parent;
}

void
TiledTree::setLeafValue(TileId id, float value)
{
    record(id).leafValue = value;
}

void
TiledTree::setNode(TileId id, int32_t slot, model::NodeIndex node)
{
    const TileRecord &r = record(id);
    panicIf(slot < 0 || slot >= r.numNodes, "node slot out of range");
    nodes_[static_cast<size_t>(r.nodeOffset + slot)] = node;
}

void
TiledTree::popNode(TileId id)
{
    TileRecord &r = record(id);
    panicIf(r.numNodes == 0, "tile has no node to drop");
    --r.numNodes;
}

int32_t
TiledTree::tileDepth(TileId id) const
{
    int32_t depth = 0;
    TileId current = id;
    while (record(current).parent != kNoTile) {
        current = record(current).parent;
        ++depth;
    }
    return depth;
}

std::vector<int32_t>
TiledTree::tileDepths() const
{
    std::vector<int32_t> depth(static_cast<size_t>(numTiles()), -1);
    if (tiles_.empty())
        return depth;
    // Breadth-first over child links; each tile is entered at most
    // once, so even a corrupted (cyclic) tiling terminates.
    std::vector<TileId> queue;
    queue.reserve(tiles_.size());
    queue.push_back(rootTile());
    depth[0] = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
        TileId id = queue[head];
        for (TileId child : tile(id).children()) {
            if (child < 0 || child >= numTiles() ||
                depth[static_cast<size_t>(child)] >= 0) {
                continue;
            }
            depth[static_cast<size_t>(child)] =
                depth[static_cast<size_t>(id)] + 1;
            queue.push_back(child);
        }
    }
    return depth;
}

std::pair<int32_t, int32_t>
TiledTree::leafDepthRange() const
{
    // Dummy filler leaves are unreachable (dummy tiles route every
    // walk to child 0), so depth statistics consider real leaves only.
    std::vector<int32_t> depth = tileDepths();
    int32_t min_depth = -1;
    int32_t max_depth = 0;
    for (TileId id = 0; id < numTiles(); ++id) {
        if (tiles_[static_cast<size_t>(id)].kind != Tile::Kind::kLeaf)
            continue;
        int32_t d = depth[static_cast<size_t>(id)];
        max_depth = std::max(max_depth, d);
        if (min_depth < 0 || d < min_depth)
            min_depth = d;
    }
    return {std::max(min_depth, 0), max_depth};
}

void
TiledTree::tileSlotLinks(TileId id, std::vector<int32_t> &left,
                         std::vector<int32_t> &right) const
{
    Tile t = tile(id);
    if (t.kind == Tile::Kind::kDummyInternal) {
        // Dummy tiles use a left-leaning chain: with always-true dummy
        // predicates every walk exits at child 0.
        left.assign(static_cast<size_t>(tileSize_), -1);
        right.assign(static_cast<size_t>(tileSize_), -1);
        for (int32_t i = 0; i + 1 < tileSize_; ++i)
            left[static_cast<size_t>(i)] = i + 1;
        return;
    }
    panicIf(t.kind != Tile::Kind::kInternal,
            "slot links requested for a leaf tile");
    std::span<const model::NodeIndex> nodes = t.nodes();
    left.assign(nodes.size(), -1);
    right.assign(nodes.size(), -1);
    for (size_t i = 0; i < nodes.size(); ++i) {
        const model::Node &node = tree_->node(nodes[i]);
        left[i] = slotOf(nodes, node.left);
        right[i] = slotOf(nodes, node.right);
    }
}

int32_t
TiledTree::walkTile(TileId id, const float *row) const
{
    Tile t = tile(id);
    if (t.kind == Tile::Kind::kDummyInternal)
        return 0;
    std::vector<int32_t> left, right;
    tileSlotLinks(id, left, right);
    int32_t slot = 0;
    while (true) {
        const model::Node &node =
            tree_->node(t.nodes()[static_cast<size_t>(slot)]);
        float value = row[node.featureIndex];
        bool go_left = std::isnan(value) ? node.defaultLeft
                                         : value < node.threshold;
        int32_t next = go_left ? left[static_cast<size_t>(slot)]
                               : right[static_cast<size_t>(slot)];
        if (next < 0)
            return exitOrdinal(left, right, slot, go_left ? 0 : 1);
        slot = next;
    }
}

float
TiledTree::predict(const float *row) const
{
    int64_t ignored;
    return predictCountingTiles(row, &ignored);
}

float
TiledTree::predictCountingTiles(const float *row,
                                int64_t *tiles_visited) const
{
    TileId current = rootTile();
    int64_t visited = 0;
    while (!tile(current).isLeafKind()) {
        ++visited;
        int32_t child = walkTile(current, row);
        std::span<const TileId> children = tile(current).children();
        panicIf(child < 0 || child >= static_cast<int32_t>(children.size()),
                "tile walk produced out-of-range child");
        current = children[static_cast<size_t>(child)];
    }
    *tiles_visited = visited;
    return tile(current).leafValue;
}

double
TiledTree::expectedDepth() const
{
    // Map base leaf nodes to probabilities.
    std::vector<model::NodeIndex> leaves = tree_->leafIndices();
    std::vector<double> probabilities = tree_->leafProbabilities();
    std::map<model::NodeIndex, double> probability_of;
    for (size_t i = 0; i < leaves.size(); ++i)
        probability_of[leaves[i]] = probabilities[i];

    std::vector<int32_t> depth = tileDepths();
    double expected = 0.0;
    for (TileId id = 0; id < numTiles(); ++id) {
        Tile t = tile(id);
        if (t.kind != Tile::Kind::kLeaf)
            continue;
        double p = probability_of.at(t.nodes().front());
        expected += p * depth[static_cast<size_t>(id)];
    }
    return expected;
}

void
TiledTree::padToDepth(int32_t target_depth)
{
    std::vector<int32_t> depth = tileDepths();
    int32_t max_depth = 0;
    int64_t levels = 0;
    for (TileId id = 0; id < numTiles(); ++id) {
        // Only real leaves need lifting; dummy fillers are unreachable.
        if (tiles_[static_cast<size_t>(id)].kind != Tile::Kind::kLeaf)
            continue;
        int32_t d = depth[static_cast<size_t>(id)];
        max_depth = std::max(max_depth, d);
        if (d < target_depth)
            levels += target_depth - d;
    }
    fatalIf(target_depth < max_depth,
            "cannot pad to depth ", target_depth,
            " below current depth ", max_depth);

    // Every padded level appends one dummy internal tile and tileSize_
    // filler leaves, and gives the dummy tileSize_ + 1 child slots:
    // reserve exactly that so the flat arrays grow once.
    int64_t per_level = int64_t{tileSize_} + 1;
    tiles_.reserve(tiles_.size() + static_cast<size_t>(levels * per_level));
    children_.reserve(children_.size() +
                      static_cast<size_t>(levels * per_level));

    // Only the original tiles can be real leaves; appended ones are
    // dummies.
    TileId original_tiles = numTiles();
    for (TileId leaf_id = 0; leaf_id < original_tiles; ++leaf_id) {
        if (tiles_[static_cast<size_t>(leaf_id)].kind != Tile::Kind::kLeaf)
            continue;
        int32_t leaf_depth = depth[static_cast<size_t>(leaf_id)];
        TileId parent = tiles_[static_cast<size_t>(leaf_id)].parent;
        if (leaf_depth >= target_depth)
            continue;
        panicIf(parent == kNoTile && target_depth > 0 &&
                    leaf_depth == 0 && numTiles() > 1,
                "leaf tile with no parent in a multi-tile tree");

        // Build a chain of dummy internal tiles above the leaf. Every
        // dummy routes walks to child 0; the remaining child slots are
        // filled with dummy leaves replicating the real leaf's value.
        float value = tiles_[static_cast<size_t>(leaf_id)].leafValue;
        TileId below = leaf_id;
        for (int32_t level = 0; level < target_depth - leaf_depth;
             ++level) {
            TileId dummy_id =
                appendTile(Tile::Kind::kDummyInternal, kNoTile, 0.0f, {},
                           tileSize_ + 1);
            setChild(dummy_id, 0, below);
            tiles_[static_cast<size_t>(below)].parent = dummy_id;
            for (int32_t extra = 0; extra < tileSize_; ++extra) {
                TileId filler_id = appendTile(Tile::Kind::kDummyLeaf,
                                              dummy_id, value, {}, 0);
                setChild(dummy_id, extra + 1, filler_id);
            }
            below = dummy_id;
        }

        // Splice the chain into the parent (or make it the root).
        if (parent == kNoTile) {
            // The original root was the leaf itself: rotate tile ids so
            // the chain head becomes tile 0 by swapping.
            std::swap(tiles_[0], tiles_[static_cast<size_t>(below)]);
            // Fix up all references after the swap.
            for (TileId &child : children_) {
                if (child == 0)
                    child = below;
                else if (child == below)
                    child = 0;
            }
            for (TileRecord &r : tiles_) {
                if (r.parent == 0)
                    r.parent = below;
                else if (r.parent == below)
                    r.parent = 0;
            }
            tiles_[0].parent = kNoTile;
        } else {
            const TileRecord &p = tiles_[static_cast<size_t>(parent)];
            bool spliced = false;
            for (TileId &child : std::span<TileId>(
                     children_.data() + p.childOffset, p.numChildren)) {
                if (child == leaf_id) {
                    child = below;
                    spliced = true;
                    break;
                }
            }
            panicIf(!spliced, "leaf tile not found among parent children");
            tiles_[static_cast<size_t>(below)].parent = parent;
        }
    }
}

void
TiledTree::validate() const
{
    const model::DecisionTree &tree = *tree_;
    std::vector<model::NodeIndex> parents = tree.parentArray();

    // Partitioning: every base node appears in exactly one tile.
    std::set<model::NodeIndex> seen;
    for (TileId id = 0; id < numTiles(); ++id) {
        Tile t = tile(id);
        for (model::NodeIndex node : t.nodes()) {
            fatalIf(node < 0 || node >= tree.numNodes(),
                    "tile ", id, " references node ", node,
                    " outside the base tree");
            fatalIf(seen.count(node) > 0,
                    "node ", node, " appears in more than one tile");
            seen.insert(node);
        }
    }
    fatalIf(static_cast<int64_t>(seen.size()) != tree.numNodes(),
            "tiling covers ", seen.size(), " of ", tree.numNodes(),
            " base nodes");

    for (TileId id = 0; id < numTiles(); ++id) {
        Tile t = tile(id);
        switch (t.kind) {
          case Tile::Kind::kLeaf:
            fatalIf(t.numNodes() != 1, "leaf tile ", id,
                    " must hold exactly one node");
            fatalIf(!tree.node(t.nodes().front()).isLeaf(),
                    "leaf tile ", id, " holds an internal node");
            fatalIf(!t.children().empty(), "leaf tile ", id,
                    " has children");
            fatalIf(t.leafValue != tree.node(t.nodes().front()).threshold,
                    "leaf tile ", id, " caches a stale value");
            break;
          case Tile::Kind::kDummyLeaf:
            fatalIf(!t.nodes().empty(), "dummy leaf ", id,
                    " holds base nodes");
            fatalIf(!t.children().empty(), "dummy leaf ", id,
                    " has children");
            break;
          case Tile::Kind::kDummyInternal:
            fatalIf(!t.nodes().empty(), "dummy tile ", id,
                    " holds base nodes");
            fatalIf(static_cast<int32_t>(t.children().size()) !=
                        tileSize_ + 1,
                    "dummy tile ", id, " has wrong arity");
            break;
          case Tile::Kind::kInternal: {
            fatalIf(t.numNodes() < 1 || t.numNodes() > tileSize_,
                    "tile ", id, " has ", t.numNodes(),
                    " nodes (tile size ", tileSize_, ")");
            // Leaf separation: no base leaves inside internal tiles.
            for (model::NodeIndex node : t.nodes()) {
                fatalIf(tree.node(node).isLeaf(), "internal tile ", id,
                        " contains leaf node ", node);
            }
            // Connectedness: every non-root in-tile node's base parent
            // is in the tile.
            for (size_t i = 1; i < t.nodes().size(); ++i) {
                model::NodeIndex parent =
                    parents[static_cast<size_t>(t.nodes()[i])];
                fatalIf(slotOf(t.nodes(), parent) < 0,
                        "tile ", id, " is not connected: node ",
                        t.nodes()[i], "'s parent is outside the tile");
            }
            // Level-order slot invariant: slot 0 is the tile root (its
            // parent is outside the tile).
            model::NodeIndex root_parent =
                parents[static_cast<size_t>(t.nodes()[0])];
            fatalIf(root_parent != model::kInvalidNode &&
                        slotOf(t.nodes(), root_parent) >= 0,
                    "tile ", id, " slot 0 is not the tile root");

            // Exit ordering: child k's subtree root is exit k's target.
            std::vector<int32_t> left, right;
            tileSlotLinks(id, left, right);

            // Slot order must be level order (BFS) over in-tile links:
            // the SIMD lanes and the shape LUT both assume it.
            {
                std::vector<int32_t> bfs{0};
                for (size_t head = 0; head < bfs.size(); ++head) {
                    int32_t slot = bfs[head];
                    if (left[static_cast<size_t>(slot)] >= 0)
                        bfs.push_back(left[static_cast<size_t>(slot)]);
                    if (right[static_cast<size_t>(slot)] >= 0)
                        bfs.push_back(right[static_cast<size_t>(slot)]);
                }
                fatalIf(bfs.size() != t.nodes().size(), "tile ", id,
                        " in-tile links are not connected");
                for (size_t i = 0; i < bfs.size(); ++i) {
                    fatalIf(bfs[i] != static_cast<int32_t>(i), "tile ",
                            id, " nodes are not in level order");
                }
            }
            int32_t exits = 0;
            for (size_t i = 0; i < t.nodes().size(); ++i) {
                exits += (left[i] < 0 ? 1 : 0) + (right[i] < 0 ? 1 : 0);
            }
            fatalIf(static_cast<int32_t>(t.children().size()) != exits,
                    "tile ", id, " has ", t.children().size(),
                    " children but ", exits, " exit edges");
            for (size_t i = 0; i < t.nodes().size(); ++i) {
                const model::Node &node = tree.node(t.nodes()[i]);
                for (int32_t side = 0; side < 2; ++side) {
                    int32_t link = side == 0 ? left[i] : right[i];
                    if (link >= 0)
                        continue;
                    model::NodeIndex target =
                        side == 0 ? node.left : node.right;
                    int32_t ordinal = exitOrdinal(
                        left, right, static_cast<int32_t>(i), side);
                    TileId child =
                        t.children()[static_cast<size_t>(ordinal)];
                    Tile child_tile = tile(child);
                    fatalIf(child_tile.parent != id, "tile ", child,
                            " has a wrong parent link");
                    if (!child_tile.isDummy()) {
                        fatalIf(child_tile.nodes().empty() ||
                                    child_tile.nodes().front() != target,
                                "tile ", id, " exit ", ordinal,
                                " does not lead to base node ", target);
                    }
                }
            }

            // Maximal tiling: an under-full tile may only border
            // leaves (or padding above leaves).
            if (t.numNodes() < tileSize_) {
                for (TileId child : t.children()) {
                    Tile child_tile = tile(child);
                    fatalIf(child_tile.kind == Tile::Kind::kInternal,
                            "tile ", id, " has ", t.numNodes(),
                            " nodes yet borders internal tile ", child,
                            " (maximal-tiling violation)");
                }
            }
            break;
          }
        }
    }

    // Root invariants.
    fatalIf(tile(rootTile()).parent != kNoTile, "root tile has a parent");
}

std::vector<int32_t>
TiledTree::structureSignature() const
{
    std::vector<int32_t> signature;
    std::vector<TileId> queue{rootTile()};
    size_t head = 0;
    while (head < queue.size()) {
        TileId id = queue[head++];
        Tile t = tile(id);
        signature.push_back(static_cast<int32_t>(t.kind));
        signature.push_back(t.numNodes());
        signature.push_back(static_cast<int32_t>(t.children().size()));
        for (TileId child : t.children())
            queue.push_back(child);
    }
    return signature;
}

int64_t
TiledTree::footprintBytes() const
{
    static_assert(sizeof(TileRecord) == 20,
                  "a tile record is 20 bytes; see docs/IR_REFERENCE.md");
    return static_cast<int64_t>(tiles_.capacity() * sizeof(TileRecord) +
                                nodes_.capacity() *
                                    sizeof(model::NodeIndex) +
                                children_.capacity() * sizeof(TileId));
}

} // namespace treebeard::hir
