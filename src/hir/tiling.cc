#include "hir/tiling.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <set>

#include "common/logging.h"
#include "model/model_stats.h"

namespace treebeard::hir {

const char *
tilingAlgorithmName(TilingAlgorithm algorithm)
{
    switch (algorithm) {
      case TilingAlgorithm::kBasic: return "basic";
      case TilingAlgorithm::kProbabilityBased: return "probability";
      case TilingAlgorithm::kHybrid: return "hybrid";
      case TilingAlgorithm::kMinMaxDepth: return "min-max-depth";
    }
    panic("unknown tiling algorithm");
}

namespace {

using model::DecisionTree;
using model::NodeIndex;

/**
 * A node-set selector: given the root of an (untiled) subtree whose
 * root is an internal node, return the set of internal nodes forming
 * the tile rooted there. Both tiling algorithms are instances.
 */
using TileSelector = std::function<std::set<NodeIndex>(NodeIndex)>;

/** BFS order the members of @p members starting from @p tile_root. */
std::vector<NodeIndex>
levelOrderTileNodes(const DecisionTree &tree, NodeIndex tile_root,
                    const std::set<NodeIndex> &members)
{
    std::vector<NodeIndex> ordered;
    std::queue<NodeIndex> queue;
    queue.push(tile_root);
    while (!queue.empty()) {
        NodeIndex node = queue.front();
        queue.pop();
        if (members.count(node) == 0)
            continue;
        ordered.push_back(node);
        const model::Node &n = tree.node(node);
        if (!n.isLeaf()) {
            queue.push(n.left);
            queue.push(n.right);
        }
    }
    panicIf(ordered.size() != members.size(),
            "tile node set is not connected under its root");
    return ordered;
}

/**
 * Exit targets of a tile in left-to-right (DFS) order: the base nodes
 * reached by edges leaving the tile. Matches the exit-ordinal order of
 * the tile-shape LUT.
 */
std::vector<NodeIndex>
exitTargetsInOrder(const DecisionTree &tree, NodeIndex tile_root,
                   const std::set<NodeIndex> &members)
{
    std::vector<NodeIndex> exits;
    auto visit = [&](auto &&self, NodeIndex node) -> void {
        const model::Node &n = tree.node(node);
        panicIf(n.isLeaf(), "leaf inside an internal tile");
        if (members.count(n.left) > 0)
            self(self, n.left);
        else
            exits.push_back(n.left);
        if (members.count(n.right) > 0)
            self(self, n.right);
        else
            exits.push_back(n.right);
    };
    visit(visit, tile_root);
    return exits;
}

/**
 * Shared recursive construction (the recursion of Algorithms 1 and 2):
 * build the tile for the subtree rooted at @p subtree_root, then
 * recurse into every exit target.
 */
TileId
buildTiles(const DecisionTree &tree, const TileSelector &selector,
           NodeIndex subtree_root, TileId parent, TiledTree &tiled)
{
    const model::Node &root_node = tree.node(subtree_root);
    if (root_node.isLeaf()) {
        return tiled.appendTile(Tile::Kind::kLeaf, parent,
                                root_node.threshold, {&subtree_root, 1},
                                0);
    }

    std::set<NodeIndex> members = selector(subtree_root);
    panicIf(members.count(subtree_root) == 0,
            "tile selector dropped the subtree root");

    std::vector<NodeIndex> ordered =
        levelOrderTileNodes(tree, subtree_root, members);
    std::vector<NodeIndex> exits =
        exitTargetsInOrder(tree, subtree_root, members);

    TileId id = tiled.appendTile(Tile::Kind::kInternal, parent, 0.0f,
                                 ordered,
                                 static_cast<int32_t>(exits.size()));
    for (size_t k = 0; k < exits.size(); ++k) {
        tiled.setChild(id, static_cast<int32_t>(k),
                       buildTiles(tree, selector, exits[k], id, tiled));
    }
    return id;
}

TiledTree
tileWithSelector(const DecisionTree &tree, int32_t tile_size,
                 const TileSelector &selector)
{
    TiledTree tiled(tree, tile_size);
    buildTiles(tree, selector, tree.root(), kNoTile, tiled);
    tiled.shrinkToFit();
    return tiled;
}

} // namespace

std::vector<double>
nodeProbabilities(const DecisionTree &tree)
{
    std::vector<double> probability(
        static_cast<size_t>(tree.numNodes()), 0.0);
    std::vector<NodeIndex> leaves = tree.leafIndices();
    std::vector<double> leaf_probability = tree.leafProbabilities();
    for (size_t i = 0; i < leaves.size(); ++i)
        probability[static_cast<size_t>(leaves[i])] = leaf_probability[i];

    // Post-order accumulation into internal nodes.
    auto accumulate = [&](auto &&self, NodeIndex node) -> double {
        const model::Node &n = tree.node(node);
        if (n.isLeaf())
            return probability[static_cast<size_t>(node)];
        double total = self(self, n.left) + self(self, n.right);
        probability[static_cast<size_t>(node)] = total;
        return total;
    };
    accumulate(accumulate, tree.root());
    return probability;
}

TiledTree
basicTiling(const DecisionTree &tree, int32_t tile_size)
{
    // Algorithm 2: pick the next tile_size non-leaf nodes in level
    // order from the subtree root.
    TileSelector selector = [&tree, tile_size](NodeIndex subtree_root) {
        std::set<NodeIndex> members;
        std::queue<NodeIndex> queue;
        queue.push(subtree_root);
        while (!queue.empty() &&
               static_cast<int32_t>(members.size()) < tile_size) {
            NodeIndex node = queue.front();
            queue.pop();
            const model::Node &n = tree.node(node);
            if (n.isLeaf())
                continue;
            members.insert(node);
            queue.push(n.left);
            queue.push(n.right);
        }
        return members;
    };
    return tileWithSelector(tree, tile_size, selector);
}

TiledTree
probabilityBasedTiling(const DecisionTree &tree, int32_t tile_size)
{
    std::vector<double> probability = nodeProbabilities(tree);

    // Algorithm 1: greedily absorb the most probable non-leaf
    // out-edge destination until the tile is full.
    TileSelector selector = [&tree, tile_size,
                             &probability](NodeIndex subtree_root) {
        std::set<NodeIndex> members{subtree_root};
        while (static_cast<int32_t>(members.size()) < tile_size) {
            NodeIndex best = model::kInvalidNode;
            double best_probability = -1.0;
            for (NodeIndex member : members) {
                const model::Node &n = tree.node(member);
                for (NodeIndex child : {n.left, n.right}) {
                    if (members.count(child) > 0 ||
                        tree.node(child).isLeaf()) {
                        continue;
                    }
                    if (probability[static_cast<size_t>(child)] >
                        best_probability) {
                        best_probability =
                            probability[static_cast<size_t>(child)];
                        best = child;
                    }
                }
            }
            if (best == model::kInvalidNode)
                break;
            members.insert(best);
        }
        return members;
    };
    return tileWithSelector(tree, tile_size, selector);
}

TiledTree
minMaxDepthTiling(const DecisionTree &tree, int32_t tile_size)
{
    // Subtree heights, computed once.
    std::vector<int32_t> height(static_cast<size_t>(tree.numNodes()),
                                0);
    auto measure = [&](auto &&self, NodeIndex node) -> int32_t {
        const model::Node &n = tree.node(node);
        if (n.isLeaf())
            return height[static_cast<size_t>(node)] = 0;
        int32_t h = 1 + std::max(self(self, n.left),
                                 self(self, n.right));
        return height[static_cast<size_t>(node)] = h;
    };
    measure(measure, tree.root());

    // Grow each tile along the tallest remaining subtrees so the
    // deepest paths are compressed the most.
    TileSelector selector = [&tree, tile_size,
                             &height](NodeIndex subtree_root) {
        std::set<NodeIndex> members{subtree_root};
        while (static_cast<int32_t>(members.size()) < tile_size) {
            NodeIndex best = model::kInvalidNode;
            int32_t best_height = -1;
            for (NodeIndex member : members) {
                const model::Node &n = tree.node(member);
                for (NodeIndex child : {n.left, n.right}) {
                    if (members.count(child) > 0 ||
                        tree.node(child).isLeaf()) {
                        continue;
                    }
                    if (height[static_cast<size_t>(child)] >
                        best_height) {
                        best_height =
                            height[static_cast<size_t>(child)];
                        best = child;
                    }
                }
            }
            if (best == model::kInvalidNode)
                break;
            members.insert(best);
        }
        return members;
    };
    return tileWithSelector(tree, tile_size, selector);
}

TiledTree
tileTree(const DecisionTree &tree, const TilingOptions &options)
{
    switch (options.algorithm) {
      case TilingAlgorithm::kBasic:
        return basicTiling(tree, options.tileSize);
      case TilingAlgorithm::kProbabilityBased:
        return probabilityBasedTiling(tree, options.tileSize);
      case TilingAlgorithm::kHybrid:
        if (model::isLeafBiased(tree, options.alpha, options.beta))
            return probabilityBasedTiling(tree, options.tileSize);
        return basicTiling(tree, options.tileSize);
      case TilingAlgorithm::kMinMaxDepth:
        return minMaxDepthTiling(tree, options.tileSize);
    }
    panic("unknown tiling algorithm");
}

} // namespace treebeard::hir
