#include "hir/hot_path.h"

#include <functional>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "hir/tiling.h"

namespace treebeard::hir {

namespace {

/**
 * In-tile links of one internal tile plus the exit ordinal of every
 * exiting edge, precomputed with the same left-to-right depth-first
 * order the tile-shape LUT uses (see exitOrdinal in tiled_tree.cc).
 */
struct TileLinks
{
    std::vector<int32_t> left;
    std::vector<int32_t> right;
    /** Exit ordinal of (slot, side), or -1 when the edge stays in-tile. */
    std::vector<int32_t> exitLeft;
    std::vector<int32_t> exitRight;
};

TileLinks
computeTileLinks(const TiledTree &tiled, TileId id)
{
    TileLinks links;
    tiled.tileSlotLinks(id, links.left, links.right);
    links.exitLeft.assign(links.left.size(), -1);
    links.exitRight.assign(links.right.size(), -1);
    int32_t ordinal = 0;
    auto visit = [&](auto &&self, int32_t slot) -> void {
        if (links.left[static_cast<size_t>(slot)] < 0)
            links.exitLeft[static_cast<size_t>(slot)] = ordinal++;
        else
            self(self, links.left[static_cast<size_t>(slot)]);
        if (links.right[static_cast<size_t>(slot)] < 0)
            links.exitRight[static_cast<size_t>(slot)] = ordinal++;
        else
            self(self, links.right[static_cast<size_t>(slot)]);
    };
    visit(visit, 0);
    return links;
}

} // namespace

std::vector<double>
tileReachProbabilities(const TiledTree &tiled)
{
    std::vector<double> node_probability =
        nodeProbabilities(tiled.baseTree());
    std::vector<double> result(
        static_cast<size_t>(tiled.numTiles()), 0.0);
    for (TileId id = 0; id < tiled.numTiles(); ++id) {
        Tile tile = tiled.tile(id);
        if (!tile.nodes().empty()) {
            result[static_cast<size_t>(id)] =
                node_probability[static_cast<size_t>(tile.nodes()[0])];
        }
    }
    // Dummy internal tiles deterministically continue to child 0:
    // inherit the chain's terminal probability. Dummy-leaf fillers are
    // unreachable and stay at 0.
    for (TileId id = 0; id < tiled.numTiles(); ++id) {
        if (tiled.tile(id).kind != Tile::Kind::kDummyInternal)
            continue;
        TileId current = id;
        while (tiled.tile(current).kind == Tile::Kind::kDummyInternal)
            current = tiled.tile(current).children()[0];
        result[static_cast<size_t>(id)] =
            result[static_cast<size_t>(current)];
    }
    return result;
}

HotPathProgram
buildHotPathProgram(const TiledTree &tiled, double coverage,
                    int32_t node_budget)
{
    HotPathProgram program;
    if (coverage <= 0.0 || tiled.numTiles() == 0)
        return program;

    const model::DecisionTree &tree = tiled.baseTree();
    bool has_stats = false;
    for (model::NodeIndex leaf : tree.leafIndices()) {
        if (tree.node(leaf).hitCount > 0.0) {
            has_stats = true;
            break;
        }
    }
    program.depthFallback = !has_stats;

    std::vector<double> probability = tileReachProbabilities(tiled);

    // Greedy region growth: expand the frontier tile with the largest
    // reach probability (or, without statistics, the shallowest tile,
    // which under uniform leaf probabilities is the same objective).
    // Leaf-kind children of a selected tile join the region for free —
    // they cost no comparisons and resolve an outcome in-region.
    auto key = [&](TileId id) -> double {
        return has_stats
                   ? probability[static_cast<size_t>(id)]
                   : -static_cast<double>(tiled.tileDepth(id));
    };
    std::priority_queue<std::pair<double, int32_t>> frontier;
    std::vector<char> selected(
        static_cast<size_t>(tiled.numTiles()), 0);
    double covered = 0.0;
    int32_t nodes_used = 0;
    auto admit = [&](TileId id) {
        if (tiled.tile(id).isLeafKind()) {
            selected[static_cast<size_t>(id)] = 1;
            covered += probability[static_cast<size_t>(id)];
        } else {
            frontier.push({key(id), -id});
        }
    };
    admit(tiled.rootTile());
    while (covered < coverage - 1e-12 && !frontier.empty()) {
        TileId id = static_cast<TileId>(-frontier.top().second);
        frontier.pop();
        int32_t cost = tiled.tile(id).numNodes();
        if (nodes_used + cost > node_budget)
            break;
        nodes_used += cost;
        selected[static_cast<size_t>(id)] = 1;
        for (TileId child : tiled.tile(id).children())
            admit(child);
    }
    program.hotCoverage = covered;

    // Flatten the region to a preorder straight-line program. Selected
    // dummy internal chains are transparent (they deterministically
    // continue to child 0); leaf-kind tiles resolve inline; everything
    // else becomes a cold exit at the first unselected tile, which the
    // layout builders always materialize as a walker entry.
    std::vector<TileLinks> links(static_cast<size_t>(tiled.numTiles()));
    std::vector<char> links_ready(
        static_cast<size_t>(tiled.numTiles()), 0);
    auto linksFor = [&](TileId id) -> const TileLinks & {
        if (!links_ready[static_cast<size_t>(id)]) {
            links[static_cast<size_t>(id)] =
                computeTileLinks(tiled, id);
            links_ready[static_cast<size_t>(id)] = 1;
        }
        return links[static_cast<size_t>(id)];
    };
    auto addOutcome = [&](HotPathProgram::Outcome outcome) -> int32_t {
        program.outcomes.push_back(outcome);
        return -static_cast<int32_t>(program.outcomes.size());
    };
    std::function<int32_t(TileId, int32_t)> emitNode;
    std::function<int32_t(TileId)> resolveTile =
        [&](TileId id) -> int32_t {
        while (tiled.tile(id).kind == Tile::Kind::kDummyInternal &&
               selected[static_cast<size_t>(id)]) {
            id = tiled.tile(id).children()[0];
        }
        Tile tile = tiled.tile(id);
        if (selected[static_cast<size_t>(id)]) {
            if (tile.isLeafKind()) {
                return addOutcome(
                    {true, tile.leafValue, kNoTile,
                     probability[static_cast<size_t>(id)]});
            }
            return emitNode(id, 0);
        }
        panicIf(tile.isLeafKind(),
                "hot-path exit edge lands on an unselected leaf tile");
        return addOutcome(
            {false, 0.0f, id, probability[static_cast<size_t>(id)]});
    };
    emitNode = [&](TileId id, int32_t slot) -> int32_t {
        Tile tile = tiled.tile(id);
        const TileLinks &l = linksFor(id);
        int32_t index = static_cast<int32_t>(program.nodes.size());
        program.nodes.push_back(
            {tile.nodes()[static_cast<size_t>(slot)], 0, 0});
        int32_t left_link = l.left[static_cast<size_t>(slot)];
        int32_t left_ref =
            left_link >= 0
                ? emitNode(id, left_link)
                : resolveTile(tile.children()[static_cast<size_t>(
                      l.exitLeft[static_cast<size_t>(slot)])]);
        int32_t right_link = l.right[static_cast<size_t>(slot)];
        int32_t right_ref =
            right_link >= 0
                ? emitNode(id, right_link)
                : resolveTile(tile.children()[static_cast<size_t>(
                      l.exitRight[static_cast<size_t>(slot)])]);
        program.nodes[static_cast<size_t>(index)].left = left_ref;
        program.nodes[static_cast<size_t>(index)].right = right_ref;
        return index;
    };

    int32_t root_ref = resolveTile(tiled.rootTile());
    panicIf(!program.nodes.empty() && root_ref != 0,
            "hot-path flattening did not start at node 0");
    return program;
}

} // namespace treebeard::hir
