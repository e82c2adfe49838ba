#include "hir/hir_module.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "model/model_stats.h"

namespace treebeard::hir {

HirModule::HirModule(model::Forest forest, Schedule schedule)
    : forest_(std::move(forest)), schedule_(schedule)
{
    schedule_.validate();
    forest_.validate();
    treeOrder_.resize(static_cast<size_t>(forest_.numTrees()));
    std::iota(treeOrder_.begin(), treeOrder_.end(), 0);
}

const TiledTree &
HirModule::tiledTree(int64_t tree_id) const
{
    panicIf(!isTiled(), "tiling pass has not run");
    panicIf(tree_id < 0 || tree_id >= forest_.numTrees(),
            "tree id out of range");
    return tiledTrees_[static_cast<size_t>(tree_id)];
}

TilingAlgorithm
HirModule::appliedTiling(int64_t tree_id) const
{
    panicIf(!isTiled(), "tiling pass has not run");
    return appliedTiling_[static_cast<size_t>(tree_id)];
}

void
HirModule::runTilingPass()
{
    tiledTrees_.clear();
    appliedTiling_.clear();
    tiledTrees_.reserve(static_cast<size_t>(forest_.numTrees()));

    TilingOptions options;
    options.tileSize = schedule_.tileSize;
    options.alpha = schedule_.alpha;
    options.beta = schedule_.beta;

    for (int64_t t = 0; t < forest_.numTrees(); ++t) {
        const model::DecisionTree &tree = forest_.tree(t);
        TilingAlgorithm applied = schedule_.tiling;
        if (schedule_.tiling == TilingAlgorithm::kHybrid) {
            applied = model::isLeafBiased(tree, schedule_.alpha,
                                          schedule_.beta)
                          ? TilingAlgorithm::kProbabilityBased
                          : TilingAlgorithm::kBasic;
        }
        options.algorithm = applied;
        tiledTrees_.push_back(tileTree(tree, options));
        appliedTiling_.push_back(applied);
    }
}

void
HirModule::runReorderPass()
{
    fatalIf(!isTiled(), "reorder pass requires the tiling pass");
    groups_.clear();

    int64_t num_trees = forest_.numTrees();
    std::vector<bool> unrollable(static_cast<size_t>(num_trees), false);
    // Each tree's walk key, from one depth pass per tree: the unrolled
    // walk depth (max leaf depth, which padding preserves) for
    // unrollable trees, the peel depth (min leaf depth) otherwise.
    std::vector<int32_t> walk_key(static_cast<size_t>(num_trees));

    for (int64_t t = 0; t < num_trees; ++t) {
        TiledTree &tiled = tiledTrees_[static_cast<size_t>(t)];
        auto [min_depth, max_depth] = tiled.leafDepthRange();
        walk_key[static_cast<size_t>(t)] = min_depth;
        if (!schedule_.padAndUnrollWalks)
            continue;
        // Pad almost-balanced trees (basic tiling produces these) so
        // their walks can be fully unrolled.
        int32_t imbalance = max_depth - min_depth;
        // Single-leaf trees have no walk to unroll.
        if (imbalance <= schedule_.padDepthSlack && max_depth >= 1) {
            if (imbalance > 0)
                tiled.padToDepth(max_depth);
            unrollable[static_cast<size_t>(t)] = true;
            walk_key[static_cast<size_t>(t)] = max_depth;
        }
    }

    if (schedule_.padAndUnrollWalks) {
        // Sort execution order: unrolled trees first, by walk depth,
        // so trees sharing one unrolled body are adjacent; generic
        // trees afterwards by peel (min leaf) depth.
        std::sort(treeOrder_.begin(), treeOrder_.end(),
                  [&unrollable, &walk_key](int64_t a, int64_t b) {
                      bool ua = unrollable[static_cast<size_t>(a)];
                      bool ub = unrollable[static_cast<size_t>(b)];
                      if (ua != ub)
                          return ua > ub;
                      int32_t ka = walk_key[static_cast<size_t>(a)];
                      int32_t kb = walk_key[static_cast<size_t>(b)];
                      if (ka != kb)
                          return ka < kb;
                      return a < b;
                  });
    }

    // Form groups of consecutive positions with identical walk keys.
    auto key_of = [&unrollable, &walk_key](int64_t tree_id) {
        return std::make_pair(
            static_cast<bool>(unrollable[static_cast<size_t>(tree_id)]),
            walk_key[static_cast<size_t>(tree_id)]);
    };

    int64_t position = 0;
    while (position < num_trees) {
        auto key = key_of(treeOrder_[static_cast<size_t>(position)]);
        int64_t end = position + 1;
        while (end < num_trees &&
               key_of(treeOrder_[static_cast<size_t>(end)]) == key) {
            ++end;
        }
        TreeGroup group;
        group.beginPos = position;
        group.endPos = end;
        group.unrolledWalk = key.first;
        group.walkDepth = key.first ? key.second : 0;
        group.peelDepth =
            (!key.first && schedule_.peelWalks) ? key.second : 0;
        groups_.push_back(group);
        position = end;
    }
}

void
HirModule::runAllHirPasses()
{
    runTilingPass();
    runReorderPass();
}

void
HirModule::validateTiling() const
{
    fatalIf(!isTiled(), "tiling pass has not run");
    for (const TiledTree &tiled : tiledTrees_)
        tiled.validate();
}

int64_t
HirModule::footprintBytes() const
{
    int64_t bytes = 0;
    for (const TiledTree &tiled : tiledTrees_)
        bytes += static_cast<int64_t>(sizeof(TiledTree)) +
                 tiled.footprintBytes();
    bytes += static_cast<int64_t>(appliedTiling_.size() *
                                      sizeof(TilingAlgorithm) +
                                  treeOrder_.size() * sizeof(int64_t) +
                                  groups_.size() * sizeof(TreeGroup));
    return bytes;
}

std::string
HirModule::dump() const
{
    std::ostringstream os;
    os << "hir.module {\n";
    os << "  schedule: " << schedule_.toString() << "\n";
    os << "  forest: " << forest_.numTrees() << " trees, "
       << forest_.numFeatures() << " features, objective "
       << model::objectiveName(forest_.objective()) << "\n";
    os << "  footprint: " << footprintBytes() << " bytes\n";
    if (isTiled()) {
        for (int64_t t = 0; t < forest_.numTrees(); ++t) {
            const TiledTree &tiled =
                tiledTrees_[static_cast<size_t>(t)];
            auto [min_depth, max_depth] = tiled.leafDepthRange();
            os << "  tree " << t << ": "
               << tilingAlgorithmName(
                      appliedTiling_[static_cast<size_t>(t)])
               << " tiling, " << tiled.numTiles() << " tiles, depth ["
               << min_depth << ", " << max_depth << "]\n";
        }
    }
    if (!groups_.empty()) {
        for (size_t g = 0; g < groups_.size(); ++g) {
            const TreeGroup &group = groups_[g];
            os << "  group " << g << ": positions [" << group.beginPos
               << ", " << group.endPos << ")"
               << (group.unrolledWalk
                       ? " unrolled depth " +
                             std::to_string(group.walkDepth)
                       : " generic peel " +
                             std::to_string(group.peelDepth))
               << "\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace treebeard::hir
