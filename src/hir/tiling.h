/**
 * @file
 * The tree tiling pass of the high-level IR: basic tiling
 * (Algorithm 2), greedy probability-based tiling (Algorithm 1), and
 * the hybrid policy that applies probability-based tiling only to
 * leaf-biased trees (Section III-C).
 */
#ifndef TREEBEARD_HIR_TILING_H
#define TREEBEARD_HIR_TILING_H

#include <cstdint>

#include "hir/tiled_tree.h"
#include "model/forest.h"

namespace treebeard::hir {

/** Which tiling heuristic to run. */
enum class TilingAlgorithm {
    /** Algorithm 2: level-order tiles, minimizes tile depths. */
    kBasic,
    /** Algorithm 1: greedy expected-depth minimization. */
    kProbabilityBased,
    /**
     * Probability-based tiling on leaf-biased trees (per the
     * (alpha, beta) test), basic tiling elsewhere — the configuration
     * evaluated in Figure 11a.
     */
    kHybrid,
    /**
     * Greedy minimization of the maximum tiled leaf depth (one of the
     * tiling variants Section III-B2 leaves to future work): tiles
     * absorb the out-neighbor with the tallest subtree, compressing
     * the longest root-to-leaf paths.
     */
    kMinMaxDepth,
};

const char *tilingAlgorithmName(TilingAlgorithm algorithm);

/** Parameters of the tiling pass. */
struct TilingOptions
{
    TilingAlgorithm algorithm = TilingAlgorithm::kBasic;
    int32_t tileSize = 4;
    /** Leaf-bias gate (Section III-C): fraction of leaves... */
    double alpha = 0.075;
    /** ...covering this fraction of training hits. */
    double beta = 0.9;
};

/**
 * Per-node reach probabilities of @p tree (internal nodes included):
 * leaf entries come from leafProbabilities(), internal entries are the
 * post-order sums of their subtrees, so the root carries 1. Drives
 * probability-based tiling.
 */
std::vector<double> nodeProbabilities(const model::DecisionTree &tree);

/**
 * Tile @p tree with Algorithm 2 (basic, level-order traversal tiles).
 * The returned tiling is valid per Section III-B1.
 */
TiledTree basicTiling(const model::DecisionTree &tree, int32_t tile_size);

/**
 * Tile @p tree with Algorithm 1 (greedy probability-based): grow each
 * tile from its root by repeatedly absorbing the highest-probability
 * out-edge destination. Uses the tree's recorded hit counts; falls
 * back to uniform leaf probabilities when none exist.
 */
TiledTree probabilityBasedTiling(const model::DecisionTree &tree,
                                 int32_t tile_size);

/**
 * Tile @p tree greedily minimizing the maximum tiled leaf depth: each
 * tile repeatedly absorbs the out-edge destination whose subtree is
 * tallest.
 */
TiledTree minMaxDepthTiling(const model::DecisionTree &tree,
                            int32_t tile_size);

/** Tile @p tree per @p options (dispatches on the algorithm/gate). */
TiledTree tileTree(const model::DecisionTree &tree,
                   const TilingOptions &options);

} // namespace treebeard::hir

#endif // TREEBEARD_HIR_TILING_H
