/**
 * @file
 * Tests for the HIR tiling transformations (Section III): validity
 * constraints of both tiling algorithms, traversal equivalence of
 * tiled trees, padding, expected-depth behaviour of probability-based
 * tiling on leaf-biased trees, and the leaf-bias gate.
 */
#include <gtest/gtest.h>

#include "hir/tiling.h"
#include "model/model_stats.h"
#include "test_utils.h"

namespace treebeard::hir {
namespace {

using testing::makeRandomForest;
using testing::makeRandomRows;

struct TilingCase
{
    int32_t tileSize;
    TilingAlgorithm algorithm;
    uint64_t seed;
};

std::string
tilingCaseName(const ::testing::TestParamInfo<TilingCase> &info)
{
    std::string name = tilingAlgorithmName(info.param.algorithm);
    // gtest parameterized-test names must be alphanumeric.
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + "_nt" + std::to_string(info.param.tileSize) +
           "_seed" + std::to_string(info.param.seed);
}

class TilingValidity : public ::testing::TestWithParam<TilingCase>
{};

TEST_P(TilingValidity, ProducesValidTilingAndEquivalentWalks)
{
    const TilingCase &c = GetParam();
    testing::RandomForestSpec spec;
    spec.numTrees = 8;
    spec.maxDepth = 8;
    spec.splitProbability = 0.7;
    spec.seed = c.seed;
    model::Forest forest = makeRandomForest(spec);
    std::vector<float> rows = makeRandomRows(spec.numFeatures, 100,
                                             c.seed + 1);

    TilingOptions options;
    options.algorithm = c.algorithm;
    options.tileSize = c.tileSize;
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        const model::DecisionTree &tree = forest.tree(t);
        TiledTree tiled = tileTree(tree, options);
        tiled.validate();

        // Tile sizes respected.
        for (TileId id = 0; id < tiled.numTiles(); ++id) {
            EXPECT_LE(tiled.tile(id).numNodes(), c.tileSize);
        }

        // Walk equivalence against the binary tree.
        for (int64_t r = 0; r < 100; ++r) {
            const float *row = rows.data() + r * spec.numFeatures;
            EXPECT_EQ(tree.predict(row), tiled.predict(row))
                << "tree " << t << " row " << r;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TilingValidity,
    ::testing::Values(
        TilingCase{1, TilingAlgorithm::kBasic, 1},
        TilingCase{2, TilingAlgorithm::kBasic, 2},
        TilingCase{3, TilingAlgorithm::kBasic, 3},
        TilingCase{4, TilingAlgorithm::kBasic, 4},
        TilingCase{8, TilingAlgorithm::kBasic, 5},
        TilingCase{1, TilingAlgorithm::kProbabilityBased, 6},
        TilingCase{2, TilingAlgorithm::kProbabilityBased, 7},
        TilingCase{4, TilingAlgorithm::kProbabilityBased, 8},
        TilingCase{8, TilingAlgorithm::kProbabilityBased, 9},
        TilingCase{5, TilingAlgorithm::kBasic, 10},
        TilingCase{6, TilingAlgorithm::kProbabilityBased, 11},
        TilingCase{7, TilingAlgorithm::kProbabilityBased, 12},
        TilingCase{2, TilingAlgorithm::kMinMaxDepth, 13},
        TilingCase{4, TilingAlgorithm::kMinMaxDepth, 14},
        TilingCase{8, TilingAlgorithm::kMinMaxDepth, 15},
        TilingCase{4, TilingAlgorithm::kHybrid, 16},
        TilingCase{8, TilingAlgorithm::kHybrid, 17}),
    tilingCaseName);

TEST(MinMaxDepthTiling, NeverDeeperThanBasicOnChains)
{
    // On an unbalanced tree the min-max-depth heuristic must achieve
    // a maximum tiled leaf depth no worse than basic tiling's.
    testing::RandomForestSpec spec;
    spec.numTrees = 10;
    spec.maxDepth = 9;
    spec.splitProbability = 0.55; // very unbalanced
    spec.seed = 777;
    model::Forest forest = makeRandomForest(spec);
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        TiledTree minmax = minMaxDepthTiling(forest.tree(t), 4);
        TiledTree basic = basicTiling(forest.tree(t), 4);
        minmax.validate();
        EXPECT_LE(minmax.maxLeafDepth(), basic.maxLeafDepth() + 1);
    }
}

TEST(BasicTiling, SingleLeafTree)
{
    model::DecisionTree tree;
    tree.setRoot(tree.addLeaf(0.75f));
    TiledTree tiled = basicTiling(tree, 4);
    tiled.validate();
    EXPECT_EQ(tiled.numTiles(), 1);
    EXPECT_EQ(tiled.maxLeafDepth(), 0);
    float row = 0.0f;
    EXPECT_EQ(tiled.predict(&row), 0.75f);
}

TEST(BasicTiling, CompleteTreeMatchesFastStyleTiling)
{
    // A perfectly balanced depth-4 tree with tile size 3 should tile
    // into complete triangular tiles of 3 nodes covering two levels
    // each (the FAST tiling the paper generalizes): depth-4 tree ->
    // tiled depth 2.
    model::DecisionTree tree;
    // Build a complete tree of depth 4 bottom-up.
    std::vector<model::NodeIndex> level;
    for (int i = 0; i < 16; ++i)
        level.push_back(tree.addLeaf(static_cast<float>(i)));
    int32_t feature = 0;
    while (level.size() > 1) {
        std::vector<model::NodeIndex> next;
        for (size_t i = 0; i < level.size(); i += 2) {
            next.push_back(tree.addInternal(feature % 4, 0.5f, level[i],
                                            level[i + 1]));
            ++feature;
        }
        level = std::move(next);
    }
    tree.setRoot(level[0]);
    tree.validate(4);

    TiledTree tiled = basicTiling(tree, 3);
    tiled.validate();
    EXPECT_TRUE(tiled.isPerfectlyBalanced());
    EXPECT_EQ(tiled.maxLeafDepth(), 2);
    for (TileId id = 0; id < tiled.numTiles(); ++id) {
        const Tile &tile = tiled.tile(id);
        if (tile.kind == Tile::Kind::kInternal) {
            EXPECT_EQ(tile.numNodes(), 3);
        }
    }
}

TEST(BasicTiling, ReducesImbalanceOfChains)
{
    // A pure left chain of depth 8: basic tiling with tile size 4
    // groups 4 chain nodes per tile, giving tiled depth 2 --
    // "naturally reduces the imbalance in trees".
    model::DecisionTree tree;
    model::NodeIndex current = tree.addLeaf(1.0f);
    for (int d = 0; d < 8; ++d) {
        model::NodeIndex leaf = tree.addLeaf(static_cast<float>(d));
        current = tree.addInternal(0, 0.1f * (d + 1), current, leaf);
    }
    tree.setRoot(current);
    tree.validate(1);
    EXPECT_EQ(tree.maxDepth(), 8);

    TiledTree tiled = basicTiling(tree, 4);
    tiled.validate();
    EXPECT_EQ(tiled.maxLeafDepth(), 2);
}

TEST(ProbabilityTiling, ShortensHotPathOnBiasedTree)
{
    // A chain tree where the deepest leaf receives nearly all hits:
    // probability-based tiling must give the hot leaf a smaller tiled
    // depth than basic tiling gives it, reducing expected depth.
    model::DecisionTree tree;
    // Chain to the LEFT: hot path is left-left-left...
    model::NodeIndex current = tree.addLeaf(9.0f, /*hit_count=*/1000);
    for (int d = 0; d < 6; ++d) {
        model::NodeIndex cold = tree.addLeaf(static_cast<float>(d),
                                             /*hit_count=*/1);
        current = tree.addInternal(0, 0.9f - 0.1f * d, current, cold);
    }
    tree.setRoot(current);
    tree.validate(1);
    tree.accumulateInternalHitCounts();

    TiledTree prob = probabilityBasedTiling(tree, 4);
    TiledTree basic = basicTiling(tree, 4);
    prob.validate();
    basic.validate();
    EXPECT_LE(prob.expectedDepth(), basic.expectedDepth() + 1e-12);
}

TEST(ProbabilityTiling, MinimizesExpectedDepthOnRandomBiasedTrees)
{
    // On strongly biased synthetic trees, probability tiling should
    // (weakly) beat basic tiling's expected depth most of the time.
    data::SyntheticModelSpec spec;
    spec.name = "biased";
    spec.numFeatures = 6;
    spec.numTrees = 30;
    spec.maxDepth = 9;
    spec.featureDistribution = data::FeatureDistribution::kBinarySparse;
    spec.binaryOneProbability = 0.05;
    spec.trainingRows = 2000;
    spec.seed = 99;
    model::Forest forest = data::synthesizeForest(spec);

    int better_or_equal = 0;
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        TiledTree prob = probabilityBasedTiling(forest.tree(t), 8);
        TiledTree basic = basicTiling(forest.tree(t), 8);
        if (prob.expectedDepth() <= basic.expectedDepth() + 1e-9)
            ++better_or_equal;
    }
    EXPECT_GE(better_or_equal, forest.numTrees() * 2 / 3);
}

TEST(Padding, BalancesTreeAndPreservesPredictions)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 5;
    spec.splitProbability = 0.55; // quite unbalanced
    spec.seed = 321;
    model::Forest forest = makeRandomForest(spec);
    std::vector<float> rows = makeRandomRows(spec.numFeatures, 60, 7);

    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        const model::DecisionTree &tree = forest.tree(t);
        TiledTree tiled = basicTiling(tree, 4);
        int32_t target = tiled.maxLeafDepth();
        tiled.padToDepth(target);
        tiled.validate();
        EXPECT_TRUE(tiled.isPerfectlyBalanced());
        EXPECT_EQ(tiled.maxLeafDepth(), target);
        for (int64_t r = 0; r < 60; ++r) {
            const float *row = rows.data() + r * spec.numFeatures;
            EXPECT_EQ(tree.predict(row), tiled.predict(row));
        }
    }
}

TEST(Padding, PadBeyondCurrentDepth)
{
    model::DecisionTree tree;
    model::NodeIndex left = tree.addLeaf(1.0f);
    model::NodeIndex right = tree.addLeaf(2.0f);
    tree.setRoot(tree.addInternal(0, 0.5f, left, right));

    TiledTree tiled = basicTiling(tree, 2);
    EXPECT_EQ(tiled.maxLeafDepth(), 1);
    tiled.padToDepth(3);
    tiled.validate();
    EXPECT_TRUE(tiled.isPerfectlyBalanced());
    EXPECT_EQ(tiled.maxLeafDepth(), 3);

    float row_low = 0.2f, row_high = 0.8f;
    EXPECT_EQ(tiled.predict(&row_low), 1.0f);
    EXPECT_EQ(tiled.predict(&row_high), 2.0f);

    EXPECT_THROW(tiled.padToDepth(1), Error);
}

TEST(LeafBiasGate, HybridSelectsPerTree)
{
    // Leaf-biased tree: one dominant leaf.
    model::DecisionTree biased;
    {
        std::vector<model::NodeIndex> leaves;
        for (int i = 0; i < 8; ++i)
            leaves.push_back(biased.addLeaf(
                static_cast<float>(i), i == 0 ? 10000.0 : 1.0));
        std::vector<model::NodeIndex> level = leaves;
        int f = 0;
        while (level.size() > 1) {
            std::vector<model::NodeIndex> next;
            for (size_t i = 0; i < level.size(); i += 2) {
                next.push_back(biased.addInternal(
                    f++ % 3, 0.5f, level[i], level[i + 1]));
            }
            level = std::move(next);
        }
        biased.setRoot(level[0]);
        biased.accumulateInternalHitCounts();
    }
    EXPECT_TRUE(model::isLeafBiased(biased, 0.2, 0.9));
    EXPECT_FALSE(model::isLeafBiased(biased, 0.05, 0.9));

    // Uniform tree: no bias at any sensible alpha.
    model::DecisionTree uniform;
    {
        std::vector<model::NodeIndex> level;
        for (int i = 0; i < 8; ++i)
            level.push_back(uniform.addLeaf(static_cast<float>(i), 10.0));
        int f = 0;
        while (level.size() > 1) {
            std::vector<model::NodeIndex> next;
            for (size_t i = 0; i < level.size(); i += 2) {
                next.push_back(uniform.addInternal(
                    f++ % 3, 0.5f, level[i], level[i + 1]));
            }
            level = std::move(next);
        }
        uniform.setRoot(level[0]);
        uniform.accumulateInternalHitCounts();
    }
    EXPECT_FALSE(model::isLeafBiased(uniform, 0.2, 0.9));
}

TEST(TiledTreeStructure, SignatureDistinguishesShapes)
{
    model::DecisionTree small;
    small.setRoot(small.addInternal(0, 0.5f, small.addLeaf(1.0f),
                                    small.addLeaf(2.0f)));
    model::DecisionTree larger;
    {
        model::NodeIndex l1 = larger.addLeaf(1.0f);
        model::NodeIndex l2 = larger.addLeaf(2.0f);
        model::NodeIndex l3 = larger.addLeaf(3.0f);
        model::NodeIndex inner = larger.addInternal(1, 0.3f, l1, l2);
        larger.setRoot(larger.addInternal(0, 0.5f, inner, l3));
    }
    TiledTree a = basicTiling(small, 2);
    TiledTree b = basicTiling(larger, 2);
    EXPECT_NE(a.structureSignature(), b.structureSignature());
    TiledTree a2 = basicTiling(small, 2);
    EXPECT_EQ(a.structureSignature(), a2.structureSignature());
}

} // namespace
} // namespace treebeard::hir
