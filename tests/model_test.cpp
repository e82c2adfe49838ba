/**
 * @file
 * Tests for the model layer: tree construction and traversal,
 * structural validation and failure injection, forest prediction,
 * statistics, and both serialization formats.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "model/model_stats.h"
#include "model/serialization.h"
#include "test_utils.h"

namespace treebeard::model {
namespace {

/** A small fixed tree: root splits f0 at 0.5; left leaf 1, right
 *  subtree splits f1 at 0.25 into leaves 2 and 3. */
DecisionTree
makeFixedTree()
{
    DecisionTree tree;
    NodeIndex l1 = tree.addLeaf(1.0f, 10);
    NodeIndex l2 = tree.addLeaf(2.0f, 20);
    NodeIndex l3 = tree.addLeaf(3.0f, 30);
    NodeIndex inner = tree.addInternal(1, 0.25f, l2, l3);
    tree.setRoot(tree.addInternal(0, 0.5f, l1, inner));
    return tree;
}

TEST(DecisionTree, PredictFollowsPredicates)
{
    DecisionTree tree = makeFixedTree();
    float row_a[2] = {0.2f, 0.9f}; // left -> leaf 1
    float row_b[2] = {0.9f, 0.1f}; // right, f1 < 0.25 -> leaf 2
    float row_c[2] = {0.9f, 0.9f}; // right, f1 >= 0.25 -> leaf 3
    EXPECT_EQ(tree.predict(row_a), 1.0f);
    EXPECT_EQ(tree.predict(row_b), 2.0f);
    EXPECT_EQ(tree.predict(row_c), 3.0f);
}

TEST(DecisionTree, BoundaryGoesRight)
{
    // The node predicate is strict: x < v, so x == v goes right.
    DecisionTree tree = makeFixedTree();
    float row[2] = {0.5f, 0.25f};
    EXPECT_EQ(tree.predict(row), 3.0f);
}

TEST(DecisionTree, StructureQueries)
{
    DecisionTree tree = makeFixedTree();
    EXPECT_EQ(tree.numNodes(), 5);
    EXPECT_EQ(tree.numLeaves(), 3);
    EXPECT_EQ(tree.maxDepth(), 2);
    EXPECT_EQ(tree.leafIndices().size(), 3u);
    std::vector<NodeIndex> parents = tree.parentArray();
    EXPECT_EQ(parents[static_cast<size_t>(tree.root())], kInvalidNode);
    EXPECT_EQ(tree.depth(tree.root()), 0);
    EXPECT_EQ(tree.depth(0), 1); // first leaf hangs off the root
}

TEST(DecisionTree, LeafProbabilitiesFromHitCounts)
{
    DecisionTree tree = makeFixedTree();
    std::vector<double> probabilities = tree.leafProbabilities();
    ASSERT_EQ(probabilities.size(), 3u);
    EXPECT_NEAR(probabilities[0], 10.0 / 60.0, 1e-12);
    EXPECT_NEAR(probabilities[1], 20.0 / 60.0, 1e-12);
    EXPECT_NEAR(probabilities[2], 30.0 / 60.0, 1e-12);
}

TEST(DecisionTree, UniformFallbackWithoutHitCounts)
{
    DecisionTree tree;
    NodeIndex l1 = tree.addLeaf(1.0f);
    NodeIndex l2 = tree.addLeaf(2.0f);
    tree.setRoot(tree.addInternal(0, 0.5f, l1, l2));
    std::vector<double> probabilities = tree.leafProbabilities();
    EXPECT_DOUBLE_EQ(probabilities[0], 0.5);
    EXPECT_DOUBLE_EQ(probabilities[1], 0.5);
}

TEST(DecisionTree, AccumulateInternalHitCounts)
{
    DecisionTree tree = makeFixedTree();
    tree.accumulateInternalHitCounts();
    EXPECT_DOUBLE_EQ(tree.node(tree.root()).hitCount, 60.0);
    EXPECT_DOUBLE_EQ(tree.node(3).hitCount, 50.0); // inner node
}

/**
 * Documented guarantee of DecisionTree::leafProbabilities(): with no
 * recorded hit counts the result is the deterministic uniform
 * distribution, not zeros or NaNs.
 */
TEST(LeafProbabilities, UniformFallbackWithoutStatistics)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 3;
    spec.statisticsRows = 0;
    spec.seed = 9500;
    Forest forest = testing::makeRandomForest(spec);
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        std::vector<double> probabilities =
            forest.tree(t).leafProbabilities();
        ASSERT_FALSE(probabilities.empty());
        double uniform = 1.0 / probabilities.size();
        double total = 0.0;
        for (double p : probabilities) {
            EXPECT_DOUBLE_EQ(p, uniform);
            total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
}

TEST(LeafProbabilities, RecordedStatisticsSumToOne)
{
    Forest forest = testing::makeRandomForest({});
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        std::vector<double> probabilities =
            forest.tree(t).leafProbabilities();
        double total = 0.0;
        for (double p : probabilities)
            total += p;
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
}

TEST(DecisionTreeValidate, DetectsStructuralCorruption)
{
    // Feature index out of range.
    {
        DecisionTree tree = makeFixedTree();
        EXPECT_THROW(tree.validate(1), Error);
        EXPECT_NO_THROW(tree.validate(2));
    }
    // Unreachable node.
    {
        DecisionTree tree = makeFixedTree();
        tree.addLeaf(9.0f);
        EXPECT_THROW(tree.validate(2), Error);
    }
    // Node with two parents.
    {
        DecisionTree tree;
        NodeIndex shared = tree.addLeaf(1.0f);
        NodeIndex l2 = tree.addLeaf(2.0f);
        NodeIndex a = tree.addInternal(0, 0.3f, shared, l2);
        NodeIndex root = tree.addInternal(0, 0.5f, a, shared);
        tree.setRoot(root);
        EXPECT_THROW(tree.validate(2), Error);
    }
    // Self-loop.
    {
        DecisionTree tree;
        NodeIndex leaf = tree.addLeaf(1.0f);
        NodeIndex bad = tree.addInternal(0, 0.5f, leaf, leaf);
        tree.setRoot(bad);
        // leaf has two parents via both child slots of the same node.
        EXPECT_THROW(tree.validate(2), Error);
    }
    // Empty tree / no root.
    {
        DecisionTree tree;
        EXPECT_THROW(tree.validate(2), Error);
        EXPECT_THROW(tree.setRoot(0), Error);
    }
}

TEST(Forest, PredictSumsTreesAndAppliesObjective)
{
    Forest forest(2, Objective::kRegression, 10.0f);
    forest.addTree(makeFixedTree());
    forest.addTree(makeFixedTree());
    float row[2] = {0.2f, 0.9f};
    EXPECT_EQ(forest.predict(row), 12.0f);
    EXPECT_EQ(forest.predictMargin(row), 12.0f);

    forest.setObjective(Objective::kBinaryLogistic);
    float expected = 1.0f / (1.0f + std::exp(-12.0f));
    EXPECT_FLOAT_EQ(forest.predict(row), expected);
}

TEST(Forest, AggregateStats)
{
    Forest forest(2);
    forest.addTree(makeFixedTree());
    forest.addTree(makeFixedTree());
    EXPECT_EQ(forest.totalNodes(), 10);
    EXPECT_EQ(forest.totalLeaves(), 6);
    EXPECT_EQ(forest.maxDepth(), 2);
    EXPECT_THROW(Forest(0).validate(), Error);
}

TEST(ModelStats, CoverageAndLeafBias)
{
    DecisionTree tree = makeFixedTree();
    // Probabilities: 1/6, 2/6, 3/6 sorted desc: .5, .333, .167.
    EXPECT_EQ(minLeavesForCoverage(tree, 0.5), 1);
    EXPECT_EQ(minLeavesForCoverage(tree, 0.8), 2);
    EXPECT_EQ(minLeavesForCoverage(tree, 0.99), 3);
    EXPECT_FALSE(isLeafBiased(tree, 0.075, 0.9));
    EXPECT_TRUE(isLeafBiased(tree, 0.99, 0.5));
}

TEST(ModelStats, CoverageCurveIsMonotone)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 30;
    model::Forest forest = testing::makeRandomForest(spec);
    std::vector<CoveragePoint> curve = leafCoverageCurve(forest, 0.9);
    ASSERT_EQ(curve.size(), 30u);
    for (size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].leafFraction, curve[i - 1].leafFraction);
        EXPECT_GT(curve[i].treeFraction, curve[i - 1].treeFraction);
    }
    EXPECT_NEAR(curve.back().treeFraction, 1.0, 1e-12);
}

TEST(ModelStats, ForestStatsShape)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 10;
    model::Forest forest = testing::makeRandomForest(spec);
    ForestStats stats = computeForestStats(forest);
    EXPECT_EQ(stats.numTrees, 10);
    EXPECT_EQ(stats.numFeatures, spec.numFeatures);
    EXPECT_GT(stats.totalNodes, stats.totalLeaves);
    EXPECT_GT(stats.averageLeafDepth, 0.0);
    EXPECT_LE(stats.leafBiasedTrees, stats.numTrees);
}

TEST(Serialization, NativeRoundTripPreservesEverything)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 6;
    spec.seed = 2024;
    model::Forest forest = testing::makeRandomForest(spec);
    forest.setObjective(Objective::kBinaryLogistic);
    forest.setBaseScore(0.125f);

    Forest loaded = forestFromJson(forestToJson(forest));
    EXPECT_EQ(loaded.numTrees(), forest.numTrees());
    EXPECT_EQ(loaded.numFeatures(), forest.numFeatures());
    EXPECT_EQ(loaded.baseScore(), forest.baseScore());
    EXPECT_EQ(loaded.objective(), forest.objective());

    std::vector<float> rows =
        testing::makeRandomRows(spec.numFeatures, 100, 1);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);
    std::vector<float> actual =
        testing::referencePredictions(loaded, rows);
    testing::expectPredictionsExact(expected, actual);

    // Hit counts survive (needed for probability tiling).
    EXPECT_EQ(loaded.tree(0).node(0).hitCount,
              forest.tree(0).node(0).hitCount);
}

TEST(Serialization, FileRoundTrip)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 3;
    model::Forest forest = testing::makeRandomForest(spec);
    std::string path = ::testing::TempDir() + "/treebeard_model.json";
    saveForest(forest, path);
    Forest loaded = loadForest(path);
    EXPECT_EQ(loaded.numTrees(), 3);
}

TEST(Serialization, RejectsWrongFormat)
{
    EXPECT_THROW(forestFromJson(JsonValue::parse("{}")), Error);
    EXPECT_THROW(
        forestFromJson(JsonValue::parse(R"({"format":"other"})")),
        Error);
    EXPECT_THROW(forestFromJson(JsonValue::parse(
                     R"({"format":"treebeard","version":99})")),
                 Error);
}

TEST(XgboostImport, ParsesDumpFormat)
{
    // A minimal two-tree XGBoost JSON dump.
    std::string text = R"({
      "learner": {
        "learner_model_param": {"num_feature": "3", "base_score": "0.5"},
        "objective": {"name": "reg:squarederror"},
        "gradient_booster": {
          "model": {
            "trees": [
              {
                "split_indices": [0, 0, 0],
                "split_conditions": [0.7, 1.5, 2.5],
                "left_children": [1, -1, -1],
                "right_children": [2, -1, -1],
                "base_weights": [0.0, 1.5, 2.5],
                "sum_hessian": [30.0, 10.0, 20.0]
              },
              {
                "split_indices": [2, 0, 0],
                "split_conditions": [0.25, -1.0, 1.0],
                "left_children": [1, -1, -1],
                "right_children": [2, -1, -1],
                "base_weights": [0.0, -1.0, 1.0]
              }
            ]
          }
        }
      }
    })";
    Forest forest = importXgboostJson(JsonValue::parse(text));
    EXPECT_EQ(forest.numTrees(), 2);
    EXPECT_EQ(forest.numFeatures(), 3);
    EXPECT_FLOAT_EQ(forest.baseScore(), 0.5f);

    float row[3] = {0.1f, 0.0f, 0.9f};
    // Tree 0: f0 < 0.7 -> 1.5; tree 1: f2 >= 0.25 -> 1.0; + 0.5.
    EXPECT_FLOAT_EQ(forest.predict(row), 0.5f + 1.5f + 1.0f);
    // Hessians recorded as hit counts.
    EXPECT_DOUBLE_EQ(forest.tree(0).node(1).hitCount, 10.0);
}

TEST(XgboostImport, LogisticObjective)
{
    std::string text = R"({
      "learner": {
        "learner_model_param": {"num_feature": "1", "base_score": "0"},
        "objective": {"name": "binary:logistic"},
        "gradient_booster": {
          "model": {
            "trees": [
              {
                "split_indices": [0, 0, 0],
                "split_conditions": [0.5, 0, 0],
                "left_children": [1, -1, -1],
                "right_children": [2, -1, -1],
                "base_weights": [0.0, -2.0, 2.0]
              }
            ]
          }
        }
      }
    })";
    Forest forest = importXgboostJson(JsonValue::parse(text));
    EXPECT_EQ(forest.objective(), Objective::kBinaryLogistic);
    float row = 0.9f;
    EXPECT_FLOAT_EQ(forest.predict(&row),
                    1.0f / (1.0f + std::exp(-2.0f)));
}

} // namespace
} // namespace treebeard::model
