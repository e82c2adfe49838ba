/**
 * @file
 * Selective branchless hot-path emission: selection invariants of
 * buildHotPathProgram (coverage, budget truncation, no-statistics
 * fallback), cross-backend bit-exactness with nonzero coverage across
 * layouts and precisions, the hir.hotpath.no-stats diagnostic, the
 * schedule knob's JSON round-trip, the leafProbabilities uniform-
 * fallback guarantee, and the tuner's JSON-lines database writer.
 */
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json.h"
#include "hir/hot_path.h"
#include "hir/tiling.h"
#include "test_utils.h"
#include "treebeard/compiler.h"
#include "tuner/auto_tuner.h"

namespace treebeard {
namespace {

using testing::expectPredictionsExact;
using testing::makeRandomForest;
using testing::makeRandomRows;
using testing::quantizeLeafValues;

/** Rows with NaNs sprinkled in to exercise default-left routing. */
std::vector<float>
makeRowsWithNans(int32_t num_features, int64_t num_rows, uint64_t seed)
{
    std::vector<float> rows =
        makeRandomRows(num_features, num_rows, seed);
    for (size_t i = 0; i < rows.size(); i += 7)
        rows[i] = std::numeric_limits<float>::quiet_NaN();
    return rows;
}

/**
 * Interpret a hot-path program against its base tree. Returns the leaf
 * value when the row resolves in-region and sets @p resolved; cold
 * exits leave @p resolved false (the caller cannot continue without
 * the lowered buffers, which the parity tests cover end to end).
 */
float
runProgram(const hir::HotPathProgram &program,
           const model::DecisionTree &tree, const float *row,
           bool *resolved)
{
    int32_t ref = program.nodes.empty() ? -1 : 0;
    while (ref >= 0) {
        const hir::HotPathProgram::Node &pn = program.nodes[ref];
        const model::Node &n = tree.node(pn.node);
        float value = row[n.featureIndex];
        bool go_left =
            std::isnan(value) ? n.defaultLeft : value < n.threshold;
        ref = go_left ? pn.left : pn.right;
    }
    const hir::HotPathProgram::Outcome &out =
        program.outcomes[static_cast<size_t>(-(ref + 1))];
    *resolved = out.isLeaf;
    return out.isLeaf ? out.leafValue : 0.0f;
}

double
outcomeProbabilitySum(const hir::HotPathProgram &program)
{
    double total = 0.0;
    for (const hir::HotPathProgram::Outcome &out : program.outcomes)
        total += out.probability;
    return total;
}

TEST(HotPathSelection, FullCoverageResolvesEveryRowInRegion)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 6;
    spec.maxDepth = 6;
    spec.seed = 9100;
    model::Forest forest = makeRandomForest(spec);
    std::vector<float> rows =
        makeRowsWithNans(spec.numFeatures, 80, 9101);

    hir::TilingOptions options;
    options.tileSize = 4;
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        const model::DecisionTree &tree = forest.tree(t);
        hir::TiledTree tiled = hir::tileTree(tree, options);
        hir::HotPathProgram program =
            hir::buildHotPathProgram(tiled, 1.0);
        EXPECT_FALSE(program.depthFallback);
        EXPECT_NEAR(program.hotCoverage, 1.0, 1e-9);
        EXPECT_NEAR(outcomeProbabilitySum(program), 1.0, 1e-9);
        // Leaves never hit during training carry zero mass and may
        // stay outside the region even at coverage 1; every outcome
        // that carries mass must be a resolved leaf.
        for (const hir::HotPathProgram::Outcome &out :
             program.outcomes) {
            if (!out.isLeaf) {
                EXPECT_NEAR(out.probability, 0.0, 1e-12);
            }
        }
        for (int64_t r = 0; r < 80; ++r) {
            const float *row = rows.data() + r * spec.numFeatures;
            bool resolved = false;
            float value = runProgram(program, tree, row, &resolved);
            if (resolved) {
                EXPECT_EQ(value, tree.predict(row))
                    << "tree " << t << " row " << r;
            }
        }
    }
}

/**
 * Under the uniform no-statistics distribution every leaf carries
 * mass, so coverage 1 must resolve every row in-region — the strict
 * form of the full-coverage property.
 */
TEST(HotPathSelection, UniformFullCoverageResolvesEveryRow)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 6;
    spec.maxDepth = 6;
    spec.statisticsRows = 0;
    spec.seed = 9150;
    model::Forest forest = makeRandomForest(spec);
    std::vector<float> rows =
        makeRowsWithNans(spec.numFeatures, 80, 9151);

    hir::TilingOptions options;
    options.tileSize = 4;
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        const model::DecisionTree &tree = forest.tree(t);
        hir::TiledTree tiled = hir::tileTree(tree, options);
        hir::HotPathProgram program =
            hir::buildHotPathProgram(tiled, 1.0);
        EXPECT_TRUE(program.depthFallback);
        EXPECT_NEAR(program.hotCoverage, 1.0, 1e-9);
        for (const hir::HotPathProgram::Outcome &out :
             program.outcomes) {
            EXPECT_TRUE(out.isLeaf);
        }
        for (int64_t r = 0; r < 80; ++r) {
            const float *row = rows.data() + r * spec.numFeatures;
            bool resolved = false;
            float value = runProgram(program, tree, row, &resolved);
            ASSERT_TRUE(resolved) << "tree " << t << " row " << r;
            EXPECT_EQ(value, tree.predict(row))
                << "tree " << t << " row " << r;
        }
    }
}

TEST(HotPathSelection, ZeroCoverageIsEmpty)
{
    model::Forest forest = makeRandomForest({});
    hir::TiledTree tiled =
        hir::tileTree(forest.tree(0), hir::TilingOptions{});
    EXPECT_TRUE(hir::buildHotPathProgram(tiled, 0.0).empty());
}

TEST(HotPathSelection, PartialCoverageMeetsTargetAndAgreesOnHotRows)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 4;
    spec.maxDepth = 7;
    spec.splitProbability = 0.8;
    spec.seed = 9200;
    model::Forest forest = makeRandomForest(spec);
    std::vector<float> rows =
        makeRowsWithNans(spec.numFeatures, 120, 9201);

    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        const model::DecisionTree &tree = forest.tree(t);
        hir::TiledTree tiled =
            hir::tileTree(tree, hir::TilingOptions{});
        hir::HotPathProgram half =
            hir::buildHotPathProgram(tiled, 0.5);
        hir::HotPathProgram full =
            hir::buildHotPathProgram(tiled, 1.0);
        // The greedy selection admits tiles until the target mass is
        // reached, so the partial region is never larger than the full
        // one and carries at least the requested leaf mass.
        EXPECT_GE(half.hotCoverage, 0.5);
        EXPECT_LE(half.nodes.size(), full.nodes.size());
        EXPECT_NEAR(outcomeProbabilitySum(half), 1.0, 1e-9);
        for (int64_t r = 0; r < 120; ++r) {
            const float *row = rows.data() + r * spec.numFeatures;
            bool resolved = false;
            float value = runProgram(half, tree, row, &resolved);
            if (resolved) {
                EXPECT_EQ(value, tree.predict(row));
            }
        }
    }
}

TEST(HotPathSelection, NodeBudgetTruncatesButStaysValid)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 1;
    spec.maxDepth = 10;
    spec.splitProbability = 0.95;
    spec.seed = 9300;
    model::Forest forest = makeRandomForest(spec);
    const model::DecisionTree &tree = forest.tree(0);
    hir::TiledTree tiled = hir::tileTree(tree, hir::TilingOptions{});

    hir::HotPathProgram program =
        hir::buildHotPathProgram(tiled, 1.0, /*node_budget=*/7);
    EXPECT_LE(program.nodes.size(), 7u);
    EXPECT_LT(program.hotCoverage, 1.0);
    EXPECT_NEAR(outcomeProbabilitySum(program), 1.0, 1e-9);
    bool has_cold_exit = false;
    double leaf_mass = 0.0;
    for (const hir::HotPathProgram::Outcome &out : program.outcomes) {
        if (!out.isLeaf)
            has_cold_exit = true;
        else
            leaf_mass += out.probability;
    }
    EXPECT_TRUE(has_cold_exit);
    EXPECT_NEAR(leaf_mass, program.hotCoverage, 1e-9);
}

TEST(HotPathSelection, NoStatisticsFallsBackToDepthSelection)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 1;
    spec.statisticsRows = 0;
    spec.seed = 9400;
    model::Forest forest = makeRandomForest(spec);
    hir::TiledTree tiled =
        hir::tileTree(forest.tree(0), hir::TilingOptions{});
    hir::HotPathProgram program =
        hir::buildHotPathProgram(tiled, 0.8);
    EXPECT_TRUE(program.depthFallback);
    EXPECT_FALSE(program.empty());
    EXPECT_NEAR(outcomeProbabilitySum(program), 1.0, 1e-9);
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
    model::Forest forest = makeRandomForest(spec);
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
    model::Forest forest = makeRandomForest({});
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        std::vector<double> probabilities =
            forest.tree(t).leafProbabilities();
        double total = 0.0;
        for (double p : probabilities)
            total += p;
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
}

/** A binary or multiclass quantized test forest. */
model::Forest
makeForest(bool multiclass, uint64_t seed)
{
    testing::RandomForestSpec spec;
    spec.numTrees = multiclass ? 12 : 10;
    spec.maxDepth = 5;
    spec.seed = seed;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    if (multiclass) {
        forest.setObjective(model::Objective::kMulticlassSoftmax);
        forest.setNumClasses(3);
        forest.setBaseScore(0.0f);
    }
    return forest;
}

/** Predictions from one backend (verifyEach exercises the LIR hot-path
 * verifier on every kernel compile). */
std::vector<float>
predictWith(Backend backend, const model::Forest &forest,
            const hir::Schedule &schedule,
            const std::vector<float> &rows)
{
    CompilerOptions options;
    options.backend = backend;
    options.jit.optLevel = "-O0";
    options.verifyEach = backend == Backend::kKernel;
    Session session = compile(forest, schedule, options);
    int64_t num_rows = static_cast<int64_t>(rows.size()) /
                       forest.numFeatures();
    std::vector<float> predictions(
        static_cast<size_t>(num_rows) * forest.numClasses());
    session.predict(rows.data(), num_rows, predictions.data());
    return predictions;
}

/**
 * Every byte of the case is part of its ctest name (see ParityCase in
 * backend_parity_test.cpp): `nameBytes` replaces uninitialized padding
 * with the bytes each name was recorded with. The test never reads
 * them.
 */
struct HotParityCase
{
    hir::MemoryLayout layout;
    int32_t tileSize;
    bool multiclass;
    std::array<uint8_t, 3> nameBytes;
    hir::PackedPrecision precision;
};
static_assert(sizeof(HotParityCase) == 16, "case names print 16 bytes");

HotParityCase
hotParityCase(hir::MemoryLayout layout, int32_t tileSize, bool multiclass,
              hir::PackedPrecision precision = hir::PackedPrecision::kF32,
              std::array<uint8_t, 3> nameBytes = {})
{
    return HotParityCase{layout, tileSize, multiclass, nameBytes,
                         precision};
}

class HotPathParity : public ::testing::TestWithParam<HotParityCase>
{};

/**
 * With a nonzero hot-path coverage, both backends must stay bit-exact
 * with each other AND with the coverage-0 plain walk: the hot region
 * only changes how a row reaches its leaf, never which leaf it
 * reaches, and per-row accumulation stays positions-ascending.
 */
TEST_P(HotPathParity, HotRegionPreservesBitExactness)
{
    const HotParityCase &c = GetParam();
    model::Forest forest = makeForest(c.multiclass, 9600 + c.tileSize);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 64, 9700);

    hir::Schedule cold;
    cold.layout = c.layout;
    cold.tileSize = c.tileSize;
    cold.packedPrecision = c.precision;
    std::vector<float> baseline =
        predictWith(Backend::kKernel, forest, cold, rows);

    for (double coverage : {0.5, 1.0}) {
        hir::Schedule hot = cold;
        hot.hotPathCoverage = coverage;
        std::vector<float> kernel =
            predictWith(Backend::kKernel, forest, hot, rows);
        expectPredictionsExact(baseline, kernel);
        std::vector<float> jit =
            predictWith(Backend::kSourceJit, forest, hot, rows);
        expectPredictionsExact(baseline, jit);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HotPathParity,
    ::testing::Values(
        hotParityCase(hir::MemoryLayout::kSparse, 1, false,
                      hir::PackedPrecision::kF32, {0x69, 0x73, 0x00}),
        hotParityCase(hir::MemoryLayout::kSparse, 4, false,
                      hir::PackedPrecision::kF32, {0x5F, 0x74, 0x00}),
        hotParityCase(hir::MemoryLayout::kArray, 4, false),
        hotParityCase(hir::MemoryLayout::kPacked, 4, false),
        // Int16-quantized records: hot compares run on the same
        // quantized immediates as the cold walker, NaN sentinel
        // included.
        hotParityCase(hir::MemoryLayout::kPacked, 4, false,
                      hir::PackedPrecision::kI16, {0x00, 0x04, 0x00}),
        hotParityCase(hir::MemoryLayout::kSparse, 4, true,
                      hir::PackedPrecision::kF32, {0xFF, 0x70, 0x00}),
        hotParityCase(hir::MemoryLayout::kPacked, 4, true,
                      hir::PackedPrecision::kI16)));

TEST(HotPathCompile, NoStatsDiagnosticSurfacesInArtifacts)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 4;
    spec.statisticsRows = 0;
    spec.seed = 9800;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    std::vector<float> rows =
        makeRowsWithNans(spec.numFeatures, 32, 9801);

    hir::Schedule cold;
    hir::Schedule hot;
    hot.hotPathCoverage = 0.8;
    CompilerOptions options;
    Session session = compile(forest, hot, options);

    bool found = false;
    for (const analysis::Diagnostic &d :
         session.artifacts().diagnostics) {
        if (d.code == "hir.hotpath.no-stats")
            found = true;
    }
    EXPECT_TRUE(found)
        << "expected hir.hotpath.no-stats for a statistics-free model";

    // The depth-based fallback region still predicts identically.
    std::vector<float> expected =
        predictWith(Backend::kKernel, forest, cold, rows);
    std::vector<float> predictions(32);
    session.predict(rows.data(), 32, predictions.data());
    expectPredictionsExact(expected, predictions);
}

TEST(HotPathCompile, GeneratedSourceCarriesHotFunctions)
{
    model::Forest forest = makeForest(false, 9900);
    hir::Schedule schedule;
    schedule.hotPathCoverage = 0.8;
    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);
    const std::string &source = session.artifacts().generatedSource;
    EXPECT_NE(source.find("hot_tree_0"), std::string::npos);
    EXPECT_NE(source.find("cold_walk"), std::string::npos);

    // Coverage 0 emits neither.
    schedule.hotPathCoverage = 0.0;
    Session cold = compile(forest, schedule, options);
    EXPECT_EQ(cold.artifacts().generatedSource.find("hot_tree_"),
              std::string::npos);
}

TEST(HotPathSchedule, JsonRoundTripAndRangeValidation)
{
    hir::Schedule schedule;
    schedule.hotPathCoverage = 0.8;
    hir::Schedule parsed =
        hir::scheduleFromJsonString(hir::scheduleToJsonString(schedule));
    EXPECT_DOUBLE_EQ(parsed.hotPathCoverage, 0.8);

    schedule.hotPathCoverage = 1.5;
    EXPECT_THROW(schedule.validate(), Error);
    schedule.hotPathCoverage = -0.1;
    EXPECT_THROW(schedule.validate(), Error);
    schedule.hotPathCoverage = 1.0;
    EXPECT_NO_THROW(schedule.validate());
}

TEST(HotPathTuner, GridEnumeratesCoveragesOnRepresentativePoints)
{
    tuner::TunerOptions options;
    std::vector<hir::Schedule> schedules =
        tuner::enumerateSchedules(options);
    int64_t hot_points = 0;
    for (const hir::Schedule &s : schedules) {
        if (s.hotPathCoverage <= 0.0)
            continue;
        ++hot_points;
        // Nonzero coverages ride one representative loop order and
        // interleave factor (hot emission ignores both knobs).
        EXPECT_EQ(s.loopOrder, options.loopOrders.front());
        EXPECT_EQ(s.interleaveFactor,
                  options.interleaveFactors.front());
        EXPECT_EQ(s.traversal, hir::TraversalKind::kNodeParallel);
    }
    EXPECT_GT(hot_points, 0);
}

TEST(HotPathTuner, AppendTuningRecordWritesParseableJsonLines)
{
    model::Forest forest = makeForest(false, 10000);
    std::vector<float> rows = makeRandomRows(10, 64, 10001);

    tuner::TunerOptions options;
    options.loopOrders = {hir::LoopOrder::kOneTreeAtATime};
    options.tileSizes = {1};
    options.tilings = {hir::TilingAlgorithm::kBasic};
    options.padAndUnroll = {false};
    options.interleaveFactors = {1};
    options.layouts = {hir::MemoryLayout::kSparse};
    options.traversals = {hir::TraversalKind::kNodeParallel};
    options.hotPathCoverages = {0.0, 0.8};
    options.repetitions = 1;
    tuner::TunerResult result =
        tuner::exploreSchedules(forest, rows.data(), 64, options);
    ASSERT_EQ(result.all.size(), 2u);

    std::string path =
        ::testing::TempDir() + "/treebeard_tuning_db.jsonl";
    std::remove(path.c_str());
    tuner::appendTuningRecord(path, forest, result);
    tuner::appendTuningRecord(path, forest, result);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    int64_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        JsonValue record = JsonValue::parse(line);
        EXPECT_EQ(record.at("model").at("num_trees").asInt(),
                  forest.numTrees());
        const JsonValue::Array &points =
            record.at("points").asArray();
        EXPECT_EQ(points.size(), 2u);
        // The full schedule round-trips out of the database.
        hir::Schedule best = hir::scheduleFromJsonString(
            record.at("best").at("schedule").dump());
        EXPECT_NO_THROW(best.validate());
        bool has_hot_point = false;
        for (const JsonValue &point : points) {
            EXPECT_GT(point.at("seconds").asNumber(), 0.0);
            if (point.at("schedule")
                    .at("hot_path_coverage")
                    .asNumber() > 0.0)
                has_hot_point = true;
        }
        EXPECT_TRUE(has_hot_point);
    }
    EXPECT_EQ(lines, 2);
    std::remove(path.c_str());
}

} // namespace
} // namespace treebeard
