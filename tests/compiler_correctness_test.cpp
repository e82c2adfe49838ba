/**
 * @file
 * The cross-configuration correctness sweep: every point of the
 * schedule space (loop order x tile size x tiling algorithm x layout x
 * interleave x unroll/peel x threads) must produce predictions
 * bit-identical to the reference model walk. Leaf values are quantized
 * so float accumulation is exact regardless of summation order.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "test_utils.h"
#include "treebeard/compiler.h"

namespace treebeard {
namespace {

using testing::expectPredictionsExact;
using testing::makeRandomForest;
using testing::makeRandomRows;
using testing::quantizeLeafValues;
using testing::referencePredictions;

struct SweepCase
{
    hir::LoopOrder loopOrder;
    int32_t tileSize;
    hir::TilingAlgorithm tiling;
    hir::MemoryLayout layout;
    int32_t interleave;
    bool padAndUnroll;
    bool peel;
    int32_t threads;
};

std::string
caseName(const ::testing::TestParamInfo<SweepCase> &info)
{
    const SweepCase &c = info.param;
    std::string name;
    name += c.loopOrder == hir::LoopOrder::kOneTreeAtATime ? "tree"
                                                           : "row";
    name += "_nt" + std::to_string(c.tileSize);
    std::string tiling = hir::tilingAlgorithmName(c.tiling);
    for (char &ch : tiling) {
        if (ch == '-')
            ch = '_';
    }
    name += "_" + tiling;
    name += std::string("_") + hir::memoryLayoutName(c.layout);
    name += "_il" + std::to_string(c.interleave);
    name += c.padAndUnroll ? "_unroll" : "_nounroll";
    name += c.peel ? "_peel" : "_nopeel";
    name += "_t" + std::to_string(c.threads);
    return name;
}

std::vector<SweepCase>
buildSweep()
{
    std::vector<SweepCase> cases;
    for (auto order : {hir::LoopOrder::kOneTreeAtATime,
                       hir::LoopOrder::kOneRowAtATime}) {
        for (int32_t tile_size : {1, 2, 3, 4, 5, 6, 7, 8}) {
            for (auto tiling :
                 {hir::TilingAlgorithm::kBasic,
                  hir::TilingAlgorithm::kProbabilityBased,
                  hir::TilingAlgorithm::kHybrid,
                  hir::TilingAlgorithm::kMinMaxDepth}) {
                for (auto layout : {hir::MemoryLayout::kArray,
                                    hir::MemoryLayout::kSparse,
                                    hir::MemoryLayout::kPacked}) {
                    for (int32_t interleave : {1, 4}) {
                        for (bool unroll : {false, true}) {
                            cases.push_back({order, tile_size, tiling,
                                             layout, interleave, unroll,
                                             /*peel=*/true,
                                             /*threads=*/1});
                        }
                    }
                }
            }
        }
    }
    // A few extra points covering the remaining knobs.
    cases.push_back({hir::LoopOrder::kOneTreeAtATime, 8,
                     hir::TilingAlgorithm::kHybrid,
                     hir::MemoryLayout::kSparse, 8, true, false, 1});
    cases.push_back({hir::LoopOrder::kOneTreeAtATime, 8,
                     hir::TilingAlgorithm::kHybrid,
                     hir::MemoryLayout::kSparse, 2, true, true, 4});
    cases.push_back({hir::LoopOrder::kOneRowAtATime, 4,
                     hir::TilingAlgorithm::kBasic,
                     hir::MemoryLayout::kArray, 2, true, true, 2});
    return cases;
}

class CorrectnessSweep : public ::testing::TestWithParam<SweepCase>
{
  protected:
    static void
    SetUpTestSuite()
    {
        testing::RandomForestSpec spec;
        spec.numFeatures = 12;
        spec.numTrees = 40;
        spec.maxDepth = 7;
        spec.splitProbability = 0.75;
        spec.statisticsRows = 800;
        forest_ = new model::Forest(makeRandomForest(spec));
        quantizeLeafValues(*forest_);
        rows_ = new std::vector<float>(
            makeRandomRows(spec.numFeatures, 257, 999));
        expected_ = new std::vector<float>(
            referencePredictions(*forest_, *rows_));
    }

    static void
    TearDownTestSuite()
    {
        delete forest_;
        delete rows_;
        delete expected_;
        forest_ = nullptr;
        rows_ = nullptr;
        expected_ = nullptr;
    }

    static model::Forest *forest_;
    static std::vector<float> *rows_;
    static std::vector<float> *expected_;
};

model::Forest *CorrectnessSweep::forest_ = nullptr;
std::vector<float> *CorrectnessSweep::rows_ = nullptr;
std::vector<float> *CorrectnessSweep::expected_ = nullptr;

TEST_P(CorrectnessSweep, MatchesReference)
{
    const SweepCase &c = GetParam();
    hir::Schedule schedule;
    schedule.loopOrder = c.loopOrder;
    schedule.tileSize = c.tileSize;
    schedule.tiling = c.tiling;
    schedule.layout = c.layout;
    schedule.interleaveFactor = c.interleave;
    schedule.padAndUnrollWalks = c.padAndUnroll;
    schedule.peelWalks = c.peel;
    schedule.numThreads = c.threads;

    Session session = compile(*forest_, schedule);
    int64_t num_rows =
        static_cast<int64_t>(rows_->size()) / forest_->numFeatures();
    std::vector<float> actual(static_cast<size_t>(num_rows));
    session.predict(rows_->data(), num_rows, actual.data());
    expectPredictionsExact(*expected_, actual);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, CorrectnessSweep,
                         ::testing::ValuesIn(buildSweep()), caseName);

TEST(CompilerCorrectness, LogisticObjectiveMatchesReference)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 15;
    spec.seed = 777;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    forest.setObjective(model::Objective::kBinaryLogistic);
    forest.setBaseScore(0.25f);

    std::vector<float> rows = makeRandomRows(spec.numFeatures, 64, 31);
    std::vector<float> expected = referencePredictions(forest, rows);

    hir::Schedule schedule;
    schedule.tileSize = 4;
    Session session = compile(forest, schedule);
    std::vector<float> actual(64);
    session.predict(rows.data(), 64, actual.data());
    expectPredictionsExact(expected, actual);
    for (float p : actual) {
        EXPECT_GT(p, 0.0f);
        EXPECT_LT(p, 1.0f);
    }
}

TEST(CompilerCorrectness, InstrumentedPathMatchesReference)
{
    testing::RandomForestSpec spec;
    spec.seed = 4242;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    std::vector<float> rows = makeRandomRows(spec.numFeatures, 50, 5);
    std::vector<float> expected = referencePredictions(forest, rows);

    hir::Schedule schedule;
    schedule.tileSize = 8;
    Session session = compile(forest, schedule);
    std::vector<float> actual(50);
    runtime::WalkCounters counters;
    session.predictInstrumented(rows.data(), 50, actual.data(),
                                &counters);
    expectPredictionsExact(expected, actual);
    EXPECT_GT(counters.tilesVisited, 0);
    EXPECT_EQ(counters.nodePredicatesEvaluated,
              counters.tilesVisited * 8);
    EXPECT_GE(counters.nodePredicatesEvaluated,
              counters.scalarNodesNeeded);
}

TEST(CompilerCorrectness, EmptyBatchIsANoOp)
{
    model::Forest forest = makeRandomForest({});
    Session session = compile(forest, {});
    session.predict(nullptr, 0, nullptr);
}

TEST(CompilerCorrectness, SingleRowBatch)
{
    testing::RandomForestSpec spec;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    std::vector<float> rows = makeRandomRows(spec.numFeatures, 1, 77);
    std::vector<float> expected = referencePredictions(forest, rows);

    hir::Schedule schedule;
    schedule.interleaveFactor = 8; // larger than the batch
    Session session = compile(forest, schedule);
    std::vector<float> actual(1);
    session.predict(rows.data(), 1, actual.data());
    expectPredictionsExact(expected, actual);
}

TEST(CompilerCorrectness, InvalidScheduleIsRejected)
{
    model::Forest forest = makeRandomForest({});
    hir::Schedule schedule;
    schedule.tileSize = 99;
    EXPECT_THROW(compile(forest, schedule), Error);
    schedule = {};
    schedule.interleaveFactor = 3;
    EXPECT_THROW(compile(forest, schedule), Error);
    schedule = {};
    schedule.numThreads = 0;
    EXPECT_THROW(compile(forest, schedule), Error);
}

TEST(CompilerCorrectness, ArtifactsAreRecorded)
{
    model::Forest forest = makeRandomForest({});
    CompilerOptions options;
    options.recordIrDumps = true;
    Session session = compile(forest, {}, options);
    const CompilationArtifacts &artifacts = session.artifacts();
    EXPECT_FALSE(artifacts.passTraces.empty());
    EXPECT_NE(artifacts.hirDump.find("hir.module"), std::string::npos);
    EXPECT_NE(artifacts.mirDump.find("mir.func"), std::string::npos);
    EXPECT_NE(artifacts.lirSummary.find("lir.buffers"),
              std::string::npos);
}

} // namespace
} // namespace treebeard
