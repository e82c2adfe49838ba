/**
 * @file
 * Tests for the runtime substrate: the thread pool's parallelFor
 * semantics and the plan's parallel execution, plus the tuner's grid
 * enumeration, exploration and JSON-lines database.
 */
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/thread_pool.h"
#include "test_utils.h"
#include "treebeard/compiler.h"
#include "tuner/auto_tuner.h"

namespace treebeard {
namespace {

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.numThreads(), 0u); // no background workers
    std::vector<int> touched(100, 0);
    pool.parallelFor(0, 100, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i)
            touched[static_cast<size_t>(i)] += 1;
    });
    for (int v : touched)
        EXPECT_EQ(v, 1);
}

TEST(ThreadPool, CoversRangeExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> touched(1000);
    pool.parallelFor(0, 1000, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i)
            touched[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto &v : touched)
        EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ChunksMatchPaperTiling)
{
    // Section IV-C: the row loop is tiled by ceil(rows / cores).
    ThreadPool pool(8);
    std::mutex mutex;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    pool.parallelFor(0, 64, [&](int64_t begin, int64_t end) {
        std::lock_guard<std::mutex> lock(mutex);
        chunks.push_back({begin, end});
    });
    ASSERT_EQ(chunks.size(), 8u);
    for (const auto &[begin, end] : chunks)
        EXPECT_EQ(end - begin, 8);
}

TEST(ThreadPool, EmptyAndTinyRanges)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(5, 5, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> covered{0};
    pool.parallelFor(0, 2, [&](int64_t begin, int64_t end) {
        covered += static_cast<int>(end - begin);
    });
    EXPECT_EQ(covered.load(), 2);
}

TEST(ThreadPool, RunOnAllWorkers)
{
    ThreadPool pool(4);
    std::mutex mutex;
    std::set<unsigned> seen;
    pool.runOnAllWorkers([&](unsigned index) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(index);
    });
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_THROW(ThreadPool(0), Error);
}

TEST(ParallelPlan, ManyThreadConfigsMatchReference)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 30;
    spec.seed = 81;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);
    std::vector<float> rows =
        testing::makeRandomRows(spec.numFeatures, 301, 82);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);

    for (int32_t threads : {2, 3, 8, 16}) {
        hir::Schedule schedule;
        schedule.numThreads = threads;
        schedule.interleaveFactor = 4;
        Session session = compile(forest, schedule);
        std::vector<float> actual(301);
        session.predict(rows.data(), 301, actual.data());
        testing::expectPredictionsExact(expected, actual);
    }
}

TEST(Tuner, GridEnumerationPrunesGatePairs)
{
    tuner::TunerOptions options;
    options.loopOrders = {hir::LoopOrder::kOneTreeAtATime};
    options.tileSizes = {4, 8};
    options.tilings = {hir::TilingAlgorithm::kBasic,
                       hir::TilingAlgorithm::kHybrid};
    options.padAndUnroll = {true};
    options.interleaveFactors = {1, 8};
    // Per layout-precision point: basic 2 tiles x 1 gate x 1 unroll x
    // 2 interleave = 4 plus hybrid 2 tiles x 3 gates x 1 x 2 = 12; the
    // default grid explores sparse, array, and packed at both record
    // precisions (f32 and i16) — 4 layout-precision points — giving
    // 64 points.
    std::vector<hir::Schedule> schedules =
        tuner::enumerateSchedules(options);
    EXPECT_EQ(schedules.size(), 64u);
    for (const hir::Schedule &schedule : schedules) {
        EXPECT_NO_THROW(schedule.validate());
        // Serial grids never sweep the row-chunk knob.
        EXPECT_EQ(schedule.rowChunkRows, 0);
    }

    // Threaded grids additionally sweep rowChunkRows.
    options.numThreads = 4;
    options.rowChunks = {0, 128};
    std::vector<hir::Schedule> threaded =
        tuner::enumerateSchedules(options);
    EXPECT_EQ(threaded.size(), 128u);
    bool saw_chunk = false;
    for (const hir::Schedule &schedule : threaded) {
        EXPECT_NO_THROW(schedule.validate());
        saw_chunk = saw_chunk || schedule.rowChunkRows == 128;
    }
    EXPECT_TRUE(saw_chunk);
}

TEST(Tuner, GridSweepsTraversalKindsAtTileOne)
{
    tuner::TunerOptions options;
    options.loopOrders = {hir::LoopOrder::kOneTreeAtATime};
    options.tileSizes = {1};
    options.tilings = {hir::TilingAlgorithm::kBasic};
    options.padAndUnroll = {true};
    options.interleaveFactors = {1};
    std::vector<hir::Schedule> schedules =
        tuner::enumerateSchedules(options);
    // 4 layout-precision points per traversal kind: 4 + 4.
    EXPECT_EQ(schedules.size(), 8u);
    size_t row_parallel = 0;
    for (const hir::Schedule &schedule : schedules) {
        EXPECT_NO_THROW(schedule.validate());
        if (schedule.traversal == hir::TraversalKind::kRowParallel) {
            ++row_parallel;
            // The row-parallel sub-grid pins the knobs it ignores.
            EXPECT_EQ(schedule.tileSize, 1);
            EXPECT_EQ(schedule.interleaveFactor, 1);
            EXPECT_EQ(schedule.loopOrder,
                      hir::LoopOrder::kOneTreeAtATime);
        }
    }
    EXPECT_EQ(row_parallel, 4u);

    // Row-parallel rides on tile size 1; a grid without it collapses
    // to the node-parallel points.
    options.tileSizes = {4};
    for (const hir::Schedule &schedule :
         tuner::enumerateSchedules(options))
        EXPECT_EQ(schedule.traversal,
                  hir::TraversalKind::kNodeParallel);
}

TEST(Tuner, ExplorationFindsAValidBest)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 20;
    spec.seed = 91;
    model::Forest forest = testing::makeRandomForest(spec);
    std::vector<float> rows =
        testing::makeRandomRows(spec.numFeatures, 128, 92);

    tuner::TunerOptions options;
    options.loopOrders = {hir::LoopOrder::kOneTreeAtATime};
    options.tileSizes = {1, 8};
    options.tilings = {hir::TilingAlgorithm::kBasic};
    options.padAndUnroll = {true};
    options.interleaveFactors = {1, 8};
    options.repetitions = 1;

    tuner::TunerResult result =
        tuner::exploreSchedules(forest, rows.data(), 128, options);
    // Node-parallel: 2 tiles x 2 interleaves x 4 layout-precision
    // points (sparse, array, packed-f32, packed-i16) = 16, plus the
    // row-parallel sub-grid at tile 1 (interleave and order pinned):
    // 4 layout-precision points. 16 + 4 = 20.
    EXPECT_EQ(result.all.size(), 20u);
    EXPECT_GT(result.best.seconds, 0.0);
    // `all` is sorted ascending; best is the head.
    EXPECT_EQ(result.all.front().seconds, result.best.seconds);
    for (size_t i = 1; i < result.all.size(); ++i)
        EXPECT_GE(result.all[i].seconds, result.all[i - 1].seconds);
}

TEST(Tuner, AppendTuningRecordWritesParseableJsonLines)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 10;
    spec.maxDepth = 5;
    spec.seed = 10000;
    model::Forest forest = testing::makeRandomForest(spec);
    std::vector<float> rows =
        testing::makeRandomRows(spec.numFeatures, 64, 10001);

    tuner::TunerOptions options;
    options.loopOrders = {hir::LoopOrder::kOneTreeAtATime};
    options.tileSizes = {1};
    options.tilings = {hir::TilingAlgorithm::kBasic};
    options.padAndUnroll = {false};
    options.interleaveFactors = {1};
    options.layouts = {hir::MemoryLayout::kSparse,
                       hir::MemoryLayout::kArray};
    options.traversals = {hir::TraversalKind::kNodeParallel};
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
        for (const JsonValue &point : points)
            EXPECT_GT(point.at("seconds").asNumber(), 0.0);
        // The full best schedule round-trips out of the database.
        hir::Schedule best = hir::scheduleFromJsonString(
            record.at("best").at("schedule").dump());
        EXPECT_EQ(hir::scheduleToJsonString(best),
                  hir::scheduleToJsonString(result.best.schedule));
    }
    EXPECT_EQ(lines, 2);
    std::remove(path.c_str());
}

} // namespace
} // namespace treebeard

namespace treebeard {
namespace {

TEST(SessionConcurrency, ConcurrentPredictCallsAreSafe)
{
    // Session::predict is const and must be callable from
    // several threads at once (a serving pattern).
    testing::RandomForestSpec spec;
    spec.numTrees = 25;
    spec.seed = 3001;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);
    std::vector<float> rows =
        testing::makeRandomRows(spec.numFeatures, 200, 3002);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);

    Session session = compile(forest, {});
    constexpr int kThreads = 4;
    std::vector<std::vector<float>> results(
        kThreads, std::vector<float>(200));
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int repeat = 0; repeat < 10; ++repeat) {
                session.predict(rows.data(), 200,
                                results[static_cast<size_t>(t)].data());
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        testing::expectPredictionsExact(expected,
                                        results[static_cast<size_t>(t)]);
}

} // namespace
} // namespace treebeard
