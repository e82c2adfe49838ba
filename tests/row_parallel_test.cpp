/**
 * @file
 * The row-parallel traversal axis: eight rows walk one tree in
 * lockstep behind a divergence mask. Predictions are defined by the
 * accumulation order (baseScore + leaf values in tree-group order per
 * row), which traversal does not change, so every test here demands
 * bit-exactness — against the scalar reference, against the
 * node-parallel plan, and between the kernel and source-JIT backends
 * across all layouts and both packed precisions. Also holds the
 * zero-row fast-return regression (counters must not move).
 */
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "runtime/plan.h"
#include "test_utils.h"
#include "treebeard/compiler.h"

namespace treebeard {
namespace {

using testing::expectPredictionsExact;
using testing::makeRandomForest;
using testing::makeRandomRows;
using testing::quantizeLeafValues;

/**
 * A quantized test forest; optionally multiclass, optionally with
 * random per-node default directions so NaN routing is non-trivial.
 */
model::Forest
makeForest(bool multiclass, bool default_directions, uint64_t seed)
{
    testing::RandomForestSpec spec;
    spec.numTrees = multiclass ? 12 : 14;
    spec.numFeatures = 9;
    spec.maxDepth = 6;
    spec.seed = seed;
    model::Forest forest = makeRandomForest(spec);
    quantizeLeafValues(forest);
    if (multiclass) {
        forest.setObjective(model::Objective::kMulticlassSoftmax);
        forest.setNumClasses(3);
        forest.setBaseScore(0.0f);
    }
    if (default_directions) {
        Rng rng(seed * 17 + 5);
        for (int64_t t = 0; t < forest.numTrees(); ++t) {
            model::DecisionTree &tree = forest.mutableTree(t);
            for (model::NodeIndex i = 0; i < tree.numNodes(); ++i) {
                if (!tree.node(i).isLeaf())
                    tree.mutableNode(i).defaultLeft =
                        rng.bernoulli(0.5);
            }
        }
    }
    return forest;
}

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

std::vector<float>
predictWith(Backend backend, const model::Forest &forest,
            const hir::Schedule &schedule,
            const std::vector<float> &rows)
{
    CompilerOptions options;
    options.backend = backend;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);
    int64_t num_rows =
        static_cast<int64_t>(rows.size()) / forest.numFeatures();
    std::vector<float> predictions(
        static_cast<size_t>(num_rows) * forest.numClasses());
    session.predict(rows.data(), num_rows, predictions.data());
    return predictions;
}

struct RowParallelCase
{
    hir::MemoryLayout layout;
    hir::PackedPrecision precision;
    bool multiclass;
    bool defaultDirections;
};

class RowParallelParity
    : public ::testing::TestWithParam<RowParallelCase>
{};

/**
 * The axis is orthogonal: flipping traversal on an otherwise fixed
 * schedule must not change a single bit, on either backend, and the
 * two backends must agree with each other. Batch 101 leaves a
 * 5-row remainder after the 8-wide lane groups.
 */
TEST_P(RowParallelParity, MatchesNodeParallelAndCrossBackend)
{
    const RowParallelCase &c = GetParam();
    model::Forest forest =
        makeForest(c.multiclass, c.defaultDirections, 7100);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 101, 7101);

    hir::Schedule node;
    node.tileSize = 1;
    node.layout = c.layout;
    node.packedPrecision = c.precision;
    hir::Schedule row = node;
    row.traversal = hir::TraversalKind::kRowParallel;

    std::vector<float> node_kernel =
        predictWith(Backend::kKernel, forest, node, rows);
    std::vector<float> row_kernel =
        predictWith(Backend::kKernel, forest, row, rows);
    expectPredictionsExact(node_kernel, row_kernel);

    std::vector<float> row_jit =
        predictWith(Backend::kSourceJit, forest, row, rows);
    expectPredictionsExact(row_kernel, row_jit);

    // Non-quantized layouts must also match the scalar reference.
    if (!(c.layout == hir::MemoryLayout::kPacked &&
          c.precision == hir::PackedPrecision::kI16) &&
        !c.multiclass) {
        std::vector<float> expected =
            testing::referencePredictions(forest, rows);
        expectPredictionsExact(expected, row_kernel);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RowParallelParity,
    ::testing::Values(
        RowParallelCase{hir::MemoryLayout::kSparse,
                        hir::PackedPrecision::kF32, false, false},
        RowParallelCase{hir::MemoryLayout::kSparse,
                        hir::PackedPrecision::kF32, false, true},
        RowParallelCase{hir::MemoryLayout::kArray,
                        hir::PackedPrecision::kF32, false, true},
        RowParallelCase{hir::MemoryLayout::kPacked,
                        hir::PackedPrecision::kF32, false, true},
        RowParallelCase{hir::MemoryLayout::kPacked,
                        hir::PackedPrecision::kI16, false, true},
        RowParallelCase{hir::MemoryLayout::kSparse,
                        hir::PackedPrecision::kF32, true, true},
        RowParallelCase{hir::MemoryLayout::kPacked,
                        hir::PackedPrecision::kI16, true, false}));

/**
 * Row-parallel under a non-vectorizable schedule (tile size > 1)
 * degrades to scalar lockstep walks; it must still be exact on both
 * backends.
 */
TEST(RowParallel, LargeTilesStayExact)
{
    model::Forest forest = makeForest(false, true, 7200);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 67, 7201);
    for (int32_t tile : {2, 4, 8}) {
        hir::Schedule row;
        row.tileSize = tile;
        row.traversal = hir::TraversalKind::kRowParallel;
        std::vector<float> expected =
            testing::referencePredictions(forest, rows);
        expectPredictionsExact(
            expected, predictWith(Backend::kKernel, forest, row, rows));
        expectPredictionsExact(
            expected,
            predictWith(Backend::kSourceJit, forest, row, rows));
    }
}

/** Threaded, chunked row-parallel plans stay exact on both backends. */
TEST(RowParallel, ThreadedChunkedStaysExact)
{
    model::Forest forest = makeForest(false, true, 7300);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 109, 7301);

    hir::Schedule serial;
    serial.tileSize = 1;
    serial.traversal = hir::TraversalKind::kRowParallel;
    std::vector<float> expected =
        predictWith(Backend::kKernel, forest, serial, rows);

    for (int32_t chunk : {0, 5, 64}) {
        hir::Schedule threaded = serial;
        threaded.numThreads = 4;
        threaded.rowChunkRows = chunk;
        expectPredictionsExact(
            expected,
            predictWith(Backend::kKernel, forest, threaded, rows));
        expectPredictionsExact(
            expected,
            predictWith(Backend::kSourceJit, forest, threaded, rows));
    }
}

/**
 * predictDataset under quantized packed row-parallel takes the
 * resident fast path (pre-quantized int32 row image, no per-call
 * quantization) and must match plain predict bit-exactly.
 */
TEST(RowParallel, ResidentDatasetMatchesPredict)
{
    model::Forest forest = makeForest(false, true, 7400);
    std::vector<float> rows =
        makeRowsWithNans(forest.numFeatures(), 83, 7401);

    hir::Schedule schedule;
    schedule.tileSize = 1;
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = hir::PackedPrecision::kI16;
    schedule.traversal = hir::TraversalKind::kRowParallel;

    for (Backend backend : {Backend::kKernel, Backend::kSourceJit}) {
        CompilerOptions options;
        options.backend = backend;
        options.jit.optLevel = "-O0";
        Session session = compile(forest, schedule, options);
        std::vector<float> direct(83, -7.f), resident(83, -7.f);
        session.predict(rows.data(), 83, direct.data());

        runtime::RowQuantizationStats before =
            runtime::rowQuantizationStats();
        Dataset dataset = session.bindDataset(rows.data(), 83);
        session.predictDataset(dataset, resident.data());
        runtime::RowQuantizationStats after =
            runtime::rowQuantizationStats();
        expectPredictionsExact(direct, resident);
        // The resident path quantizes at bind time, never per call.
        EXPECT_EQ(after.datasetBinds, before.datasetBinds + 1);
        EXPECT_EQ(after.batchPasses, before.batchPasses);
    }
}

/**
 * The emitted row-parallel TU really instantiates the lane-group
 * kernels: masked leaf gathers behind a divergence mask, with a scalar
 * fallback branch for hosts without AVX2.
 */
TEST(RowParallel, GeneratedSourceCarriesLaneGroupWalker)
{
    model::Forest forest = makeForest(false, true, 7500);
    hir::Schedule schedule;
    schedule.tileSize = 1;
    schedule.traversal = hir::TraversalKind::kRowParallel;
    CompilerOptions options;
    options.backend = Backend::kSourceJit;
    options.jit.optLevel = "-O0";
    Session session = compile(forest, schedule, options);

    const std::string &source = session.artifacts().generatedSource;
    EXPECT_NE(source.find("runtime::RowParallelKernels<1, "
                          "lir::LayoutKind::kSparse"),
              std::string::npos);
    EXPECT_NE(source.find("_mm256_mask_i32gather_ps"),
              std::string::npos);
    EXPECT_NE(source.find("__AVX2__"), std::string::npos);
}

/**
 * Satellite regression: a zero-row batch returns before any backend
 * dispatch — no quantization pass runs and no counter moves, on
 * either backend, serial or pooled, through predict and
 * predictDataset alike.
 */
TEST(RowParallel, ZeroRowBatchTouchesNoCounters)
{
    model::Forest forest = makeForest(false, false, 7600);
    hir::Schedule schedule;
    schedule.tileSize = 1;
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = hir::PackedPrecision::kI16;
    schedule.traversal = hir::TraversalKind::kRowParallel;

    for (Backend backend : {Backend::kKernel, Backend::kSourceJit}) {
        for (int32_t threads : {1, 4}) {
            hir::Schedule s = schedule;
            s.numThreads = threads;
            CompilerOptions options;
            options.backend = backend;
            options.jit.optLevel = "-O0";
            Session session = compile(forest, s, options);

            runtime::RowQuantizationStats before =
                runtime::rowQuantizationStats();
            float sentinel = -7.f;
            session.predict(nullptr, 0, &sentinel);
            Dataset empty = session.bindDataset(nullptr, 0);
            session.predictDataset(empty, &sentinel);
            runtime::RowQuantizationStats after =
                runtime::rowQuantizationStats();

            EXPECT_EQ(after.batchPasses, before.batchPasses);
            EXPECT_EQ(after.batchRows, before.batchRows);
            EXPECT_EQ(after.datasetBinds, before.datasetBinds);
            EXPECT_EQ(after.datasetRows, before.datasetRows);
            // The output buffer is untouched too.
            EXPECT_EQ(sentinel, -7.f);
        }
    }
}

} // namespace
} // namespace treebeard
