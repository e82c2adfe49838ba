/**
 * @file
 * Randomized property sweep: across many seeds, generate a forest
 * with random structural parameters and a random schedule, and check
 * the full pipeline invariants — valid tiling, balanced groups,
 * predictions bit-identical to the reference, and layout structural
 * properties. This is the suite's fuzzing backstop: each seed
 * exercises a different corner of the (model x schedule) space.
 */
#include <cstdlib>
#include <limits>

#include <gtest/gtest.h>

#include "lir/layout_builder.h"
#include "model/serialization.h"
#include "test_utils.h"
#include "treebeard/compiler.h"

namespace treebeard {
namespace {

class PropertySweep : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(PropertySweep, PipelineInvariantsHold)
{
    uint64_t seed = GetParam();
    Rng rng(seed);

    // Random model shape.
    testing::RandomForestSpec spec;
    spec.numFeatures = static_cast<int32_t>(rng.uniformInt(2, 40));
    spec.numTrees = rng.uniformInt(1, 30);
    spec.maxDepth = static_cast<int32_t>(rng.uniformInt(1, 9));
    spec.splitProbability = rng.uniform(0.4, 0.95);
    spec.statisticsRows = rng.uniformInt(0, 400);
    spec.seed = seed * 31 + 7;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);

    // Random default directions on some runs.
    if (rng.bernoulli(0.5)) {
        for (int64_t t = 0; t < forest.numTrees(); ++t) {
            model::DecisionTree &tree = forest.mutableTree(t);
            for (model::NodeIndex i = 0; i < tree.numNodes(); ++i) {
                if (!tree.node(i).isLeaf())
                    tree.mutableNode(i).defaultLeft =
                        rng.bernoulli(0.5);
            }
        }
    }

    // Random schedule.
    hir::Schedule schedule;
    const int32_t tile_sizes[] = {1, 2, 3, 4, 5, 6, 7, 8};
    schedule.tileSize =
        tile_sizes[rng.uniformInt(0, 7)];
    schedule.loopOrder = rng.bernoulli(0.5)
                             ? hir::LoopOrder::kOneTreeAtATime
                             : hir::LoopOrder::kOneRowAtATime;
    const hir::TilingAlgorithm tilings[] = {
        hir::TilingAlgorithm::kBasic,
        hir::TilingAlgorithm::kProbabilityBased,
        hir::TilingAlgorithm::kHybrid,
        hir::TilingAlgorithm::kMinMaxDepth};
    schedule.tiling = tilings[rng.uniformInt(0, 3)];
    const hir::MemoryLayout layouts[] = {hir::MemoryLayout::kArray,
                                         hir::MemoryLayout::kSparse,
                                         hir::MemoryLayout::kPacked};
    schedule.layout = layouts[rng.uniformInt(0, 2)];
    const int32_t interleaves[] = {1, 2, 4, 8};
    schedule.interleaveFactor =
        interleaves[rng.uniformInt(0, 3)];
    schedule.padAndUnrollWalks = rng.bernoulli(0.7);
    schedule.peelWalks = rng.bernoulli(0.7);
    schedule.numThreads =
        static_cast<int32_t>(rng.uniformInt(1, 4));

    // Pipeline invariants at the HIR level.
    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();
    module.validateTiling();
    int64_t covered = 0;
    for (const hir::TreeGroup &group : module.groups())
        covered += group.size();
    ASSERT_EQ(covered, forest.numTrees());

    // Layout invariants.
    lir::ForestBuffers buffers = lir::buildForestBuffers(module);
    ASSERT_EQ(buffers.numTrees, forest.numTrees());
    for (int64_t pos = 0; pos < buffers.numTrees; ++pos) {
        EXPECT_LT(buffers.treeFirstTile[static_cast<size_t>(pos)],
                  buffers.treeTileEnd[static_cast<size_t>(pos)]);
    }

    // End-to-end agreement, with some NaN inputs mixed in.
    int64_t num_rows = rng.uniformInt(1, 100);
    std::vector<float> rows(
        static_cast<size_t>(num_rows) * spec.numFeatures);
    for (float &value : rows) {
        value = rng.bernoulli(0.05)
                    ? std::numeric_limits<float>::quiet_NaN()
                    : rng.uniformFloat(0.0f, 1.0f);
    }
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);

    Session session = compile(forest, schedule);
    std::vector<float> actual(static_cast<size_t>(num_rows));
    session.predict(rows.data(), num_rows, actual.data());
    testing::expectPredictionsExact(expected, actual);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Range<uint64_t>(1, 33));

} // namespace
} // namespace treebeard

namespace treebeard {
namespace {

/**
 * Serialization round-trip property: across random model shapes
 * (objectives, classes, default directions, hit counts), the native
 * JSON format must reproduce the forest exactly — structure, metadata
 * and predictions.
 */
class SerializationSweep : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SerializationSweep, NativeFormatRoundTripsExactly)
{
    uint64_t seed = GetParam();
    Rng rng(seed * 131 + 17);

    testing::RandomForestSpec spec;
    spec.numFeatures = static_cast<int32_t>(rng.uniformInt(1, 30));
    spec.numTrees = rng.uniformInt(1, 20);
    spec.maxDepth = static_cast<int32_t>(rng.uniformInt(1, 8));
    spec.statisticsRows = rng.uniformInt(0, 300);
    spec.seed = seed;
    model::Forest forest = testing::makeRandomForest(spec);

    // Random metadata.
    if (rng.bernoulli(0.3)) {
        forest.setObjective(model::Objective::kBinaryLogistic);
    } else if (rng.bernoulli(0.3) && forest.numTrees() >= 2) {
        forest.setObjective(model::Objective::kMulticlassSoftmax);
        forest.setNumClasses(
            static_cast<int32_t>(rng.uniformInt(2, 4)));
    }
    forest.setBaseScore(rng.uniformFloat(-1.0f, 1.0f));
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        model::DecisionTree &tree = forest.mutableTree(t);
        for (model::NodeIndex i = 0; i < tree.numNodes(); ++i) {
            if (!tree.node(i).isLeaf())
                tree.mutableNode(i).defaultLeft = rng.bernoulli(0.3);
        }
    }

    model::Forest loaded =
        model::forestFromJson(model::forestToJson(forest));

    // Metadata and structure.
    ASSERT_EQ(loaded.numTrees(), forest.numTrees());
    EXPECT_EQ(loaded.numFeatures(), forest.numFeatures());
    EXPECT_EQ(loaded.objective(), forest.objective());
    EXPECT_EQ(loaded.numClasses(), forest.numClasses());
    EXPECT_EQ(loaded.baseScore(), forest.baseScore());
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        const model::DecisionTree &a = forest.tree(t);
        const model::DecisionTree &b = loaded.tree(t);
        ASSERT_EQ(a.numNodes(), b.numNodes());
        for (model::NodeIndex i = 0; i < a.numNodes(); ++i) {
            EXPECT_EQ(a.node(i).threshold, b.node(i).threshold);
            EXPECT_EQ(a.node(i).featureIndex, b.node(i).featureIndex);
            EXPECT_EQ(a.node(i).left, b.node(i).left);
            EXPECT_EQ(a.node(i).right, b.node(i).right);
            EXPECT_EQ(a.node(i).defaultLeft, b.node(i).defaultLeft);
            EXPECT_EQ(a.node(i).hitCount, b.node(i).hitCount);
        }
    }

    // Predictions, including NaN routing.
    int64_t num_rows = 40;
    std::vector<float> rows(
        static_cast<size_t>(num_rows) * spec.numFeatures);
    for (float &value : rows) {
        value = rng.bernoulli(0.1)
                    ? std::numeric_limits<float>::quiet_NaN()
                    : rng.uniformFloat(0.0f, 1.0f);
    }
    std::vector<float> expected(
        static_cast<size_t>(num_rows) * forest.numClasses());
    std::vector<float> actual(expected.size());
    forest.predictBatch(rows.data(), num_rows, expected.data());
    loaded.predictBatch(rows.data(), num_rows, actual.data());
    testing::expectPredictionsExact(expected, actual);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationSweep,
                         ::testing::Range<uint64_t>(1, 13));

} // namespace
} // namespace treebeard

namespace treebeard {
namespace {

/**
 * Cross-backend fuzz sweep: random forests x random schedules
 * (including the i16 packed precision, the packed software pipeline
 * and both traversal kinds — node-parallel tile evaluation and
 * row-parallel lane groups) x random batch sizes (0, 1 and
 * non-multiples of the vector width included) must be bit-identical
 * between the kernel backend, the source-JIT backend and — when the
 * effective layout is not quantized — the scalar reference walk. predictDataset() is
 * checked against predict() on both backends every iteration.
 *
 * Quantized plans (i16 packed) legitimately differ from the f32
 * reference (threshold rounding can flip a comparison), but they are
 * deterministic: the two backends share one quantizer definition, so
 * they must still agree with each other bit-exactly.
 *
 * The suite registers 64 seeds but runs only the first
 * TREEBEARD_FUZZ_SEEDS of them (default 6; each seed pays a system
 * compiler invocation). CI can raise the bound for a deeper soak; the
 * rest GTEST_SKIP so the registered set is stable for ctest. The
 * whole suite carries the ctest label "fuzz".
 */
int
fuzzSeedBound()
{
    const char *env = std::getenv("TREEBEARD_FUZZ_SEEDS");
    if (env == nullptr || *env == '\0')
        return 6;
    int bound = std::atoi(env);
    return bound < 0 ? 0 : bound;
}

class CrossBackendFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(CrossBackendFuzz, BackendsAgreeBitExactly)
{
    uint64_t seed = GetParam();
    if (seed >= static_cast<uint64_t>(fuzzSeedBound()))
        GTEST_SKIP() << "seed beyond TREEBEARD_FUZZ_SEEDS bound";
    Rng rng(seed * 977 + 101);

    testing::RandomForestSpec spec;
    spec.numFeatures = static_cast<int32_t>(rng.uniformInt(2, 32));
    spec.numTrees = rng.uniformInt(1, 24);
    spec.maxDepth = static_cast<int32_t>(rng.uniformInt(1, 8));
    spec.splitProbability = rng.uniform(0.4, 0.95);
    spec.seed = seed * 53 + 11;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);

    hir::Schedule schedule;
    const int32_t tile_sizes[] = {1, 2, 4, 8};
    schedule.tileSize = tile_sizes[rng.uniformInt(0, 3)];
    schedule.loopOrder = rng.bernoulli(0.5)
                             ? hir::LoopOrder::kOneTreeAtATime
                             : hir::LoopOrder::kOneRowAtATime;
    const hir::MemoryLayout layouts[] = {hir::MemoryLayout::kArray,
                                         hir::MemoryLayout::kSparse,
                                         hir::MemoryLayout::kPacked};
    schedule.layout = layouts[rng.uniformInt(0, 2)];
    if (schedule.layout == hir::MemoryLayout::kPacked &&
        rng.bernoulli(0.5))
        schedule.packedPrecision = hir::PackedPrecision::kI16;
    schedule.pipelinePackedWalks = rng.bernoulli(0.5);
    const int32_t interleaves[] = {1, 2, 4};
    schedule.interleaveFactor = interleaves[rng.uniformInt(0, 2)];
    schedule.padAndUnrollWalks = rng.bernoulli(0.7);
    schedule.peelWalks = rng.bernoulli(0.7);
    schedule.numThreads = static_cast<int32_t>(rng.uniformInt(1, 4));
    const int32_t chunks[] = {0, 1, 5, 64};
    schedule.rowChunkRows = chunks[rng.uniformInt(0, 3)];
    // The traversal axis is orthogonal to everything above; both
    // kinds must agree bit-exactly on every configuration, including
    // non-vectorizable ones (tile > 1, array layout) where
    // row-parallel degrades to scalar lockstep walks.
    schedule.traversal = rng.bernoulli(0.5)
                             ? hir::TraversalKind::kRowParallel
                             : hir::TraversalKind::kNodeParallel;

    // Batch sizes stressing the row-loop edges: empty, single row,
    // below/above the SIMD width, non-multiples of 8 and of the
    // worker count.
    const int64_t batch_sizes[] = {0, 1, 3, 7, 8, 33, 101};
    int64_t num_rows = batch_sizes[rng.uniformInt(0, 6)];

    std::vector<float> rows(
        static_cast<size_t>(num_rows) * spec.numFeatures);
    for (float &value : rows) {
        value = rng.bernoulli(0.05)
                    ? std::numeric_limits<float>::quiet_NaN()
                    : rng.uniformFloat(0.0f, 1.0f);
    }

    Session kernel = compile(forest, schedule, {});
    CompilerOptions jit_options;
    jit_options.backend = Backend::kSourceJit;
    jit_options.jit.optLevel = "-O0";
    Session jit = compile(forest, schedule, jit_options);

    std::vector<float> kernel_out(static_cast<size_t>(num_rows), -7.f);
    std::vector<float> jit_out(static_cast<size_t>(num_rows), -7.f);
    kernel.predict(rows.data(), num_rows, kernel_out.data());
    jit.predict(rows.data(), num_rows, jit_out.data());
    testing::expectPredictionsExact(kernel_out, jit_out);

    // The quantized layout rounds thresholds, so the f32 reference
    // only gates non-quantized effective layouts (fallbacks included:
    // the compiled plan's LayoutKind is the ground truth).
    if (kernel.plan().buffers().layout !=
        lir::LayoutKind::kPackedQuantized) {
        std::vector<float> expected =
            testing::referencePredictions(forest, rows);
        testing::expectPredictionsExact(expected, kernel_out);
    }

    // Resident datasets take a different dispatch path (cached
    // quantized image, resident JIT entry points); they must stay
    // bit-identical to plain predict on both backends.
    Dataset kernel_ds = kernel.bindDataset(rows.data(), num_rows);
    Dataset jit_ds = jit.bindDataset(rows.data(), num_rows);
    std::vector<float> resident_out(static_cast<size_t>(num_rows),
                                    -7.f);
    kernel.predictDataset(kernel_ds, resident_out.data());
    if (num_rows > 0)
        testing::expectPredictionsExact(kernel_out, resident_out);
    std::fill(resident_out.begin(), resident_out.end(), -7.f);
    jit.predictDataset(jit_ds, resident_out.data());
    if (num_rows > 0)
        testing::expectPredictionsExact(jit_out, resident_out);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossBackendFuzz,
                         ::testing::Range<uint64_t>(0, 64));

} // namespace
} // namespace treebeard
