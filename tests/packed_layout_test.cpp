/**
 * @file
 * Tests for the cache-line-packed (AoS) memory layout: record
 * geometry, build equivalence with the sparse layout it repacks,
 * bit-exact predictions across all three layouts (including NaN
 * routing, default directions, interleaving and multiclass), and the
 * wide-feature fallback.
 */
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "hir/hir_module.h"
#include "lir/layout_builder.h"
#include "test_utils.h"
#include "treebeard/compiler.h"

namespace treebeard {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

TEST(PackedRecord, GeometryIsCacheLineFriendly)
{
    // Offsets by construction: thresholds at 0, then int16 features,
    // int16 shape id, default-left byte, 4-aligned child base.
    static_assert(lir::packedFeaturesOffset(8) == 32);
    static_assert(lir::packedShapeOffset(8) == 48);
    static_assert(lir::packedDefaultLeftOffset(8) == 50);
    static_assert(lir::packedChildBaseOffset(8) == 52);
    // The tile-size-8 record is exactly one cache line.
    static_assert(lir::packedTileStride(8) == 64);
    static_assert(sizeof(lir::PackedLine) == 64);
    static_assert(alignof(lir::PackedLine) == 64);

    // Power-of-two strides, so records never straddle a cache line.
    for (int32_t nt : {1, 2, 3, 4, 5, 6, 7, 8}) {
        int32_t stride = lir::packedTileStride(nt);
        EXPECT_GE(stride, lir::packedChildBaseOffset(nt) + 4);
        EXPECT_EQ(64 % stride, 0) << "tile size " << nt;
        // Child base is int32-aligned within the record.
        EXPECT_EQ(lir::packedChildBaseOffset(nt) % 4, 0);
    }
    EXPECT_EQ(lir::packedTileStride(1), 16);
    EXPECT_EQ(lir::packedTileStride(2), 32);
    EXPECT_EQ(lir::packedTileStride(4), 32);
}

model::Forest
makeForestWithDefaults(uint64_t seed, int64_t trees = 16,
                       int32_t features = 12, int32_t depth = 7)
{
    testing::RandomForestSpec spec;
    spec.numTrees = trees;
    spec.numFeatures = features;
    spec.maxDepth = depth;
    spec.seed = seed;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);
    Rng rng(seed * 7 + 3);
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        model::DecisionTree &tree = forest.mutableTree(t);
        for (model::NodeIndex i = 0; i < tree.numNodes(); ++i) {
            if (!tree.node(i).isLeaf())
                tree.mutableNode(i).defaultLeft = rng.bernoulli(0.5);
        }
    }
    return forest;
}

/** Rows with NaN values mixed in to exercise default directions. */
std::vector<float>
makeRowsWithNaNs(int32_t features, int64_t num_rows, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> rows(
        static_cast<size_t>(num_rows) * features);
    for (float &value : rows) {
        value = rng.bernoulli(0.1) ? kNaN
                                   : rng.uniformFloat(0.0f, 1.0f);
    }
    return rows;
}

TEST(PackedLayout, BuildRepacksSparseFieldsExactly)
{
    model::Forest forest = makeForestWithDefaults(501);
    for (int32_t tile_size : {1, 2, 4, 8}) {
        hir::Schedule schedule;
        schedule.tileSize = tile_size;
        hir::HirModule module(forest, schedule);
        module.runAllHirPasses();

        lir::ForestBuffers sparse = lir::buildSparseLayout(module);
        lir::ForestBuffers packed = lir::buildPackedLayout(module);

        ASSERT_EQ(packed.layout, lir::LayoutKind::kPacked);
        ASSERT_EQ(packed.numTiles(), sparse.numTiles());
        ASSERT_EQ(packed.packedStride,
                  lir::packedTileStride(tile_size));
        ASSERT_EQ(packed.leaves, sparse.leaves);
        ASSERT_EQ(packed.treeFirstTile, sparse.treeFirstTile);
        // The SoA arrays are released after repacking.
        EXPECT_TRUE(packed.thresholds.empty());
        EXPECT_TRUE(packed.childBase.empty());
        // Records start 64-byte aligned.
        EXPECT_EQ(reinterpret_cast<uintptr_t>(packed.packedData()) %
                      64,
                  0u);

        for (int64_t tile = 0; tile < sparse.numTiles(); ++tile) {
            lir::ForestBuffers::TileFields a = sparse.tileFields(tile);
            lir::ForestBuffers::TileFields b = packed.tileFields(tile);
            ASSERT_EQ(a.shapeId, b.shapeId) << "tile " << tile;
            ASSERT_EQ(a.defaultLeft, b.defaultLeft) << "tile " << tile;
            ASSERT_EQ(a.childBase, b.childBase) << "tile " << tile;
            for (int32_t s = 0; s < tile_size; ++s) {
                // Compare bit patterns: padding slots hold +-inf.
                float at = a.thresholds[s];
                float bt = b.thresholds[s];
                ASSERT_EQ(std::memcmp(&at, &bt, sizeof(float)), 0)
                    << "tile " << tile << " slot " << s;
                ASSERT_EQ(a.feature(s), b.feature(s))
                    << "tile " << tile << " slot " << s;
            }
        }
    }
}

TEST(PackedLayout, PredictionsBitExactAcrossLayouts)
{
    model::Forest forest = makeForestWithDefaults(901, /*trees=*/24,
                                                  /*features=*/16,
                                                  /*depth=*/8);
    std::vector<float> rows = makeRowsWithNaNs(16, 200, 902);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);

    for (int32_t tile_size : {1, 2, 4, 8}) {
        for (int32_t interleave : {1, 4}) {
            for (bool unroll : {false, true}) {
                hir::Schedule schedule;
                schedule.tileSize = tile_size;
                schedule.interleaveFactor = interleave;
                schedule.padAndUnrollWalks = unroll;
                schedule.layout = hir::MemoryLayout::kPacked;

                Session session =
                    compile(forest, schedule);
                ASSERT_EQ(session.plan().buffers().layout,
                          lir::LayoutKind::kPacked);
                std::vector<float> actual(200);
                session.predict(rows.data(), 200, actual.data());
                testing::expectPredictionsExact(expected, actual);
            }
        }
    }
}

TEST(PackedLayout, MulticlassMatchesReference)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 12;
    spec.numFeatures = 10;
    spec.maxDepth = 6;
    spec.seed = 777;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);
    forest.setObjective(model::Objective::kMulticlassSoftmax);
    forest.setNumClasses(3);
    forest.setBaseScore(0.0f);

    std::vector<float> rows = makeRowsWithNaNs(10, 80, 778);
    std::vector<float> expected(80 * 3);
    forest.predictBatch(rows.data(), 80, expected.data());

    for (int32_t tile_size : {1, 4, 8}) {
        hir::Schedule schedule;
        schedule.tileSize = tile_size;
        schedule.interleaveFactor = 4;
        schedule.layout = hir::MemoryLayout::kPacked;
        Session session = compile(forest, schedule);
        std::vector<float> actual(80 * 3);
        session.predict(rows.data(), 80, actual.data());
        testing::expectPredictionsExact(expected, actual);
    }
}

TEST(PackedLayout, InstrumentedPathAgrees)
{
    model::Forest forest = makeForestWithDefaults(311);
    std::vector<float> rows = makeRowsWithNaNs(12, 64, 312);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);

    hir::Schedule schedule;
    schedule.tileSize = 8;
    schedule.layout = hir::MemoryLayout::kPacked;
    Session session = compile(forest, schedule);
    std::vector<float> actual(64);
    runtime::WalkCounters counters;
    session.predictInstrumented(rows.data(), 64, actual.data(),
                                &counters);
    testing::expectPredictionsExact(expected, actual);
    EXPECT_GT(counters.tilesVisited, 0);
    // Every visited packed tile touches its full record stride.
    EXPECT_EQ(counters.modelBytesTouched,
              counters.tilesVisited *
                  session.plan().buffers().packedStride);
}

TEST(PackedLayout, WideFeatureModelsFallBackToSparse)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 3;
    spec.numFeatures = lir::kPackedMaxFeatures + 100;
    spec.maxDepth = 4;
    spec.statisticsRows = 0;
    spec.seed = 404;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);

    hir::Schedule schedule;
    schedule.tileSize = 4;
    schedule.layout = hir::MemoryLayout::kPacked;
    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();
    // The explicit builder refuses; the driver falls back to sparse.
    EXPECT_THROW(lir::buildPackedLayout(module), Error);
    lir::ForestBuffers buffers = lir::buildForestBuffers(module);
    EXPECT_EQ(buffers.layout, lir::LayoutKind::kSparse);

    // End to end the schedule still compiles and predicts correctly.
    std::vector<float> rows =
        testing::makeRandomRows(spec.numFeatures, 8, 405);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);
    Session session = compile(forest, schedule);
    EXPECT_EQ(session.plan().buffers().layout,
              lir::LayoutKind::kSparse);
    std::vector<float> actual(8);
    session.predict(rows.data(), 8, actual.data());
    testing::expectPredictionsExact(expected, actual);
}

// ---------------------------------------------------------------------
// Int16-quantized packed records (two tiles per cache line).
// ---------------------------------------------------------------------

TEST(PackedQuantizedRecord, GeometryIsTwoRecordsPerCacheLine)
{
    // Offsets by construction: int16 thresholds at 0, uint8 features,
    // 2-aligned int16 shape id, default-left byte, 4-aligned child
    // base.
    static_assert(lir::packedqFeaturesOffset(8) == 16);
    static_assert(lir::packedqShapeOffset(8) == 24);
    static_assert(lir::packedqDefaultLeftOffset(8) == 26);
    static_assert(lir::packedqChildBaseOffset(8) == 28);
    // The headline invariant: the tile-size-8 record is exactly 32
    // bytes, so two records share each cache line (half the f32
    // packed record).
    static_assert(lir::packedqTileStride(8) == 32);
    static_assert(lir::packedTileStride(8) ==
                  2 * lir::packedqTileStride(8));

    for (int32_t nt : {1, 2, 3, 4, 5, 6, 7, 8}) {
        int32_t stride = lir::packedqTileStride(nt);
        EXPECT_GE(stride, lir::packedqChildBaseOffset(nt) + 4);
        EXPECT_EQ(64 % stride, 0) << "tile size " << nt;
        EXPECT_EQ(lir::packedqChildBaseOffset(nt) % 4, 0);
        EXPECT_EQ(lir::packedqShapeOffset(nt) % 2, 0);
    }
    EXPECT_EQ(lir::packedqTileStride(1), 16);
    EXPECT_EQ(lir::packedqTileStride(2), 16);
    EXPECT_EQ(lir::packedqTileStride(4), 32);
}

TEST(PackedQuantizedLayout, BuildQuantizesSparseFieldsExactly)
{
    model::Forest forest = makeForestWithDefaults(601);
    for (int32_t tile_size : {1, 2, 4, 8}) {
        hir::Schedule schedule;
        schedule.tileSize = tile_size;
        hir::HirModule module(forest, schedule);
        module.runAllHirPasses();

        lir::ForestBuffers sparse = lir::buildSparseLayout(module);
        lir::ForestBuffers packed =
            lir::buildPackedQuantizedLayout(module);

        ASSERT_EQ(packed.layout, lir::LayoutKind::kPackedQuantized);
        ASSERT_EQ(packed.numTiles(), sparse.numTiles());
        ASSERT_EQ(packed.packedStride,
                  lir::packedqTileStride(tile_size));
        ASSERT_EQ(packed.leaves, sparse.leaves);
        ASSERT_EQ(packed.treeFirstTile, sparse.treeFirstTile);
        EXPECT_TRUE(packed.thresholds.empty());
        EXPECT_TRUE(packed.childBase.empty());
        EXPECT_EQ(reinterpret_cast<uintptr_t>(packed.packedData()) %
                      64,
                  0u);

        // Affine maps exist for every feature and are usable.
        const lir::QuantizationInfo &q = packed.quantization;
        ASSERT_EQ(q.scale.size(),
                  static_cast<size_t>(packed.numFeatures));
        ASSERT_EQ(q.offset.size(), q.scale.size());
        ASSERT_EQ(q.stepBudget.size(), q.scale.size());
        for (size_t f = 0; f < q.scale.size(); ++f) {
            EXPECT_TRUE(std::isfinite(q.scale[f]));
            EXPECT_GT(q.scale[f], 0.0f);
            EXPECT_TRUE(std::isfinite(q.offset[f]));
            EXPECT_NEAR(q.stepBudget[f] * q.scale[f], 1.0f, 1e-3f);
        }
        EXPECT_GE(q.predictionErrorBudget, 0.0f);

        for (int64_t tile = 0; tile < sparse.numTiles(); ++tile) {
            lir::ForestBuffers::TileFields a = sparse.tileFields(tile);
            lir::ForestBuffers::TileFields b = packed.tileFields(tile);
            ASSERT_EQ(a.shapeId, b.shapeId) << "tile " << tile;
            ASSERT_EQ(a.defaultLeft, b.defaultLeft) << "tile " << tile;
            ASSERT_EQ(a.childBase, b.childBase) << "tile " << tile;
            for (int32_t s = 0; s < tile_size; ++s) {
                ASSERT_EQ(a.feature(s), b.feature(s))
                    << "tile " << tile << " slot " << s;
                // A +inf (dummy/padding) slot takes the sentinel;
                // finite thresholds quantize with the runtime's exact
                // rounding, landing within one step of the original.
                float t = a.thresholds[s];
                int16_t expected =
                    std::isinf(t) ? lir::kQuantizedNaN
                                  : packed.quantization.quantizeValue(
                                        t, a.feature(s));
                ASSERT_EQ(b.qthresholds[s], expected)
                    << "tile " << tile << " slot " << s;
                if (!std::isinf(t) &&
                    expected != lir::kQuantizedNaN - 1 &&
                    expected != std::numeric_limits<int16_t>::min()) {
                    size_t f = static_cast<size_t>(a.feature(s));
                    float dequantized =
                        static_cast<float>(expected) / q.scale[f] +
                        q.offset[f];
                    ASSERT_LE(std::abs(dequantized - t),
                              q.stepBudget[f] * 0.6f +
                                  std::abs(t) * 1e-5f)
                        << "tile " << tile << " slot " << s;
                }
            }
        }
    }
}

TEST(PackedQuantizedLayout, QuantizeValueRoundsWithinHalfStep)
{
    hir::Schedule schedule;
    schedule.tileSize = 8;
    model::Forest forest = makeForestWithDefaults(602);
    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();
    lir::ForestBuffers fb = lir::buildPackedQuantizedLayout(module);
    const lir::QuantizationInfo &q = fb.quantization;

    EXPECT_EQ(q.quantizeValue(kNaN, 0), lir::kQuantizedNaN);
    Rng rng(603);
    for (int32_t trial = 0; trial < 2000; ++trial) {
        int32_t f = static_cast<int32_t>(trial) % fb.numFeatures;
        float v = rng.uniformFloat(-0.5f, 1.5f);
        int16_t qv = q.quantizeValue(v, f);
        EXPECT_NE(qv, lir::kQuantizedNaN);
        if (qv == lir::kQuantizedNaN - 1 ||
            qv == std::numeric_limits<int16_t>::min()) {
            continue; // clamped: |v| is outside the threshold range
        }
        size_t fs = static_cast<size_t>(f);
        float dequantized =
            static_cast<float>(qv) / q.scale[fs] + q.offset[fs];
        EXPECT_LE(std::abs(dequantized - v),
                  q.stepBudget[fs] * 0.6f + std::abs(v) * 1e-5f)
            << "feature " << f << " value " << v;
    }
}

/**
 * Move every finite row value out of the quantization dead zones: any
 * value within two steps of some threshold of its feature could
 * legitimately flip its compare under int16 rounding, so nudge it
 * clear. The surviving rows must then predict bit-identically to f32.
 */
void
clearQuantizationDeadZones(std::vector<float> &rows,
                           const model::Forest &forest,
                           const lir::QuantizationInfo &q)
{
    int32_t nf = forest.numFeatures();
    std::vector<std::vector<float>> thresholds(
        static_cast<size_t>(nf));
    for (int64_t t = 0; t < forest.numTrees(); ++t) {
        const model::DecisionTree &tree = forest.tree(t);
        for (model::NodeIndex i = 0; i < tree.numNodes(); ++i) {
            const model::Node &node = tree.node(i);
            if (!node.isLeaf())
                thresholds[static_cast<size_t>(node.featureIndex)]
                    .push_back(node.threshold);
        }
    }
    for (size_t i = 0; i < rows.size(); ++i) {
        size_t f = i % static_cast<size_t>(nf);
        float &v = rows[i];
        if (v != v)
            continue; // NaN routes identically in both precisions
        float step = q.stepBudget[f];
        bool moved = true;
        while (moved) {
            moved = false;
            for (float t : thresholds[f]) {
                if (std::abs(v - t) <= 2.0f * step) {
                    v += 4.0f * step;
                    moved = true;
                }
            }
        }
    }
}

TEST(PackedQuantizedLayout, MatchesF32AwayFromDeadZones)
{
    model::Forest forest = makeForestWithDefaults(911, /*trees=*/24,
                                                  /*features=*/16,
                                                  /*depth=*/8);
    std::vector<float> rows = makeRowsWithNaNs(16, 200, 912);

    hir::Schedule quantized_schedule;
    quantized_schedule.tileSize = 8;
    quantized_schedule.layout = hir::MemoryLayout::kPacked;
    quantized_schedule.packedPrecision = hir::PackedPrecision::kI16;
    Session probe = compile(forest, quantized_schedule);
    ASSERT_EQ(probe.plan().buffers().layout,
              lir::LayoutKind::kPackedQuantized);
    clearQuantizationDeadZones(rows, forest,
                               probe.plan().buffers().quantization);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);

    for (int32_t tile_size : {1, 2, 4, 8}) {
        for (int32_t interleave : {1, 4}) {
            for (bool unroll : {false, true}) {
                hir::Schedule schedule;
                schedule.tileSize = tile_size;
                schedule.interleaveFactor = interleave;
                schedule.padAndUnrollWalks = unroll;
                schedule.layout = hir::MemoryLayout::kPacked;
                schedule.packedPrecision = hir::PackedPrecision::kI16;

                Session session = compile(forest, schedule);
                ASSERT_EQ(session.plan().buffers().layout,
                          lir::LayoutKind::kPackedQuantized);
                std::vector<float> actual(200);
                session.predict(rows.data(), 200, actual.data());
                testing::expectPredictionsExact(expected, actual);
            }
        }
    }
}

TEST(PackedQuantizedLayout, MulticlassMatchesF32AwayFromDeadZones)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 12;
    spec.numFeatures = 10;
    spec.maxDepth = 6;
    spec.seed = 787;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);
    forest.setObjective(model::Objective::kMulticlassSoftmax);
    forest.setNumClasses(3);
    forest.setBaseScore(0.0f);

    hir::Schedule schedule;
    schedule.tileSize = 8;
    schedule.interleaveFactor = 4;
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = hir::PackedPrecision::kI16;

    std::vector<float> rows = makeRowsWithNaNs(10, 80, 788);
    Session session = compile(forest, schedule);
    clearQuantizationDeadZones(rows, forest,
                               session.plan().buffers().quantization);
    std::vector<float> expected(80 * 3);
    forest.predictBatch(rows.data(), 80, expected.data());

    std::vector<float> actual(80 * 3);
    session.predict(rows.data(), 80, actual.data());
    testing::expectPredictionsExact(expected, actual);
}

TEST(PackedQuantizedLayout, DriftIsBoundedByDeclaredBudget)
{
    // No dead-zone clearing here: rows may straddle effective
    // thresholds, so predictions can drift — but never past the
    // recorded worst-case budget.
    model::Forest forest = makeForestWithDefaults(921, /*trees=*/24,
                                                  /*features=*/16,
                                                  /*depth=*/8);
    std::vector<float> rows = makeRowsWithNaNs(16, 300, 922);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);

    hir::Schedule schedule;
    schedule.tileSize = 8;
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = hir::PackedPrecision::kI16;
    Session session = compile(forest, schedule);
    float budget =
        session.plan().buffers().quantization.predictionErrorBudget;
    ASSERT_GT(budget, 0.0f);

    std::vector<float> actual(300);
    session.predict(rows.data(), 300, actual.data());
    for (size_t i = 0; i < actual.size(); ++i) {
        EXPECT_LE(std::abs(actual[i] - expected[i]),
                  budget + 1e-4f)
            << "row " << i;
    }
}

TEST(PackedQuantizedLayout, InstrumentedPathAgrees)
{
    model::Forest forest = makeForestWithDefaults(321);
    std::vector<float> rows = makeRowsWithNaNs(12, 64, 322);

    hir::Schedule schedule;
    schedule.tileSize = 8;
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = hir::PackedPrecision::kI16;
    Session session = compile(forest, schedule);
    ASSERT_EQ(session.plan().buffers().layout,
              lir::LayoutKind::kPackedQuantized);

    // The instrumented walk quantizes on the fly with the same
    // rounding, so it must agree bit-for-bit with the kernels.
    std::vector<float> expected(64);
    session.predict(rows.data(), 64, expected.data());
    std::vector<float> actual(64);
    runtime::WalkCounters counters;
    session.predictInstrumented(rows.data(), 64, actual.data(),
                                &counters);
    testing::expectPredictionsExact(expected, actual);
    EXPECT_GT(counters.tilesVisited, 0);
    // Every visited quantized tile touches exactly its 32-byte record.
    EXPECT_EQ(session.plan().buffers().packedStride, 32);
    EXPECT_EQ(counters.modelBytesTouched, counters.tilesVisited * 32);
}

TEST(PackedQuantizedLayout, WideFeatureModelsFallBackToF32Packed)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 3;
    spec.numFeatures = lir::kPackedQuantizedMaxFeatures + 10;
    spec.maxDepth = 4;
    spec.statisticsRows = 0;
    spec.seed = 414;
    model::Forest forest = testing::makeRandomForest(spec);
    testing::quantizeLeafValues(forest);

    hir::Schedule schedule;
    schedule.tileSize = 4;
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = hir::PackedPrecision::kI16;
    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();
    // The explicit builder refuses; the driver falls back to the f32
    // packed records, which predict exactly like any f32 layout.
    EXPECT_THROW(lir::buildPackedQuantizedLayout(module), Error);
    lir::ForestBuffers buffers = lir::buildForestBuffers(module);
    EXPECT_EQ(buffers.layout, lir::LayoutKind::kPacked);

    std::vector<float> rows =
        testing::makeRandomRows(spec.numFeatures, 8, 415);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);
    Session session = compile(forest, schedule);
    EXPECT_EQ(session.plan().buffers().layout,
              lir::LayoutKind::kPacked);
    std::vector<float> actual(8);
    session.predict(rows.data(), 8, actual.data());
    testing::expectPredictionsExact(expected, actual);
}

TEST(PackedLayout, Interleave8IsBitExact)
{
    // Eight software-pipelined record walks in lockstep, on rows
    // with missing values, match the reference walk.
    model::Forest forest = makeForestWithDefaults(931);
    std::vector<float> rows = makeRowsWithNaNs(12, 128, 932);
    std::vector<float> expected =
        testing::referencePredictions(forest, rows);

    for (bool unroll : {false, true}) {
        hir::Schedule schedule;
        schedule.tileSize = 8;
        schedule.interleaveFactor = 8;
        schedule.padAndUnrollWalks = unroll;
        schedule.layout = hir::MemoryLayout::kPacked;
        Session session = compile(forest, schedule);
        std::vector<float> actual(128);
        session.predict(rows.data(), 128, actual.data());
        testing::expectPredictionsExact(expected, actual);
    }
}

} // namespace
} // namespace treebeard
