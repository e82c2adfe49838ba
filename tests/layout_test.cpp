/**
 * @file
 * Tests for the LIR memory layouts (Section V-B): structural
 * invariants of the array and sparse representations, hop insertion,
 * dummy-slot don't-cares, and the footprint relationships the paper
 * reports (array bloat vs sparse compactness vs the scalar baseline).
 */
#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "lir/layout_builder.h"
#include "test_utils.h"

namespace treebeard::lir {
namespace {

hir::HirModule
makeTiledModule(hir::Schedule schedule, int64_t trees = 10,
                uint64_t seed = 21)
{
    testing::RandomForestSpec spec;
    spec.numTrees = trees;
    spec.seed = seed;
    spec.splitProbability = 0.7;
    hir::HirModule module(testing::makeRandomForest(spec), schedule);
    module.runAllHirPasses();
    return module;
}

TEST(ArrayLayout, TreeBlocksAreImplicitArrays)
{
    hir::Schedule schedule;
    schedule.tileSize = 4;
    schedule.layout = hir::MemoryLayout::kArray;
    hir::HirModule module = makeTiledModule(schedule);
    ForestBuffers fb = buildArrayLayout(module);

    EXPECT_EQ(fb.layout, LayoutKind::kArray);
    EXPECT_EQ(fb.numTrees, module.forest().numTrees());
    ASSERT_EQ(fb.treeFirstTile.size(),
              static_cast<size_t>(fb.numTrees));

    int64_t arity = fb.tileSize + 1;
    for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
        int64_t size = fb.treeTileEnd[static_cast<size_t>(pos)] -
                       fb.treeFirstTile[static_cast<size_t>(pos)];
        // Size must be a full (arity)-ary array: sum of arity^l.
        int64_t expected = 0;
        int64_t level = 1;
        while (expected < size) {
            expected += level;
            level *= arity;
        }
        EXPECT_EQ(expected, size) << "tree " << pos;
        // Root tile is not a leaf marker (multi-node trees).
        EXPECT_NE(fb.shapeIds[static_cast<size_t>(
                      fb.treeFirstTile[static_cast<size_t>(pos)])],
                  kUnusedTileMarker);
    }
    // Array layout uses no sparse buffers.
    EXPECT_TRUE(fb.childBase.empty());
    EXPECT_TRUE(fb.leaves.empty());
}

TEST(SparseLayout, ChildrenAreContiguousAndTyped)
{
    hir::Schedule schedule;
    schedule.tileSize = 4;
    schedule.layout = hir::MemoryLayout::kSparse;
    hir::HirModule module = makeTiledModule(schedule);
    ForestBuffers fb = buildSparseLayout(module);

    EXPECT_EQ(fb.layout, LayoutKind::kSparse);
    ASSERT_EQ(fb.childBase.size(), static_cast<size_t>(fb.numTiles()));
    EXPECT_FALSE(fb.leaves.empty());

    for (int64_t tile = 0; tile < fb.numTiles(); ++tile) {
        int32_t base = fb.childBase[static_cast<size_t>(tile)];
        int16_t shape = fb.shapeIds[static_cast<size_t>(tile)];
        ASSERT_GE(shape, 0) << "sparse layout stores no leaf tiles";
        // Dummy (padding/hop/safety) tiles only materialize child 0.
        bool is_dummy = std::isinf(
            fb.thresholds[static_cast<size_t>(tile) * fb.tileSize]);
        int32_t arity =
            is_dummy ? 1 : fb.shapes->shape(shape).numChildren();
        if (base >= 0) {
            // All children must lie within the tile storage.
            EXPECT_LT(base + arity - 1, fb.numTiles());
        } else {
            int64_t leaf_base = -(static_cast<int64_t>(base) + 1);
            EXPECT_LE(leaf_base + arity,
                      static_cast<int64_t>(fb.leaves.size()));
        }
    }
}

TEST(SparseLayout, DummySlotsUseInfinityThresholds)
{
    hir::Schedule schedule;
    schedule.tileSize = 8;
    schedule.layout = hir::MemoryLayout::kSparse;
    hir::HirModule module = makeTiledModule(schedule, 6, 22);
    ForestBuffers fb = buildSparseLayout(module);

    for (int64_t tile = 0; tile < fb.numTiles(); ++tile) {
        int16_t shape = fb.shapeIds[static_cast<size_t>(tile)];
        int32_t nodes = fb.shapes->shape(shape).numNodes();
        for (int32_t s = nodes; s < fb.tileSize; ++s) {
            EXPECT_TRUE(std::isinf(
                fb.thresholds[static_cast<size_t>(tile) * fb.tileSize +
                              s]));
            EXPECT_EQ(fb.featureIndices[static_cast<size_t>(tile) *
                                            fb.tileSize +
                                        s],
                      0);
        }
    }
}

TEST(SparseLayout, SingleLeafTreeGetsHop)
{
    model::Forest forest(1);
    model::DecisionTree tree;
    tree.setRoot(tree.addLeaf(0.375f));
    forest.addTree(std::move(tree));
    // A second real tree so the forest validates meaningfully.
    model::DecisionTree tree2;
    tree2.setRoot(tree2.addInternal(0, 0.5f, tree2.addLeaf(1.0f),
                                    tree2.addLeaf(2.0f)));
    forest.addTree(std::move(tree2));

    hir::Schedule schedule;
    schedule.tileSize = 2;
    schedule.layout = hir::MemoryLayout::kSparse;
    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();
    ForestBuffers fb = buildSparseLayout(module);

    // Every tree block is non-empty (the leaf-only tree got a hop).
    for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
        EXPECT_GT(fb.treeTileEnd[static_cast<size_t>(pos)],
                  fb.treeFirstTile[static_cast<size_t>(pos)]);
    }
}

TEST(LayoutFootprints, PaperRelationshipsHold)
{
    // Build a moderately deep forest and compare footprints: the
    // array layout must bloat severely at tile size 8, while the
    // sparse layout stays within a small factor of the scalar
    // representation (Section V-B reports 16% overhead on their
    // benchmark suite; we only check the ordering and rough scale).
    testing::RandomForestSpec spec;
    spec.numTrees = 40;
    spec.maxDepth = 9;
    spec.splitProbability = 0.8;
    spec.seed = 23;
    model::Forest forest = testing::makeRandomForest(spec);

    hir::Schedule schedule;
    schedule.tileSize = 8;

    schedule.layout = hir::MemoryLayout::kArray;
    hir::HirModule array_module(forest, schedule);
    array_module.runAllHirPasses();
    ForestBuffers array_fb = buildArrayLayout(array_module);

    schedule.layout = hir::MemoryLayout::kSparse;
    hir::HirModule sparse_module(forest, schedule);
    sparse_module.runAllHirPasses();
    ForestBuffers sparse_fb = buildSparseLayout(sparse_module);

    // The random test trees are bushier (leafier fringes) than the
    // paper's XGBoost-trained models, so the sparse layout's constant
    // is looser here; the paper-scale relationships are regenerated
    // against the real benchmark suite by bench_layout_memory.
    int64_t scalar = scalarRepresentationBytes(forest);
    EXPECT_GT(array_fb.footprintBytes(), 2 * scalar);
    EXPECT_GT(array_fb.footprintBytes(),
              3 * sparse_fb.footprintBytes());
    EXPECT_LT(sparse_fb.footprintBytes(), 4 * scalar);
}

TEST(LayoutBuilder, RequiresHirPasses)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 2;
    hir::HirModule module(testing::makeRandomForest(spec), {});
    EXPECT_THROW(buildSparseLayout(module), Error);
    EXPECT_THROW(buildArrayLayout(module), Error);
}

TEST(LayoutBuilder, WalkInfoMirrorsGroups)
{
    hir::Schedule schedule;
    schedule.tileSize = 4;
    hir::HirModule module = makeTiledModule(schedule, 15, 24);
    ForestBuffers fb = buildSparseLayout(module);
    ASSERT_EQ(fb.walkInfo.size(), static_cast<size_t>(fb.numTrees));
    for (const hir::TreeGroup &group : module.groups()) {
        for (int64_t pos = group.beginPos; pos < group.endPos; ++pos) {
            EXPECT_EQ(fb.walkInfo[static_cast<size_t>(pos)].unrolled,
                      group.unrolledWalk);
            EXPECT_EQ(
                fb.walkInfo[static_cast<size_t>(pos)].unrolledDepth,
                group.walkDepth);
        }
    }
}

TEST(ForestBuffersSummary, MentionsLayoutAndSizes)
{
    hir::Schedule schedule;
    hir::HirModule module = makeTiledModule(schedule, 3, 25);
    ForestBuffers fb = buildForestBuffers(module);
    std::string summary = fb.summary();
    EXPECT_NE(summary.find("sparse"), std::string::npos);
    EXPECT_NE(summary.find("tiles="), std::string::npos);
    EXPECT_GT(fb.lutBytes(), 0);
}

/**
 * Every buffer is sized once, so none holds growth slack for the
 * lifetime of the Session that keeps it: on a padded letter-shaped
 * forest (tile size 8, mostly padding), each ForestBuffers vector's
 * capacity equals its size in every layout.
 */
TEST(ForestBuffersCapacity, VectorsHoldNoGrowthSlack)
{
    data::SyntheticModelSpec spec = data::scaledDown(
        data::benchmarkSpecByName("letter"), /*max_trees=*/64,
        /*training_rows=*/400);
    model::Forest forest = data::synthesizeForest(spec);
    for (hir::MemoryLayout layout :
         {hir::MemoryLayout::kArray, hir::MemoryLayout::kSparse,
          hir::MemoryLayout::kPacked}) {
        for (hir::PackedPrecision precision :
             {hir::PackedPrecision::kF32, hir::PackedPrecision::kI16}) {
            hir::Schedule schedule;
            schedule.tiling = hir::TilingAlgorithm::kHybrid;
            schedule.tileSize = 8;
            schedule.padAndUnrollWalks = true;
            schedule.layout = layout;
            schedule.packedPrecision = precision;
            hir::HirModule module(forest, schedule);
            module.runAllHirPasses();
            ForestBuffers fb = buildForestBuffers(module);
            SCOPED_TRACE(layoutKindName(fb.layout));
            auto expect_exact = [](const auto &v, const char *name) {
                EXPECT_EQ(v.capacity(), v.size()) << name;
            };
            expect_exact(fb.treeClass, "treeClass");
            expect_exact(fb.treeFirstTile, "treeFirstTile");
            expect_exact(fb.treeTileEnd, "treeTileEnd");
            expect_exact(fb.thresholds, "thresholds");
            expect_exact(fb.featureIndices, "featureIndices");
            expect_exact(fb.shapeIds, "shapeIds");
            expect_exact(fb.defaultLeft, "defaultLeft");
            expect_exact(fb.childBase, "childBase");
            expect_exact(fb.leaves, "leaves");
            expect_exact(fb.packed, "packed");
            expect_exact(fb.quantization.scale, "quantization.scale");
            expect_exact(fb.quantization.offset, "quantization.offset");
            expect_exact(fb.quantization.stepBudget,
                         "quantization.stepBudget");
            expect_exact(fb.walkInfo, "walkInfo");
        }
    }
}

} // namespace
} // namespace treebeard::lir
