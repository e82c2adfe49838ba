/**
 * @file
 * Mutation corpus for the multi-level verifier: each test corrupts
 * one field of a valid model / schedule / HIR / MIR / LIR artifact
 * and asserts that the verifier reports the exact diagnostic code for
 * that invariant class — and nothing at all on the unmutated input.
 */
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "ir/pass_manager.h"
#include "lir/layout_builder.h"
#include "mir/lowering.h"
#include "model/serialization.h"
#include "test_utils.h"
#include "treebeard/compiler.h"

namespace treebeard {
namespace {

using analysis::DiagnosticEngine;
using analysis::VerificationError;

constexpr float kInf = std::numeric_limits<float>::infinity();

hir::HirModule
makeTiledModule(hir::Schedule schedule, int64_t trees = 8,
                uint64_t seed = 77)
{
    testing::RandomForestSpec spec;
    spec.numTrees = trees;
    spec.seed = seed;
    hir::HirModule module(testing::makeRandomForest(spec), schedule);
    module.runAllHirPasses();
    return module;
}

lir::ForestBuffers
makeBuffers(hir::MemoryLayout layout, int32_t tile_size = 4)
{
    hir::Schedule schedule;
    schedule.tileSize = tile_size;
    schedule.layout = layout;
    hir::HirModule module = makeTiledModule(schedule);
    return lir::buildForestBuffers(module);
}

/** Run the LIR analysis and return the engine for code assertions. */
DiagnosticEngine
runLirVerifier(const lir::ForestBuffers &buffers)
{
    DiagnosticEngine diag;
    diag.setPass("test");
    analysis::verifyLir(buffers, diag);
    return diag;
}

// ---------------------------------------------------------------------
// Model-load mutations (serialization hardening)
// ---------------------------------------------------------------------

std::string
modelJson(const std::string &tree_json)
{
    return "{\"format\":\"treebeard\",\"version\":1,"
           "\"num_features\":3,\"objective\":\"regression\","
           "\"base_score\":0,\"num_classes\":1,\"trees\":[" +
           tree_json + "]}";
}

std::string
treeJson(const std::string &root, const std::string &thresholds,
         const std::string &features, const std::string &lefts,
         const std::string &rights)
{
    return "{\"root\":" + root + ",\"threshold\":[" + thresholds +
           "],\"feature\":[" + features + "],\"left\":[" + lefts +
           "],\"right\":[" + rights + "],\"hit_count\":[1,1,1]}";
}

const char *kValidTree =
    "{\"root\":0,\"threshold\":[0.5,1.0,2.0],\"feature\":[0,-1,-1],"
    "\"left\":[1,-1,-1],\"right\":[2,-1,-1],\"hit_count\":[1,1,1]}";

model::Forest
loadFromText(const std::string &text)
{
    return model::forestFromJson(JsonValue::parse(text));
}

TEST(ModelLoadVerifier, AcceptsValidModel)
{
    model::Forest forest = loadFromText(modelJson(kValidTree));
    EXPECT_EQ(forest.numTrees(), 1);
    EXPECT_EQ(forest.numFeatures(), 3);
}

TEST(ModelLoadVerifier, RejectsNegativeFeatureIndex)
{
    std::string text = modelJson(treeJson(
        "0", "0.5,1.0,2.0", "-5,-1,-1", "1,-1,-1", "2,-1,-1"));
    try {
        loadFromText(text);
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("model.feature.negative"))
            << error.what();
        EXPECT_EQ(error.pass(), "model-load");
    }
}

TEST(ModelLoadVerifier, RejectsOutOfRangeChildIndex)
{
    std::string text = modelJson(treeJson(
        "0", "0.5,1.0,2.0", "0,-1,-1", "1,-1,-1", "9,-1,-1"));
    try {
        loadFromText(text);
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("model.child.out-of-range"))
            << error.what();
    }
}

TEST(ModelLoadVerifier, RejectsOutOfRangeRoot)
{
    std::string text = modelJson(treeJson(
        "7", "0.5,1.0,2.0", "0,-1,-1", "1,-1,-1", "2,-1,-1"));
    try {
        loadFromText(text);
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("model.root.range")) << error.what();
    }
}

TEST(ModelLoadVerifier, RejectsNonFiniteThreshold)
{
    // 1e999 overflows double; the JSON parser saturates it to +inf
    // and the verifier rejects the non-finite split threshold.
    std::string text = modelJson(treeJson(
        "0", "1e999,1.0,2.0", "0,-1,-1", "1,-1,-1", "2,-1,-1"));
    try {
        loadFromText(text);
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("model.threshold.non-finite"))
            << error.what();
    }
}

TEST(ModelLoadVerifier, RejectsFeatureBeyondNumFeatures)
{
    std::string text = modelJson(treeJson(
        "0", "0.5,1.0,2.0", "3,-1,-1", "1,-1,-1", "2,-1,-1"));
    try {
        loadFromText(text);
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("model.feature.out-of-range"))
            << error.what();
    }
}

TEST(ModelLoadVerifier, ReportsEveryDefectInOnePass)
{
    // Two independent defects in two trees surface in one report
    // instead of stopping at the first.
    std::string text =
        "{\"format\":\"treebeard\",\"version\":1,"
        "\"num_features\":3,\"objective\":\"regression\","
        "\"base_score\":0,\"num_classes\":1,\"trees\":[" +
        treeJson("0", "0.5,1.0,2.0", "-5,-1,-1", "1,-1,-1",
                 "2,-1,-1") +
        "," +
        treeJson("7", "0.5,1.0,2.0", "0,-1,-1", "1,-1,-1",
                 "2,-1,-1") +
        "]}";
    try {
        loadFromText(text);
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("model.feature.negative"));
        EXPECT_TRUE(error.hasCode("model.root.range"));
    }
}

TEST(ModelLoadVerifier, RejectsNegativeXgboostSplitIndex)
{
    std::string text =
        "{\"learner\":{"
        "\"learner_model_param\":{\"num_feature\":\"3\","
        "\"base_score\":\"0.5\"},"
        "\"objective\":{\"name\":\"reg:squarederror\"},"
        "\"gradient_booster\":{\"model\":{\"trees\":[{"
        "\"split_indices\":[-2,0,0],"
        "\"split_conditions\":[0.5,1.0,2.0],"
        "\"left_children\":[1,-1,-1],"
        "\"right_children\":[2,-1,-1],"
        "\"base_weights\":[0.0,1.0,2.0]}]}}}}";
    try {
        model::importXgboostJson(JsonValue::parse(text));
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("model.feature.negative"))
            << error.what();
        EXPECT_EQ(error.pass(), "model-load");
    }
}

// ---------------------------------------------------------------------
// Schedule mutations
// ---------------------------------------------------------------------

TEST(ScheduleVerifier, RejectsTileSizeOutOfRange)
{
    hir::Schedule schedule;
    schedule.tileSize = 0;
    DiagnosticEngine diag;
    analysis::verifySchedule(schedule, diag);
    EXPECT_TRUE(diag.hasCode("schedule.tile-size.range"));

    schedule.tileSize = 9;
    diag.clear();
    analysis::verifySchedule(schedule, diag);
    EXPECT_TRUE(diag.hasCode("schedule.tile-size.range"));
}

TEST(ScheduleVerifier, RejectsBadInterleaveFactor)
{
    hir::Schedule schedule;
    schedule.interleaveFactor = 3;
    DiagnosticEngine diag;
    analysis::verifySchedule(schedule, diag);
    EXPECT_TRUE(diag.hasCode("schedule.interleave.factor"));
}

TEST(ScheduleVerifier, RejectsRowChunkOutOfRange)
{
    hir::Schedule schedule;
    schedule.rowChunkRows = -3;
    DiagnosticEngine diag;
    analysis::verifySchedule(schedule, diag);
    EXPECT_TRUE(diag.hasCode("hir.schedule.row-chunk.range"));

    schedule.rowChunkRows = hir::kMaxRowChunkRows + 1;
    diag.clear();
    analysis::verifySchedule(schedule, diag);
    EXPECT_TRUE(diag.hasCode("hir.schedule.row-chunk.range"));

    // 0 is the documented auto chunk (one per worker), not an error.
    schedule.rowChunkRows = 0;
    diag.clear();
    analysis::verifySchedule(schedule, diag);
    EXPECT_TRUE(diag.empty()) << diag.toString();
}

TEST(ScheduleVerifier, RejectsNanAlpha)
{
    hir::Schedule schedule;
    schedule.alpha = std::nan("");
    DiagnosticEngine diag;
    analysis::verifySchedule(schedule, diag);
    EXPECT_TRUE(diag.hasCode("schedule.alpha.range"));
}

TEST(ScheduleVerifier, ValidateThrowsRecoverableError)
{
    hir::Schedule schedule;
    schedule.numThreads = 0;
    try {
        schedule.validate();
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("schedule.threads.range"));
        EXPECT_EQ(error.pass(), "schedule-validate");
    }
}

// ---------------------------------------------------------------------
// HIR mutations
// ---------------------------------------------------------------------

TEST(HirVerifier, CleanModuleHasNoDiagnostics)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    DiagnosticEngine diag;
    analysis::verifyHir(module, diag);
    EXPECT_TRUE(diag.empty()) << diag.toString();
}

TEST(HirVerifier, DetectsPartitionHole)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    auto &tiled = const_cast<hir::TiledTree &>(module.tiledTree(0));
    // Drop one node from some internal tile: the tiling no longer
    // covers the base tree.
    for (hir::TileId id = 0; id < tiled.numTiles(); ++id) {
        hir::Tile tile = tiled.tile(id);
        if (tile.kind == hir::Tile::Kind::kInternal &&
            tile.numNodes() > 1) {
            tiled.popNode(id);
            break;
        }
    }
    DiagnosticEngine diag;
    analysis::verifyHir(module, diag);
    EXPECT_TRUE(diag.hasCode("hir.tiling.partition"))
        << diag.toString();
}

TEST(HirVerifier, DetectsNodeOutsideBaseTree)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    auto &tiled = const_cast<hir::TiledTree &>(module.tiledTree(0));
    tiled.setNode(0, 0, tiled.baseTree().numNodes() + 5);
    DiagnosticEngine diag;
    analysis::verifyHir(module, diag);
    EXPECT_TRUE(diag.hasCode("hir.tiling.node-range"))
        << diag.toString();
}

TEST(HirVerifier, DetectsRootTileWithParent)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    auto &tiled = const_cast<hir::TiledTree &>(module.tiledTree(0));
    tiled.setParent(tiled.rootTile(), 1);
    DiagnosticEngine diag;
    analysis::verifyHir(module, diag);
    EXPECT_TRUE(diag.hasCode("hir.tiling.parent-link"))
        << diag.toString();
}

TEST(HirVerifier, DetectsStaleLeafValue)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    auto &tiled = const_cast<hir::TiledTree &>(module.tiledTree(0));
    for (hir::TileId id = 0; id < tiled.numTiles(); ++id) {
        hir::Tile tile = tiled.tile(id);
        if (tile.kind == hir::Tile::Kind::kLeaf) {
            tiled.setLeafValue(id, tile.leafValue + 1.0f);
            break;
        }
    }
    DiagnosticEngine diag;
    analysis::verifyHir(module, diag);
    EXPECT_TRUE(diag.hasCode("hir.tiling.stale-leaf"))
        << diag.toString();
}

TEST(HirVerifier, DetectsBrokenTreeOrder)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    auto &order =
        const_cast<std::vector<int64_t> &>(module.treeOrder());
    order[0] = order[1]; // duplicate: no longer a permutation
    DiagnosticEngine diag;
    analysis::verifyHir(module, diag);
    EXPECT_TRUE(diag.hasCode("hir.reorder.permutation"))
        << diag.toString();
}

TEST(HirVerifier, DetectsGroupCoverageGap)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    ASSERT_FALSE(module.groups().empty());
    auto &groups =
        const_cast<std::vector<hir::TreeGroup> &>(module.groups());
    groups.back().endPos -= 1;
    DiagnosticEngine diag;
    analysis::verifyHir(module, diag);
    EXPECT_TRUE(diag.hasCode("hir.group.coverage"))
        << diag.toString();
}

TEST(HirVerifier, DetectsOverpromisedUnrollDepth)
{
    hir::Schedule schedule;
    hir::HirModule module = makeTiledModule(schedule);
    auto &groups =
        const_cast<std::vector<hir::TreeGroup> &>(module.groups());
    bool mutated = false;
    for (hir::TreeGroup &group : groups) {
        if (group.unrolledWalk) {
            group.walkDepth += 1;
            mutated = true;
            break;
        }
    }
    if (!mutated)
        GTEST_SKIP() << "no unrolled group under this schedule";
    DiagnosticEngine diag;
    analysis::verifyHir(module, diag);
    EXPECT_TRUE(diag.hasCode("hir.group.pad-depth"))
        << diag.toString();
}

// ---------------------------------------------------------------------
// MIR mutations
// ---------------------------------------------------------------------

mir::MirFunction
makeMir(hir::HirModule &module)
{
    mir::MirFunction function = mir::lowerToMir(module);
    return function;
}

TEST(MirVerifier, CleanFunctionHasNoDiagnostics)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    mir::MirFunction function = makeMir(module);
    DiagnosticEngine diag;
    analysis::verifyMir(
        function, static_cast<int64_t>(module.groups().size()), diag);
    EXPECT_TRUE(diag.empty()) << diag.toString();
}

TEST(MirVerifier, DetectsZeroStepLoop)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    mir::MirFunction function = makeMir(module);
    std::vector<mir::MirOp *> loops;
    function.body.collectMutable(mir::OpKind::kFor, loops);
    ASSERT_FALSE(loops.empty());
    loops.front()->step = "0";
    try {
        function.verify();
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("mir.loop.step-zero"));
        EXPECT_EQ(error.pass(), "mir-verify");
    }
}

TEST(MirVerifier, DetectsWalkGroupOutOfRange)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    mir::MirFunction function = makeMir(module);
    std::vector<mir::MirOp *> walks = function.walkOpsMutable();
    ASSERT_FALSE(walks.empty());
    walks.front()->groupIndex =
        static_cast<int64_t>(module.groups().size()) + 3;
    DiagnosticEngine diag;
    analysis::verifyMir(
        function, static_cast<int64_t>(module.groups().size()), diag);
    EXPECT_TRUE(diag.hasCode("mir.walk.group-range"))
        << diag.toString();
}

TEST(MirVerifier, DetectsBadInterleaveAxis)
{
    hir::HirModule module = makeTiledModule(hir::Schedule());
    mir::MirFunction function = makeMir(module);
    std::vector<mir::MirOp *> walks = function.walkOpsMutable();
    ASSERT_FALSE(walks.empty());
    walks.front()->interleave = 4;
    walks.front()->interleaveAxis = mir::InterleaveAxis::kNone;
    DiagnosticEngine diag;
    analysis::verifyMir(function, -1, diag);
    EXPECT_TRUE(diag.hasCode("mir.walk.interleave-axis"))
        << diag.toString();
}

TEST(MirVerifier, DetectsEmptyFunction)
{
    mir::MirFunction function;
    DiagnosticEngine diag;
    analysis::verifyMir(function, -1, diag);
    EXPECT_TRUE(diag.hasCode("mir.walk.none"));
    EXPECT_TRUE(diag.hasCode("mir.output.missing"));
}

// ---------------------------------------------------------------------
// LIR mutations: sparse layout
// ---------------------------------------------------------------------

/** A tile with real predicates, and the tree block holding it. */
struct SparseTilePick
{
    int64_t tile = -1;
    int64_t first = -1;
    int64_t end = -1;
};

/** First tile (any tree) with real predicates and tile children. */
SparseTilePick
findSparseInternalTile(const lir::ForestBuffers &fb,
                       bool want_tile_children)
{
    for (int64_t t = 0; t < fb.numTrees; ++t) {
        int64_t first = fb.treeFirstTile[static_cast<size_t>(t)];
        int64_t end = fb.treeTileEnd[static_cast<size_t>(t)];
        for (int64_t tile = first; tile < end; ++tile) {
            lir::ForestBuffers::TileFields fields =
                fb.tileFields(tile);
            bool all_inf = true;
            for (int32_t slot = 0; slot < fb.tileSize; ++slot)
                all_inf = all_inf && fields.thresholds[slot] == kInf;
            if (all_inf)
                continue;
            if ((fields.childBase >= 0) == want_tile_children)
                return {tile, first, end};
        }
    }
    return {};
}

TEST(LirVerifierSparse, CleanBuffersHaveNoDiagnostics)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.empty()) << diag.toString();
}

TEST(LirVerifierSparse, DetectsBackwardChildBase)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    SparseTilePick pick = findSparseInternalTile(fb, true);
    ASSERT_GE(pick.tile, 0);
    fb.childBase[static_cast<size_t>(pick.tile)] =
        static_cast<int32_t>(pick.tile);
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.child-base.backward"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsChildBaseBeyondTreeBlock)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    SparseTilePick pick = findSparseInternalTile(fb, true);
    ASSERT_GE(pick.tile, 0);
    fb.childBase[static_cast<size_t>(pick.tile)] =
        static_cast<int32_t>(pick.end);
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.child-base.oob"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsLeafRangeOverflow)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    SparseTilePick pick = findSparseInternalTile(fb, false);
    ASSERT_GE(pick.tile, 0);
    // Point the tile's leaf range one past the end of the pool.
    fb.childBase[static_cast<size_t>(pick.tile)] =
        static_cast<int32_t>(
            -(static_cast<int64_t>(fb.leaves.size()) + 1));
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.leaf-range.oob"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsNonFiniteThreshold)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    SparseTilePick pick = findSparseInternalTile(fb, true);
    ASSERT_GE(pick.tile, 0);
    fb.thresholds[static_cast<size_t>(pick.tile * fb.tileSize)] =
        std::nanf("");
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.threshold.invalid"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsFeatureIndexOutOfRange)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    SparseTilePick pick = findSparseInternalTile(fb, true);
    ASSERT_GE(pick.tile, 0);
    fb.featureIndices[static_cast<size_t>(pick.tile * fb.tileSize)] =
        fb.numFeatures;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.feature.range")) << diag.toString();
}

TEST(LirVerifierSparse, DetectsShapeIdOutOfRange)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    int64_t tile = fb.treeFirstTile[0];
    fb.shapeIds[static_cast<size_t>(tile)] =
        static_cast<int16_t>(fb.shapes->numShapes());
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.shape-id.range")) << diag.toString();
}

TEST(LirVerifierSparse, DetectsOrphanAndSharedTiles)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    // Shift one parent's child pointer by one: its first original
    // child loses its only parent (orphan) and the tile one past its
    // children gains a second one (shared).
    int64_t victim = -1;
    for (int64_t t = 0; t < fb.numTrees && victim < 0; ++t) {
        int64_t first = fb.treeFirstTile[static_cast<size_t>(t)];
        int64_t end = fb.treeTileEnd[static_cast<size_t>(t)];
        for (int64_t tile = first; tile < end; ++tile) {
            lir::ForestBuffers::TileFields fields =
                fb.tileFields(tile);
            bool all_inf = true;
            for (int32_t slot = 0; slot < fb.tileSize; ++slot)
                all_inf = all_inf && fields.thresholds[slot] == kInf;
            if (all_inf || fields.childBase < 0)
                continue;
            int32_t children =
                fb.shapes->shape(fields.shapeId).numChildren();
            if (fields.childBase + children + 1 <= end) {
                victim = tile;
                break;
            }
        }
    }
    ASSERT_GE(victim, 0);
    fb.childBase[static_cast<size_t>(victim)] += 1;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.topology.orphan"))
        << diag.toString();
    EXPECT_TRUE(diag.hasCode("lir.topology.shared"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsBrokenSafetyTail)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    int64_t tail = fb.numTiles() - 1;
    // A tail tile that walks onwards instead of terminating.
    fb.childBase[static_cast<size_t>(tail)] = 0;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.tail.broken")) << diag.toString();
}

TEST(LirVerifierSparse, DetectsTailWithoutDefaultLeftSentinel)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    int64_t tail = fb.numTiles() - 1;
    fb.defaultLeft[static_cast<size_t>(tail)] = 0;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.sentinel.default-left"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsNonFiniteLeafPoolEntry)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    ASSERT_FALSE(fb.leaves.empty());
    fb.leaves[0] = kInf;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.leaf.non-finite"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsBufferShapeMismatch)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    fb.thresholds.pop_back();
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.buffer.shape")) << diag.toString();
}

TEST(LirVerifierSparse, DetectsTreeTableMismatch)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    fb.treeFirstTile.pop_back();
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.tree-table.shape"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsTreeClassOutOfRange)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    fb.treeClass[0] = fb.numClasses;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.tree-class.range"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsShapeTableMismatch)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse, 4);
    fb.tileSize = 3; // buffers claim a different tile size than the LUT
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.shape-table.mismatch"))
        << diag.toString();
}

TEST(LirVerifierSparse, DetectsMissingShapeTable)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kSparse);
    fb.shapes = nullptr;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.shape-table.missing"));
}

// ---------------------------------------------------------------------
// LIR mutations: array layout
// ---------------------------------------------------------------------

/** Follow child 0 from the root to the first leaf-marker tile. */
int64_t
findReachableArrayLeaf(const lir::ForestBuffers &fb)
{
    int64_t first = fb.treeFirstTile[0];
    int64_t local = 0;
    while (fb.shapeIds[static_cast<size_t>(first + local)] !=
           lir::kLeafTileMarker) {
        local = static_cast<int64_t>(fb.tileSize + 1) * local + 1;
        if (first + local >= fb.treeTileEnd[0])
            return -1;
    }
    return first + local;
}

TEST(LirVerifierArray, CleanBuffersHaveNoDiagnostics)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kArray);
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.empty()) << diag.toString();
}

TEST(LirVerifierArray, DetectsReachableUnusedTile)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kArray);
    int64_t leaf = findReachableArrayLeaf(fb);
    ASSERT_GE(leaf, 0);
    fb.shapeIds[static_cast<size_t>(leaf)] = lir::kUnusedTileMarker;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.array.reached-unused"))
        << diag.toString();
}

TEST(LirVerifierArray, DetectsNonFiniteLeafValue)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kArray);
    int64_t leaf = findReachableArrayLeaf(fb);
    ASSERT_GE(leaf, 0);
    fb.thresholds[static_cast<size_t>(leaf * fb.tileSize)] =
        std::nanf("");
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.leaf.non-finite"))
        << diag.toString();
}

TEST(LirVerifierArray, DetectsChildrenBeyondTreeBlock)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kArray);
    // Truncate the last tree's block to its root tile: the root's
    // implicit children now fall outside the block.
    size_t last = static_cast<size_t>(fb.numTrees - 1);
    fb.treeTileEnd[last] = fb.treeFirstTile[last] + 1;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.array.child.oob"))
        << diag.toString();
}

TEST(LirVerifierArray, DetectsShapeIdOutOfRange)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kArray);
    int64_t root = fb.treeFirstTile[0];
    fb.shapeIds[static_cast<size_t>(root)] =
        static_cast<int16_t>(fb.shapes->numShapes() + 1);
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.shape-id.range")) << diag.toString();
}

TEST(LirVerifierArray, DetectsUnorderedTreeBlocks)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kArray);
    ASSERT_GE(fb.numTrees, 2);
    fb.treeFirstTile[1] = fb.treeFirstTile[0];
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.tree-table.shape"))
        << diag.toString();
}

// ---------------------------------------------------------------------
// LIR mutations: packed layout
// ---------------------------------------------------------------------

TEST(LirVerifierPacked, CleanBuffersHaveNoDiagnostics)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kPacked);
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.empty()) << diag.toString();
}

TEST(LirVerifierPacked, DetectsWrongStride)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kPacked);
    fb.packedStride *= 2;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packed.stride")) << diag.toString();
}

TEST(LirVerifierPacked, DetectsUndersizedRecordBuffer)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kPacked);
    ASSERT_GT(fb.packed.size(), 1u);
    fb.packed.resize(fb.packed.size() / 2);
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packed.buffer-size"))
        << diag.toString();
}

TEST(LirVerifierPacked, DetectsFeaturesBeyondInt16)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kPacked);
    fb.numFeatures = lir::kPackedMaxFeatures;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packed.features"))
        << diag.toString();
}

TEST(LirVerifierPacked, DetectsCorruptShapeIdInRecord)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kPacked);
    int64_t root = fb.treeFirstTile[0];
    int16_t bad = static_cast<int16_t>(fb.shapes->numShapes() + 7);
    std::memcpy(fb.packedData() + root * fb.packedStride +
                    lir::packedShapeOffset(fb.tileSize),
                &bad, sizeof(bad));
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.shape-id.range")) << diag.toString();
}

TEST(LirVerifierPacked, DetectsBackwardChildBaseInRecord)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kPacked);
    int64_t root = fb.treeFirstTile[0];
    // The root tile of a multi-node tree has tile children; pointing
    // its childBase at itself breaks termination.
    int32_t bad = static_cast<int32_t>(root);
    std::memcpy(fb.packedData() + root * fb.packedStride +
                    lir::packedChildBaseOffset(fb.tileSize),
                &bad, sizeof(bad));
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.child-base.backward"))
        << diag.toString();
}

TEST(LirVerifierPacked, DetectsFeatureIndexOutOfRangeInRecord)
{
    lir::ForestBuffers fb = makeBuffers(hir::MemoryLayout::kPacked);
    int64_t root = fb.treeFirstTile[0];
    int16_t bad = static_cast<int16_t>(fb.numFeatures);
    std::memcpy(fb.packedData() + root * fb.packedStride +
                    lir::packedFeaturesOffset(fb.tileSize),
                &bad, sizeof(bad));
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.feature.range")) << diag.toString();
}

// ---------------------------------------------------------------------
// LIR mutations: quantized packed layout
// ---------------------------------------------------------------------

lir::ForestBuffers
makeQuantizedBuffers(int32_t tile_size = 4)
{
    hir::Schedule schedule;
    schedule.tileSize = tile_size;
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = hir::PackedPrecision::kI16;
    hir::HirModule module = makeTiledModule(schedule);
    return lir::buildForestBuffers(module);
}

TEST(LirVerifierPackedQuantized, CleanBuffersHaveNoDiagnostics)
{
    for (int32_t tile_size : {1, 4, 8}) {
        lir::ForestBuffers fb = makeQuantizedBuffers(tile_size);
        ASSERT_EQ(fb.layout, lir::LayoutKind::kPackedQuantized);
        DiagnosticEngine diag = runLirVerifier(fb);
        EXPECT_TRUE(diag.empty())
            << "tile size " << tile_size << "\n" << diag.toString();
    }
}

TEST(LirVerifierPackedQuantized, DetectsWrongStride)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    fb.packedStride *= 2;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.stride"))
        << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsUndersizedRecordBuffer)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    ASSERT_GT(fb.packed.size(), 1u);
    fb.packed.resize(fb.packed.size() / 2);
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.stride"))
        << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsFeaturesBeyondUint8)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    fb.numFeatures = lir::kPackedQuantizedMaxFeatures;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.features"))
        << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsDegenerateAffineMap)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    fb.quantization.scale[0] = 0.0f;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.scale")) << diag.toString();

    fb = makeQuantizedBuffers();
    fb.quantization.offset[0] = std::nanf("");
    diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.scale")) << diag.toString();

    fb = makeQuantizedBuffers();
    fb.quantization.scale.pop_back();
    diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.scale")) << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsInconsistentStepBudget)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    // A step budget that disagrees with 1/scale understates (or
    // overstates) the rounding the records actually suffered.
    fb.quantization.stepBudget[0] *= 8.0f;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.budget"))
        << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsCorruptErrorBudgets)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    fb.quantization.predictionErrorBudget = -1.0f;
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.budget"))
        << diag.toString();

    // A zero max-threshold-error claims the records are exact; every
    // materialized threshold's real step contradicts it.
    fb = makeQuantizedBuffers();
    fb.quantization.maxThresholdError = 0.0f;
    diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.budget"))
        << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsSentinelInPopulatedSlot)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    int64_t root = fb.treeFirstTile[0];
    int16_t sentinel = lir::kQuantizedNaN;
    std::memcpy(fb.packedData() + root * fb.packedStride, &sentinel,
                sizeof(sentinel));
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.packedq.threshold"))
        << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsCorruptShapeIdInRecord)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    int64_t root = fb.treeFirstTile[0];
    int16_t bad = static_cast<int16_t>(fb.shapes->numShapes() + 7);
    std::memcpy(fb.packedData() + root * fb.packedStride +
                    lir::packedqShapeOffset(fb.tileSize),
                &bad, sizeof(bad));
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.shape-id.range")) << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsBackwardChildBaseInRecord)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    int64_t root = fb.treeFirstTile[0];
    int32_t bad = static_cast<int32_t>(root);
    std::memcpy(fb.packedData() + root * fb.packedStride +
                    lir::packedqChildBaseOffset(fb.tileSize),
                &bad, sizeof(bad));
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.child-base.backward"))
        << diag.toString();
}

TEST(LirVerifierPackedQuantized, DetectsFeatureIndexOutOfRangeInRecord)
{
    lir::ForestBuffers fb = makeQuantizedBuffers();
    int64_t root = fb.treeFirstTile[0];
    uint8_t bad = 255; // model has 10 features
    std::memcpy(fb.packedData() + root * fb.packedStride +
                    lir::packedqFeaturesOffset(fb.tileSize),
                &bad, sizeof(bad));
    DiagnosticEngine diag = runLirVerifier(fb);
    EXPECT_TRUE(diag.hasCode("lir.feature.range")) << diag.toString();
}

// ---------------------------------------------------------------------
// LUT totality
// ---------------------------------------------------------------------

TEST(LirVerifier, LutLookupsAreTotalForAllTileSizes)
{
    for (int32_t tile_size = 1; tile_size <= 8; ++tile_size) {
        lir::ForestBuffers fb =
            makeBuffers(hir::MemoryLayout::kSparse, tile_size);
        DiagnosticEngine diag = runLirVerifier(fb);
        EXPECT_FALSE(diag.hasCode("lir.lut.range"))
            << "tile size " << tile_size << "\n"
            << diag.toString();
        EXPECT_FALSE(diag.hasCode("lir.lut.stride"))
            << "tile size " << tile_size;
    }
}

// ---------------------------------------------------------------------
// Pipeline integration: verifyEach and the pass-manager hook
// ---------------------------------------------------------------------

TEST(VerifyEach, CleanCompileProducesNoDiagnostics)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 10;
    model::Forest forest = testing::makeRandomForest(spec);
    for (hir::MemoryLayout layout :
         {hir::MemoryLayout::kArray, hir::MemoryLayout::kSparse,
          hir::MemoryLayout::kPacked}) {
        hir::Schedule schedule;
        schedule.layout = layout;
        schedule.interleaveFactor = 2;
        CompilerOptions options;
        options.verifyEach = true;
        Session session = compile(forest, schedule, options);
        EXPECT_TRUE(session.artifacts().diagnostics.empty())
            << hir::memoryLayoutName(layout);
        // Verification is compile-time instrumentation only: the
        // compiled session still predicts.
        std::vector<float> row(
            static_cast<size_t>(session.numFeatures()), 0.5f);
        float out = 0.0f;
        session.predict(row.data(), 1, &out);
        EXPECT_TRUE(std::isfinite(out));
    }
}

TEST(VerifyEach, PreCompileRejectsBadSchedule)
{
    testing::RandomForestSpec spec;
    spec.numTrees = 2;
    model::Forest forest = testing::makeRandomForest(spec);
    hir::Schedule schedule;
    schedule.tileSize = 42;
    try {
        compile(forest, schedule, CompilerOptions());
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_TRUE(error.hasCode("schedule.tile-size.range"));
        EXPECT_EQ(error.pass(), "pre-compile");
    }
}

TEST(PassManager, InstrumentationRunsAfterEveryPass)
{
    ir::PassManager<int> pm;
    pm.addPass("one", [](int &value) { value += 1; });
    pm.addPass("two", [](int &value) { value *= 10; });
    std::vector<std::string> seen;
    std::vector<int> values;
    pm.setInstrumentation(
        [&](const ir::PassTrace &trace, int &value) {
            seen.push_back(trace.name);
            values.push_back(value);
        });
    int payload = 1;
    pm.run(payload);
    EXPECT_EQ(payload, 20);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], "one");
    EXPECT_EQ(seen[1], "two");
    EXPECT_EQ(values[0], 2);
    EXPECT_EQ(values[1], 20);
}

TEST(PassManager, InstrumentationFailureStopsThePipeline)
{
    ir::PassManager<int> pm;
    pm.addPass("one", [](int &value) { value += 1; });
    pm.addPass("two", [](int &value) { value *= 10; });
    pm.setInstrumentation([](const ir::PassTrace &trace, int &) {
        if (trace.name == "one") {
            DiagnosticEngine diag;
            diag.setPass(trace.name);
            diag.error(analysis::IrLevel::kMir, "test.code", "boom");
            diag.throwIfErrors();
        }
    });
    int payload = 1;
    try {
        pm.run(payload);
        FAIL() << "expected VerificationError";
    } catch (const VerificationError &error) {
        EXPECT_EQ(error.pass(), "one");
        EXPECT_TRUE(error.hasCode("test.code"));
    }
    EXPECT_EQ(payload, 2) << "pass 'two' must not have run";
}

} // namespace
} // namespace treebeard
