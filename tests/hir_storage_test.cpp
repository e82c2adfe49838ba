/**
 * @file
 * HIR tile storage. A golden suite pins everything lowered from the
 * HIR (every ForestBuffers vector, the tree groups and the emitted JIT
 * source) plus each tiled tree's structure signature, byte for byte,
 * across the eight Table I specs, all four layouts, tile sizes 1/4/8
 * and pad-and-unroll on and off, and pins every tile's id: a change to
 * how tiles are stored must not move a single lowered byte or tile.
 * The footprint test bounds the bytes the HIR spends per tile on a
 * padded letter-shaped forest.
 *
 * The recorded hashes depend on the synthetic forests, which draw from
 * the standard library's <random> distributions; they were recorded
 * with libstdc++, and another standard library must re-record them.
 */
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/cpp_emitter.h"
#include "data/synthetic.h"
#include "hir/hir_module.h"
#include "treebeard/compiler.h"

namespace treebeard {
namespace {

/** FNV-1a over the exact bytes of every hashed field. */
class Hasher
{
  public:
    void bytes(const void *data, size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 1099511628211ull;
        }
    }

    template <typename T>
    void value(const T &v)
    {
        bytes(&v, sizeof(T));
    }

    /** Length-prefixed contiguous vector of padding-free scalars. */
    template <typename T>
    void array(const std::vector<T> &v)
    {
        value(static_cast<uint64_t>(v.size()));
        bytes(v.data(), v.size() * sizeof(T));
    }

    uint64_t digest() const { return hash_; }

  private:
    uint64_t hash_ = 14695981039346656037ull;
};

/** Structs with padding are hashed field by field. */
void
hashBuffers(Hasher &h, const lir::ForestBuffers &fb)
{
    h.value(static_cast<int32_t>(fb.layout));
    h.value(fb.tileSize);
    h.value(fb.numTrees);
    h.value(fb.numFeatures);
    h.value(fb.baseScore);
    h.value(static_cast<int32_t>(fb.objective));
    h.value(fb.numClasses);
    h.array(fb.treeClass);
    h.array(fb.treeFirstTile);
    h.array(fb.treeTileEnd);
    h.array(fb.thresholds);
    h.array(fb.featureIndices);
    h.array(fb.shapeIds);
    h.array(fb.defaultLeft);
    h.value(fb.hasDefaultLeft);
    h.array(fb.childBase);
    h.array(fb.leaves);
    h.value(static_cast<uint64_t>(fb.packed.size()));
    h.bytes(fb.packedData(), fb.packed.size() * sizeof(lir::PackedLine));
    h.value(fb.packedStride);
    h.value(fb.packedTileCount);
    h.array(fb.quantization.scale);
    h.array(fb.quantization.offset);
    h.array(fb.quantization.stepBudget);
    h.value(fb.quantization.maxThresholdError);
    h.value(fb.quantization.predictionErrorBudget);
    h.value(static_cast<uint64_t>(fb.walkInfo.size()));
    for (const lir::TreeWalkInfo &info : fb.walkInfo) {
        h.value(info.unrolledDepth);
        h.value(info.unrolled);
        h.value(info.peelDepth);
    }
    h.value(static_cast<uint64_t>(fb.hotPaths.size()));
    for (const lir::TreeHotPath &hot : fb.hotPaths) {
        h.value(static_cast<uint64_t>(hot.nodes.size()));
        for (const lir::HotPathNode &node : hot.nodes) {
            h.value(node.threshold);
            h.value(node.qthreshold);
            h.value(node.feature);
            h.value(node.defaultLeft);
            h.value(node.left);
            h.value(node.right);
        }
        h.value(static_cast<uint64_t>(hot.outcomes.size()));
        for (const lir::HotPathOutcome &outcome : hot.outcomes) {
            h.value(outcome.leafValue);
            h.value(outcome.coldEntryTile);
            h.value(outcome.probability);
        }
        h.value(hot.hotCoverage);
        h.value(hot.depthFallback);
    }
    h.value(static_cast<uint64_t>(fb.tileGlobalIndex.size()));
    for (const std::vector<int64_t> &index : fb.tileGlobalIndex)
        h.array(index);
}

void
hashGroups(Hasher &h, const std::vector<hir::TreeGroup> &groups)
{
    h.value(static_cast<uint64_t>(groups.size()));
    for (const hir::TreeGroup &group : groups) {
        h.value(group.beginPos);
        h.value(group.endPos);
        h.value(group.walkDepth);
        h.value(group.unrolledWalk);
        h.value(group.peelDepth);
    }
}

/** One lowering configuration of the golden grid. */
struct Config
{
    int32_t tileSize = 4;
    bool pad = true;
    double hotPathCoverage = 0.0;
};

/** Tile sizes 1/4/8 x pad on/off, plus one hot-path configuration. */
std::vector<Config>
goldenConfigs()
{
    std::vector<Config> configs;
    for (int32_t tile_size : {1, 4, 8}) {
        for (bool pad : {true, false})
            configs.push_back({tile_size, pad, 0.0});
    }
    configs.push_back({4, true, 0.6});
    return configs;
}

struct LayoutChoice
{
    const char *name;
    hir::MemoryLayout layout;
    hir::PackedPrecision precision;
};

constexpr LayoutChoice kLayouts[] = {
    {"array", hir::MemoryLayout::kArray, hir::PackedPrecision::kF32},
    {"sparse", hir::MemoryLayout::kSparse, hir::PackedPrecision::kF32},
    {"packed", hir::MemoryLayout::kPacked, hir::PackedPrecision::kF32},
    {"packed-i16", hir::MemoryLayout::kPacked, hir::PackedPrecision::kI16},
};

/** Hash of one spec under one layout over every golden config. */
uint64_t
layoutDigest(const model::Forest &forest, const LayoutChoice &choice)
{
    Hasher h;
    for (const Config &config : goldenConfigs()) {
        hir::Schedule schedule;
        schedule.tiling = hir::TilingAlgorithm::kHybrid;
        schedule.tileSize = config.tileSize;
        schedule.layout = choice.layout;
        schedule.packedPrecision = choice.precision;
        schedule.padAndUnrollWalks = config.pad;
        schedule.peelWalks = true;
        schedule.hotPathCoverage = config.hotPathCoverage;

        Session session = compile(forest, schedule);
        const runtime::ExecutablePlan &plan = session.plan();
        hashBuffers(h, plan.buffers());
        hashGroups(h, plan.groups());
        std::string source = codegen::emitPredictForestSource(
            plan.buffers(), plan.groups(), schedule);
        h.value(static_cast<uint64_t>(source.size()));
        h.bytes(source.data(), source.size());

        hir::HirModule module(forest, schedule);
        module.runAllHirPasses();
        for (const hir::TiledTree &tiled : module.tiledTrees()) {
            h.value(tiled.numTiles());
            h.array(tiled.structureSignature());
        }
    }
    return h.digest();
}

/** Recorded digests, keyed "<spec>/<layout>". */
const std::map<std::string, uint64_t> &
recordedDigests()
{
    static const std::map<std::string, uint64_t> digests = {
        {"abalone/array", 0x860729893012d6e5ull},
        {"abalone/sparse", 0x857f3a03012d827ull},
        {"abalone/packed", 0x11ba97e4e546afdull},
        {"abalone/packed-i16", 0xeb233adf5f5a6e62ull},
        {"airline/array", 0x8373e32f1a38880eull},
        {"airline/sparse", 0xb7bb3746d2a832a2ull},
        {"airline/packed", 0xe18f1fc05c44bec6ull},
        {"airline/packed-i16", 0xeaa043b87194a564ull},
        {"airline-ohe/array", 0xe254e639e3884a4ull},
        {"airline-ohe/sparse", 0xc8e2e12a0f8d38abull},
        {"airline-ohe/packed", 0xfead1fcb85aa55f9ull},
        {"airline-ohe/packed-i16", 0x1ae81d89e820dca5ull},
        {"covtype/array", 0x2dbffd1ffe61ee5aull},
        {"covtype/sparse", 0x5a469c8de6015cfeull},
        {"covtype/packed", 0x13e0e1f8adc6220bull},
        {"covtype/packed-i16", 0x497514e91c8ec1dull},
        {"epsilon/array", 0x94eb77ab35bac2bbull},
        {"epsilon/sparse", 0xb7cf66bdf7f8f375ull},
        {"epsilon/packed", 0xb2d173e8d3b8ae2dull},
        {"epsilon/packed-i16", 0xbb1bfccea7314ab7ull},
        {"letter/array", 0x424d3870852f6a3eull},
        {"letter/sparse", 0x10ca85b926484de2ull},
        {"letter/packed", 0x97171a2689778e4ull},
        {"letter/packed-i16", 0xf28c89141ca00971ull},
        {"higgs/array", 0xd937c79c68ad8c03ull},
        {"higgs/sparse", 0xf4a2411288335175ull},
        {"higgs/packed", 0x8825d291667b267eull},
        {"higgs/packed-i16", 0xf2e6a32632e6b5e8ull},
        {"year/array", 0xb26c04e8fecd02fbull},
        {"year/sparse", 0xf2019d2c16bbad7dull},
        {"year/packed", 0x3a97bdee3dac4fd0ull},
        {"year/packed-i16", 0x428f09e28ccfe3deull},
    };
    return digests;
}

class HirStorageGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(HirStorageGolden, LoweringIsByteIdentical)
{
    data::SyntheticModelSpec spec = data::scaledDown(
        data::benchmarkSpecByName(GetParam()), /*max_trees=*/8,
        /*training_rows=*/400);
    model::Forest forest = data::synthesizeForest(spec);
    for (const LayoutChoice &choice : kLayouts) {
        std::string key = GetParam() + "/" + choice.name;
        uint64_t digest = layoutDigest(forest, choice);
        auto it = recordedDigests().find(key);
        std::ostringstream actual;
        actual << "{\"" << key << "\", 0x" << std::hex << digest
               << "ull},";
        if (it == recordedDigests().end()) {
            ADD_FAILURE() << "no recorded digest; actual: "
                          << actual.str();
            continue;
        }
        EXPECT_EQ(it->second, digest)
            << "lowered bytes changed; actual: " << actual.str();
    }
}

/**
 * Tile ids and tile order: a digest of every tile's kind, parent, leaf
 * value, nodes and children, by id, after the HIR passes at tile sizes
 * 1/4/8 with pad-and-unroll on and off.
 */
TEST_P(HirStorageGolden, TileIdsAreStable)
{
    static const std::map<std::string, uint64_t> recorded = {
        {"abalone", 0xd8aadeb8c2227cc9ull},
        {"airline", 0x49a0a08c1b08330eull},
        {"airline-ohe", 0x2b7ae48851c30dc1ull},
        {"covtype", 0xdfb481adc66d38cdull},
        {"epsilon", 0x898f253e9f307aa4ull},
        {"letter", 0xa27ecef95248705cull},
        {"higgs", 0x346d4563fd17d8eull},
        {"year", 0xe411bdd67bbc5917ull},
    };
    data::SyntheticModelSpec spec = data::scaledDown(
        data::benchmarkSpecByName(GetParam()), /*max_trees=*/8,
        /*training_rows=*/400);
    model::Forest forest = data::synthesizeForest(spec);
    Hasher h;
    for (const Config &config : goldenConfigs()) {
        if (config.hotPathCoverage > 0.0)
            continue;
        hir::Schedule schedule;
        schedule.tiling = hir::TilingAlgorithm::kHybrid;
        schedule.tileSize = config.tileSize;
        schedule.padAndUnrollWalks = config.pad;
        schedule.peelWalks = true;
        hir::HirModule module(forest, schedule);
        module.runAllHirPasses();
        for (const hir::TiledTree &tiled : module.tiledTrees()) {
            h.value(tiled.numTiles());
            for (hir::TileId id = 0; id < tiled.numTiles(); ++id) {
                hir::Tile tile = tiled.tile(id);
                h.value(static_cast<int32_t>(tile.kind));
                h.value(tile.parent);
                h.value(tile.leafValue);
                h.value(static_cast<uint64_t>(tile.nodes().size()));
                h.bytes(tile.nodes().data(), tile.nodes().size_bytes());
                h.value(static_cast<uint64_t>(tile.children().size()));
                h.bytes(tile.children().data(),
                        tile.children().size_bytes());
            }
        }
    }
    EXPECT_EQ(recorded.at(GetParam()), h.digest())
        << std::hex << "actual: 0x" << h.digest();
}

INSTANTIATE_TEST_SUITE_P(
    TableI, HirStorageGolden,
    ::testing::Values("abalone", "airline", "airline-ohe", "covtype",
                      "epsilon", "letter", "higgs", "year"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

/**
 * The deterministic guard of the flat storage's memory gain: on a
 * padded letter-shaped forest (depth 7, tile size 8 — most tiles are
 * padding), the HIR spends at most 24 B per tile plus 4 B per base
 * node and child slot, and padding grows each tree's arrays to exactly
 * what it appends.
 */
TEST(HirStorage, FootprintBoundedPerTile)
{
    data::SyntheticModelSpec spec = data::scaledDown(
        data::benchmarkSpecByName("letter"), /*max_trees=*/64,
        /*training_rows=*/400);
    model::Forest forest = data::synthesizeForest(spec);
    hir::Schedule schedule;
    schedule.tiling = hir::TilingAlgorithm::kHybrid;
    schedule.tileSize = 8;
    schedule.padAndUnrollWalks = true;
    hir::HirModule module(forest, schedule);
    module.runAllHirPasses();

    int64_t tiles = 0;
    int64_t slots = 0;
    int64_t dummies = 0;
    for (const hir::TiledTree &tiled : module.tiledTrees()) {
        int64_t tree_slots = 0;
        for (hir::TileId id = 0; id < tiled.numTiles(); ++id) {
            hir::Tile tile = tiled.tile(id);
            tree_slots += tile.numNodes() +
                          static_cast<int64_t>(tile.children().size());
            dummies += tile.isDummy() ? 1 : 0;
        }
        EXPECT_EQ(tiled.footprintBytes(),
                  20 * int64_t{tiled.numTiles()} + 4 * tree_slots)
            << "tile storage holds growth slack";
        tiles += tiled.numTiles();
        slots += tree_slots;
    }
    ASSERT_GT(dummies, tiles / 2) << "the forest should be mostly padding";
    EXPECT_LE(module.footprintBytes(), 24 * tiles + 4 * slots);
    EXPECT_NE(module.dump().find("footprint: " +
                                 std::to_string(module.footprintBytes()) +
                                 " bytes"),
              std::string::npos);
}

} // namespace
} // namespace treebeard
