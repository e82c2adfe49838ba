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
};

/** Tile sizes 1/4/8 x pad on/off. */
std::vector<Config>
goldenConfigs()
{
    std::vector<Config> configs;
    for (int32_t tile_size : {1, 4, 8}) {
        for (bool pad : {true, false})
            configs.push_back({tile_size, pad});
    }
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
        {"abalone/array", 0x99274fa554ec9617ull},
        {"abalone/sparse", 0x347e9c8bce5ebef2ull},
        {"abalone/packed", 0x5f0624ceada55661ull},
        {"abalone/packed-i16", 0xae2fac72118c1af5ull},
        {"airline/array", 0xbb8ed9bc68113955ull},
        {"airline/sparse", 0x7bdabfa2712cd25cull},
        {"airline/packed", 0xa0da64931ef3bd29ull},
        {"airline/packed-i16", 0x9775afa9ef9c5b50ull},
        {"airline-ohe/array", 0xa31cc5e54b51f73bull},
        {"airline-ohe/sparse", 0x89fac66f05cad971ull},
        {"airline-ohe/packed", 0xa0e47f4cf509d3b7ull},
        {"airline-ohe/packed-i16", 0xa17b6a4c20397ca3ull},
        {"covtype/array", 0x14346fa4a283ec18ull},
        {"covtype/sparse", 0xdba1fde261679896ull},
        {"covtype/packed", 0x1d875416c2b54a4eull},
        {"covtype/packed-i16", 0xa479567b5e5f1794ull},
        {"epsilon/array", 0xdd9792d22d2ea824ull},
        {"epsilon/sparse", 0x8584e051223fea95ull},
        {"epsilon/packed", 0x67d65a3fa362950aull},
        {"epsilon/packed-i16", 0x638a514d9c10b6a2ull},
        {"letter/array", 0xe80c737d435bea5aull},
        {"letter/sparse", 0xb2f986a574b8cc17ull},
        {"letter/packed", 0xa9c39f065872112bull},
        {"letter/packed-i16", 0x45ab83df2a0e1822ull},
        {"higgs/array", 0x1468f3b1764d9e24ull},
        {"higgs/sparse", 0xc57203700b605c0full},
        {"higgs/packed", 0xb40ce34289e42f00ull},
        {"higgs/packed-i16", 0x9dded4aa34989bccull},
        {"year/array", 0x8282534b16ce8ed4ull},
        {"year/sparse", 0xc28698b99e5a66a9ull},
        {"year/packed", 0x7aebb7127d76ec7bull},
        {"year/packed-i16", 0xf1a4e7217cb3eddbull},
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
