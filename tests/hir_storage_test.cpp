/**
 * @file
 * HIR tile storage. A golden suite pins everything lowered from the
 * HIR (every ForestBuffers vector and the tree groups) plus each tiled
 * tree's structure signature, byte for byte, across the eight Table I
 * specs, all four layouts, tile sizes 1/4/8 and pad-and-unroll on and
 * off, and pins every tile's id: a change to how tiles are stored must
 * not move a single lowered byte or tile. The emitted JIT source is
 * pinned by a second map of its own, so a change to code emission
 * re-records only that map and leaves the buffer digests standing.
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

/** The schedule of one golden config under one layout. */
hir::Schedule
goldenSchedule(const Config &config, const LayoutChoice &choice)
{
    hir::Schedule schedule;
    schedule.tiling = hir::TilingAlgorithm::kHybrid;
    schedule.tileSize = config.tileSize;
    schedule.layout = choice.layout;
    schedule.packedPrecision = choice.precision;
    schedule.padAndUnrollWalks = config.pad;
    schedule.peelWalks = true;
    return schedule;
}

/**
 * Hash of one spec's lowering under one layout over every golden
 * config: the buffers and groups, or (with @p source) the emitted JIT
 * source alone.
 */
uint64_t
layoutDigest(const model::Forest &forest, const LayoutChoice &choice,
             bool source)
{
    Hasher h;
    for (const Config &config : goldenConfigs()) {
        hir::Schedule schedule = goldenSchedule(config, choice);
        Session session = compile(forest, schedule);
        const runtime::ExecutablePlan &plan = session.plan();
        if (source) {
            std::string text = codegen::emitPredictForestSource(
                plan.buffers(), plan.groups(), schedule);
            h.value(static_cast<uint64_t>(text.size()));
            h.bytes(text.data(), text.size());
            continue;
        }
        hashBuffers(h, plan.buffers());
        hashGroups(h, plan.groups());

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
        {"abalone/array", 0x2cce0e5283547c95ull},
        {"abalone/sparse", 0x8b1237f56e86f526ull},
        {"abalone/packed", 0x45354e6dcf452c9dull},
        {"abalone/packed-i16", 0xdf94dff4bc880380ull},
        {"airline/array", 0xbe2217ffce989863ull},
        {"airline/sparse", 0x84267d7e0bf434a3ull},
        {"airline/packed", 0xb08d131c52643c0full},
        {"airline/packed-i16", 0x4594c0c3010be74cull},
        {"airline-ohe/array", 0xcbfb95e74061411full},
        {"airline-ohe/sparse", 0x7b5dafb2ad315856ull},
        {"airline-ohe/packed", 0x10ab86ff788ce0f0ull},
        {"airline-ohe/packed-i16", 0x10ab86ff788ce0f0ull},
        {"covtype/array", 0xd127422ca8194ce8ull},
        {"covtype/sparse", 0xb4e15ff913a1fb27ull},
        {"covtype/packed", 0xcfdab14fe1695076ull},
        {"covtype/packed-i16", 0xbc4e769e18793627ull},
        {"epsilon/array", 0x86c665cd0fd754a9ull},
        {"epsilon/sparse", 0xc195b61093eae592ull},
        {"epsilon/packed", 0x4f553a326d441f88ull},
        {"epsilon/packed-i16", 0x4f553a326d441f88ull},
        {"letter/array", 0xc173606a7290cd1eull},
        {"letter/sparse", 0x53f036cc5b664c06ull},
        {"letter/packed", 0x6254fa6f6f9c37c4ull},
        {"letter/packed-i16", 0x252be3cbb7d5dceaull},
        {"higgs/array", 0x531c70a14274d0deull},
        {"higgs/sparse", 0x8aae494831329128ull},
        {"higgs/packed", 0x8f70cf3dd66a6f7cull},
        {"higgs/packed-i16", 0x799e3d297ce578c3ull},
        {"year/array", 0xa92c8d267be28c42ull},
        {"year/sparse", 0x918c75d38e782db9ull},
        {"year/packed", 0x743ccc2f327d8a0bull},
        {"year/packed-i16", 0x303ad1f31ead4db1ull},
    };
    return digests;
}

/** Recorded emitted-source digests, keyed "<spec>/<layout>". */
const std::map<std::string, uint64_t> &
recordedSourceDigests()
{
    static const std::map<std::string, uint64_t> digests = {
        {"abalone/array", 0x4f595b9ffe3f8734ull},
        {"abalone/sparse", 0xe6750bdf3b01c9eaull},
        {"abalone/packed", 0x2d2054d0450ec00aull},
        {"abalone/packed-i16", 0x1043466fdb612d23ull},
        {"airline/array", 0x616b62d3996788a8ull},
        {"airline/sparse", 0xc35c861e8047b006ull},
        {"airline/packed", 0x7fb4e03b5f61f556ull},
        {"airline/packed-i16", 0x6353b6b9c339582aull},
        {"airline-ohe/array", 0x679e79735dc78046ull},
        {"airline-ohe/sparse", 0xeee22af877e4e7d4ull},
        {"airline-ohe/packed", 0x250e1d4cc465303cull},
        {"airline-ohe/packed-i16", 0x73f23d0a4ddcf928ull},
        {"covtype/array", 0xc8be6394860e9229ull},
        {"covtype/sparse", 0xcc8dbd19dfde4883ull},
        {"covtype/packed", 0xb9686237295468bbull},
        {"covtype/packed-i16", 0x3d0e24a680646b3ull},
        {"epsilon/array", 0xc2e6dcbaf2501eecull},
        {"epsilon/sparse", 0x3dd1556979e2a56eull},
        {"epsilon/packed", 0x6963b5ca3c6d7816ull},
        {"epsilon/packed-i16", 0xf7c03607e54aa394ull},
        {"letter/array", 0x68641b96b142d02cull},
        {"letter/sparse", 0x2ad5a172860653a6ull},
        {"letter/packed", 0xa209299fc6fee556ull},
        {"letter/packed-i16", 0xe481ea0458e78ad1ull},
        {"higgs/array", 0xfbd93fd3f19909a4ull},
        {"higgs/sparse", 0xd486c3dcf1b71caeull},
        {"higgs/packed", 0x668fd2ba35e554ceull},
        {"higgs/packed-i16", 0xc2fb7f0639a71710ull},
        {"year/array", 0x1d173b660833e5f5ull},
        {"year/sparse", 0x70edaa5321e7f193ull},
        {"year/packed", 0x20c8fc72f55cb2bbull},
        {"year/packed-i16", 0x84f921e0c4d9e334ull},
    };
    return digests;
}

class HirStorageGolden : public ::testing::TestWithParam<std::string>
{
  protected:
    /** Compare every layout's digest of this spec with @p recorded. */
    void checkDigests(const std::map<std::string, uint64_t> &recorded,
                      bool source)
    {
        data::SyntheticModelSpec spec = data::scaledDown(
            data::benchmarkSpecByName(GetParam()), /*max_trees=*/8,
            /*training_rows=*/400);
        model::Forest forest = data::synthesizeForest(spec);
        for (const LayoutChoice &choice : kLayouts) {
            std::string key = GetParam() + "/" + choice.name;
            uint64_t digest = layoutDigest(forest, choice, source);
            auto it = recorded.find(key);
            std::ostringstream actual;
            actual << "{\"" << key << "\", 0x" << std::hex << digest
                   << "ull},";
            if (it == recorded.end()) {
                ADD_FAILURE() << "no recorded digest; actual: "
                              << actual.str();
                continue;
            }
            EXPECT_EQ(it->second, digest)
                << "lowered bytes changed; actual: " << actual.str();
        }
    }
};

TEST_P(HirStorageGolden, LoweringIsByteIdentical)
{
    checkDigests(recordedDigests(), /*source=*/false);
}

TEST_P(HirStorageGolden, EmittedSourceIsByteIdentical)
{
    checkDigests(recordedSourceDigests(), /*source=*/true);
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
