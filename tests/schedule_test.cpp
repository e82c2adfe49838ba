/**
 * @file
 * Tests for the Schedule type: validation rules, the textual
 * description, and JSON round-trips across the whole knob space.
 */
#include <gtest/gtest.h>

#include "analysis/diagnostics.h"
#include "common/logging.h"
#include "hir/schedule.h"

namespace treebeard::hir {
namespace {

TEST(Schedule, DefaultsAreValid)
{
    Schedule schedule;
    EXPECT_NO_THROW(schedule.validate());
}

TEST(Schedule, ValidationRejectsBadKnobs)
{
    Schedule schedule;
    schedule.tileSize = 0;
    EXPECT_THROW(schedule.validate(), Error);
    schedule = {};
    schedule.tileSize = 9;
    EXPECT_THROW(schedule.validate(), Error);
    schedule = {};
    schedule.interleaveFactor = 5;
    EXPECT_THROW(schedule.validate(), Error);
    schedule = {};
    schedule.numThreads = 0;
    EXPECT_THROW(schedule.validate(), Error);
    schedule = {};
    schedule.alpha = 0.0;
    EXPECT_THROW(schedule.validate(), Error);
    schedule = {};
    schedule.beta = 1.5;
    EXPECT_THROW(schedule.validate(), Error);
    schedule = {};
    schedule.padDepthSlack = -1;
    EXPECT_THROW(schedule.validate(), Error);
    schedule = {};
    schedule.rowChunkRows = -1;
    EXPECT_THROW(schedule.validate(), Error);
    // Chunks above the cap are rejected up front too (4M-row chunks
    // are always typo'd values, not tuning choices).
    schedule = {};
    schedule.rowChunkRows = kMaxRowChunkRows + 1;
    EXPECT_THROW(schedule.validate(), Error);
    schedule = {};
    schedule.rowChunkRows = kMaxRowChunkRows;
    EXPECT_NO_THROW(schedule.validate());
}

TEST(Schedule, ToStringMentionsEveryKnob)
{
    Schedule schedule;
    schedule.loopOrder = LoopOrder::kOneRowAtATime;
    schedule.tileSize = 4;
    schedule.tiling = TilingAlgorithm::kMinMaxDepth;
    schedule.layout = MemoryLayout::kArray;
    schedule.interleaveFactor = 2;
    schedule.numThreads = 8;
    std::string text = schedule.toString();
    EXPECT_NE(text.find("one-row-at-a-time"), std::string::npos);
    EXPECT_NE(text.find("tile=4"), std::string::npos);
    EXPECT_NE(text.find("min-max-depth"), std::string::npos);
    EXPECT_NE(text.find("array"), std::string::npos);
    EXPECT_NE(text.find("interleave=2"), std::string::npos);
    EXPECT_NE(text.find("threads=8"), std::string::npos);
}

TEST(Schedule, JsonRoundTripPreservesEverything)
{
    for (LoopOrder order : {LoopOrder::kOneTreeAtATime,
                            LoopOrder::kOneRowAtATime}) {
        for (TilingAlgorithm tiling :
             {TilingAlgorithm::kBasic,
              TilingAlgorithm::kProbabilityBased,
              TilingAlgorithm::kHybrid,
              TilingAlgorithm::kMinMaxDepth}) {
            for (MemoryLayout layout : {MemoryLayout::kArray,
                                        MemoryLayout::kSparse,
                                        MemoryLayout::kPacked}) {
                Schedule schedule;
                schedule.loopOrder = order;
                schedule.tiling = tiling;
                schedule.layout = layout;
                schedule.tileSize = 2;
                schedule.alpha = 0.1;
                schedule.beta = 0.8;
                schedule.padAndUnrollWalks = false;
                schedule.peelWalks = false;
                schedule.padDepthSlack = 3;
                schedule.interleaveFactor = 4;
                schedule.numThreads = 7;
                schedule.packedPrecision = PackedPrecision::kI16;
                schedule.rowChunkRows = 128;
                schedule.traversal = TraversalKind::kRowParallel;

                Schedule loaded = scheduleFromJsonString(
                    scheduleToJsonString(schedule));
                EXPECT_EQ(loaded.loopOrder, schedule.loopOrder);
                EXPECT_EQ(loaded.tiling, schedule.tiling);
                EXPECT_EQ(loaded.layout, schedule.layout);
                EXPECT_EQ(loaded.tileSize, schedule.tileSize);
                EXPECT_DOUBLE_EQ(loaded.alpha, schedule.alpha);
                EXPECT_DOUBLE_EQ(loaded.beta, schedule.beta);
                EXPECT_EQ(loaded.padAndUnrollWalks,
                          schedule.padAndUnrollWalks);
                EXPECT_EQ(loaded.peelWalks, schedule.peelWalks);
                EXPECT_EQ(loaded.padDepthSlack,
                          schedule.padDepthSlack);
                EXPECT_EQ(loaded.interleaveFactor,
                          schedule.interleaveFactor);
                EXPECT_EQ(loaded.numThreads, schedule.numThreads);
                EXPECT_EQ(loaded.packedPrecision,
                          schedule.packedPrecision);
                EXPECT_EQ(loaded.rowChunkRows, schedule.rowChunkRows);
                EXPECT_EQ(loaded.traversal, schedule.traversal);
            }
        }
    }
}

TEST(Schedule, NoMissingFlagRoundTripsAndPrints)
{
    Schedule schedule;
    schedule.assumeNoMissingValues = true;
    EXPECT_NE(schedule.toString().find("+no-nan"), std::string::npos);
    Schedule loaded =
        scheduleFromJsonString(scheduleToJsonString(schedule));
    EXPECT_TRUE(loaded.assumeNoMissingValues);
    Schedule defaulted =
        scheduleFromJsonString(scheduleToJsonString(Schedule{}));
    EXPECT_FALSE(defaulted.assumeNoMissingValues);
}

TEST(Schedule, PackedPrecisionDefaultsAndPrints)
{
    Schedule schedule;
    EXPECT_EQ(schedule.packedPrecision, PackedPrecision::kF32);

    schedule.packedPrecision = PackedPrecision::kI16;
    EXPECT_NE(schedule.toString().find("+i16"), std::string::npos);

    // Older schedule documents predate the knob; stripping the key
    // must load as f32.
    std::string text = scheduleToJsonString(Schedule{});
    std::string key = "\"packed_precision\":\"f32\",";
    size_t pos = text.find(key);
    ASSERT_NE(pos, std::string::npos);
    text.erase(pos, key.size());
    Schedule defaulted = scheduleFromJsonString(text);
    EXPECT_EQ(defaulted.packedPrecision, PackedPrecision::kF32);
}

TEST(Schedule, RetiredPipelineKeyLoadsToTheSameSchedule)
{
    // Every tuning record written while the packed pipeline knob
    // existed carries "pipeline_packed"; the knob never changed a
    // prediction, so either value loads as if the key were absent.
    Schedule schedule;
    schedule.layout = MemoryLayout::kPacked;
    schedule.packedPrecision = PackedPrecision::kI16;
    schedule.interleaveFactor = 4;
    std::string text = scheduleToJsonString(schedule);
    EXPECT_EQ(text.find("pipeline_packed"), std::string::npos);
    ASSERT_EQ(text.front(), '{');
    for (const char *value : {"true", "false"}) {
        std::string legacy =
            "{\"pipeline_packed\":" + std::string(value) + "," +
            text.substr(1);
        Schedule loaded = scheduleFromJsonString(legacy);
        EXPECT_EQ(scheduleToJsonString(loaded), text) << value;
        EXPECT_EQ(loaded.toString(), schedule.toString()) << value;
    }
}

TEST(Schedule, RowChunkDefaultsAndPrints)
{
    Schedule schedule;
    EXPECT_EQ(schedule.rowChunkRows, 0);
    // The auto chunk is the default everywhere and stays silent in
    // toString; an explicit chunk prints.
    EXPECT_EQ(schedule.toString().find("chunk="), std::string::npos);
    schedule.rowChunkRows = 96;
    EXPECT_NE(schedule.toString().find("chunk=96"), std::string::npos);

    // Older schedule documents predate the knob; stripping the key
    // must load as the auto chunk.
    std::string text = scheduleToJsonString(Schedule{});
    std::string key = "\"row_chunk_rows\":0,";
    size_t pos = text.find(key);
    if (pos == std::string::npos) {
        key = ",\"row_chunk_rows\":0";
        pos = text.find(key);
    }
    ASSERT_NE(pos, std::string::npos);
    text.erase(pos, key.size());
    Schedule defaulted = scheduleFromJsonString(text);
    EXPECT_EQ(defaulted.rowChunkRows, 0);
}

TEST(Schedule, TraversalDefaultsRoundTripsAndPrints)
{
    Schedule schedule;
    EXPECT_EQ(schedule.traversal, TraversalKind::kNodeParallel);
    // Node-parallel is the default everywhere and stays silent in
    // toString; row-parallel prints.
    EXPECT_EQ(schedule.toString().find("row-parallel"),
              std::string::npos);
    schedule.traversal = TraversalKind::kRowParallel;
    EXPECT_NE(schedule.toString().find("+row-parallel"),
              std::string::npos);

    Schedule loaded =
        scheduleFromJsonString(scheduleToJsonString(schedule));
    EXPECT_EQ(loaded.traversal, TraversalKind::kRowParallel);

    // Older schedule documents predate the knob; stripping the key
    // must load as node-parallel.
    std::string text = scheduleToJsonString(Schedule{});
    std::string key = "\"traversal\":\"node-parallel\",";
    size_t pos = text.find(key);
    if (pos == std::string::npos) {
        key = ",\"traversal\":\"node-parallel\"";
        pos = text.find(key);
    }
    ASSERT_NE(pos, std::string::npos);
    text.erase(pos, key.size());
    Schedule defaulted = scheduleFromJsonString(text);
    EXPECT_EQ(defaulted.traversal, TraversalKind::kNodeParallel);
}

TEST(Schedule, JsonRejectsInvalidDocuments)
{
    EXPECT_THROW(scheduleFromJsonString("{}"), Error);
    EXPECT_THROW(scheduleFromJsonString("not json"), Error);
    // Valid JSON, invalid knob.
    Schedule schedule;
    std::string text = scheduleToJsonString(schedule);
    std::string bad = text;
    size_t pos = bad.find("\"tile_size\":8");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 13, "\"tile_size\":0");
    EXPECT_THROW(scheduleFromJsonString(bad), Error);
}

/**
 * Documents written while the hot-path tier existed carry
 * "hot_path_coverage". Coverage 0 asked for the plain walk and still
 * loads; any other value asked for the removed tier and is refused
 * with a stable code instead of silently ignored.
 */
TEST(Schedule, JsonRejectsNonzeroHotPathCoverage)
{
    std::string text = scheduleToJsonString(Schedule{});
    EXPECT_EQ(text.find("hot_path_coverage"), std::string::npos);
    auto with_coverage = [&text](const std::string &value) {
        return "{\"hot_path_coverage\":" + value + "," + text.substr(1);
    };
    Schedule loaded = scheduleFromJsonString(with_coverage("0"));
    EXPECT_EQ(scheduleToJsonString(loaded), text);
    for (const char *value : {"0.8", "1.5"}) {
        try {
            scheduleFromJsonString(with_coverage(value));
            ADD_FAILURE() << "coverage " << value << " was accepted";
        } catch (const analysis::VerificationError &error) {
            EXPECT_TRUE(error.hasCode("hir.schedule.hot-path.removed"))
                << error.what();
        }
    }
}

} // namespace
} // namespace treebeard::hir
