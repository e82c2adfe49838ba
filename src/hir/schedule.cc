#include "hir/schedule.h"

#include <sstream>

#include "analysis/diagnostics.h"
#include "common/json.h"
#include "common/logging.h"

namespace treebeard::hir {

const char *
loopOrderName(LoopOrder order)
{
    switch (order) {
      case LoopOrder::kOneTreeAtATime: return "one-tree-at-a-time";
      case LoopOrder::kOneRowAtATime: return "one-row-at-a-time";
    }
    panic("unknown loop order");
}

const char *
memoryLayoutName(MemoryLayout layout)
{
    switch (layout) {
      case MemoryLayout::kArray: return "array";
      case MemoryLayout::kSparse: return "sparse";
      case MemoryLayout::kPacked: return "packed";
    }
    panic("unknown memory layout");
}

const char *
packedPrecisionName(PackedPrecision precision)
{
    switch (precision) {
      case PackedPrecision::kF32: return "f32";
      case PackedPrecision::kI16: return "i16";
    }
    panic("unknown packed precision");
}

const char *
traversalKindName(TraversalKind traversal)
{
    switch (traversal) {
      case TraversalKind::kNodeParallel: return "node-parallel";
      case TraversalKind::kRowParallel: return "row-parallel";
    }
    panic("unknown traversal kind");
}

void
Schedule::verifyInto(analysis::DiagnosticEngine &diag) const
{
    using analysis::IrLevel;
    if (tileSize < 1 || tileSize > kMaxScheduleTileSize) {
        diag.error(IrLevel::kSchedule, "schedule.tile-size.range",
                   "tile size " + std::to_string(tileSize) +
                       " out of range [1, " +
                       std::to_string(kMaxScheduleTileSize) + "]");
    }
    if (interleaveFactor != 1 && interleaveFactor != 2 &&
        interleaveFactor != 4 && interleaveFactor != 8) {
        diag.error(IrLevel::kSchedule, "schedule.interleave.factor",
                   "interleave factor must be 1, 2, 4 or 8; got " +
                       std::to_string(interleaveFactor));
    }
    if (numThreads < 1) {
        diag.error(IrLevel::kSchedule, "schedule.threads.range",
                   "numThreads must be at least 1");
    }
    if (rowChunkRows < 0 || rowChunkRows > kMaxRowChunkRows) {
        diag.error(IrLevel::kSchedule, "hir.schedule.row-chunk.range",
                   "rowChunkRows must be in [0, " +
                       std::to_string(kMaxRowChunkRows) +
                       "] (0 = one chunk per worker); got " +
                       std::to_string(rowChunkRows));
    }
    // The negated comparisons also reject NaN.
    if (!(alpha > 0.0 && alpha <= 1.0)) {
        diag.error(IrLevel::kSchedule, "schedule.alpha.range",
                   "alpha must be in (0, 1]");
    }
    if (!(beta > 0.0 && beta <= 1.0)) {
        diag.error(IrLevel::kSchedule, "schedule.beta.range",
                   "beta must be in (0, 1]");
    }
    if (padDepthSlack < 0) {
        diag.error(IrLevel::kSchedule, "schedule.pad-slack.range",
                   "padDepthSlack must be non-negative");
    }
}

void
Schedule::validate() const
{
    analysis::DiagnosticEngine diag;
    diag.setPass("schedule-validate");
    verifyInto(diag);
    diag.throwIfErrors();
}

namespace {

const char *
tilingKey(TilingAlgorithm algorithm)
{
    return tilingAlgorithmName(algorithm);
}

TilingAlgorithm
tilingFromKey(const std::string &key)
{
    for (TilingAlgorithm algorithm :
         {TilingAlgorithm::kBasic, TilingAlgorithm::kProbabilityBased,
          TilingAlgorithm::kHybrid, TilingAlgorithm::kMinMaxDepth}) {
        if (key == tilingAlgorithmName(algorithm))
            return algorithm;
    }
    fatal("unknown tiling algorithm '", key, "'");
}

} // namespace

std::string
scheduleToJsonString(const Schedule &schedule)
{
    JsonValue::Object object;
    object["loop_order"] = JsonValue(loopOrderName(schedule.loopOrder));
    object["tile_size"] =
        JsonValue(static_cast<int64_t>(schedule.tileSize));
    object["tiling"] = JsonValue(tilingKey(schedule.tiling));
    object["alpha"] = JsonValue(schedule.alpha);
    object["beta"] = JsonValue(schedule.beta);
    object["pad_and_unroll"] = JsonValue(schedule.padAndUnrollWalks);
    object["peel"] = JsonValue(schedule.peelWalks);
    object["pad_depth_slack"] =
        JsonValue(static_cast<int64_t>(schedule.padDepthSlack));
    object["interleave"] =
        JsonValue(static_cast<int64_t>(schedule.interleaveFactor));
    object["layout"] = JsonValue(memoryLayoutName(schedule.layout));
    object["packed_precision"] =
        JsonValue(packedPrecisionName(schedule.packedPrecision));
    object["traversal"] =
        JsonValue(traversalKindName(schedule.traversal));
    object["threads"] =
        JsonValue(static_cast<int64_t>(schedule.numThreads));
    object["row_chunk_rows"] =
        JsonValue(static_cast<int64_t>(schedule.rowChunkRows));
    object["assume_no_missing"] =
        JsonValue(schedule.assumeNoMissingValues);
    return JsonValue(std::move(object)).dump();
}

Schedule
scheduleFromJsonString(const std::string &text)
{
    JsonValue document = JsonValue::parse(text);
    Schedule schedule;
    schedule.loopOrder =
        document.at("loop_order").asString() == "one-row-at-a-time"
            ? LoopOrder::kOneRowAtATime
            : LoopOrder::kOneTreeAtATime;
    schedule.tileSize =
        static_cast<int32_t>(document.at("tile_size").asInt());
    schedule.tiling = tilingFromKey(document.at("tiling").asString());
    schedule.alpha = document.at("alpha").asNumber();
    schedule.beta = document.at("beta").asNumber();
    schedule.padAndUnrollWalks =
        document.at("pad_and_unroll").asBoolean();
    schedule.peelWalks = document.at("peel").asBoolean();
    schedule.padDepthSlack =
        static_cast<int32_t>(document.at("pad_depth_slack").asInt());
    schedule.interleaveFactor =
        static_cast<int32_t>(document.at("interleave").asInt());
    {
        const std::string &layout = document.at("layout").asString();
        if (layout == "array")
            schedule.layout = MemoryLayout::kArray;
        else if (layout == "packed")
            schedule.layout = MemoryLayout::kPacked;
        else
            schedule.layout = MemoryLayout::kSparse;
    }
    schedule.numThreads =
        static_cast<int32_t>(document.at("threads").asInt());
    JsonValue default_false(false);
    schedule.assumeNoMissingValues =
        document.getOr("assume_no_missing", default_false).asBoolean();
    // Knobs younger than the serialization format read with defaults
    // so older schedule files stay loadable.
    JsonValue default_f32("f32");
    schedule.packedPrecision =
        document.getOr("packed_precision", default_f32).asString() ==
                "i16"
            ? PackedPrecision::kI16
            : PackedPrecision::kF32;
    JsonValue default_zero(static_cast<int64_t>(0));
    schedule.rowChunkRows = static_cast<int32_t>(
        document.getOr("row_chunk_rows", default_zero).asInt());
    JsonValue default_node("node-parallel");
    schedule.traversal =
        document.getOr("traversal", default_node).asString() ==
                "row-parallel"
            ? TraversalKind::kRowParallel
            : TraversalKind::kNodeParallel;
    // Documents written while the hot-path tier existed carry its
    // coverage; a nonzero one asked for code this compiler no longer
    // emits, so refuse it rather than silently walk without it.
    JsonValue default_off(0.0);
    if (document.getOr("hot_path_coverage", default_off).asNumber() !=
        0.0) {
        analysis::DiagnosticEngine diag;
        diag.setPass("schedule-validate");
        diag.error(analysis::IrLevel::kSchedule,
                   "hir.schedule.hot-path.removed",
                   "hot_path_coverage must be 0: the hot-path tier was "
                   "removed");
        diag.throwIfErrors();
    }
    schedule.validate();
    return schedule;
}

std::string
Schedule::toString() const
{
    std::ostringstream os;
    os << loopOrderName(loopOrder) << " tile=" << tileSize << " tiling="
       << tilingAlgorithmName(tiling) << " layout="
       << memoryLayoutName(layout) << " interleave=" << interleaveFactor
       << (packedPrecision == PackedPrecision::kI16 ? " +i16" : "")
       << (traversal == TraversalKind::kRowParallel ? " +row-parallel"
                                                    : "")
       << (padAndUnrollWalks ? " +unroll" : "")
       << (peelWalks ? " +peel" : "")
       << (assumeNoMissingValues ? " +no-nan" : "")
       << " threads=" << numThreads;
    if (rowChunkRows > 0)
        os << " chunk=" << rowChunkRows;
    return os.str();
}

} // namespace treebeard::hir
