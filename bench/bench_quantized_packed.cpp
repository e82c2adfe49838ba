/**
 * @file
 * Quantized packed-record shootout: on the large deep model (500
 * trees, max depth 9, 50 features, tile size 8) the f32 packed layout
 * (one 64-byte record per tile) races the int16-quantized packed
 * layout (one 32-byte record per tile — two per cache line), both
 * through the software-pipelined interleaved record walkers.
 *
 * The question: the quantized record halves the model-resident
 * working set, so in this beyond-L2 regime the i16 walkers could win
 * on memory traffic despite the per-batch row-quantization pass. The
 * speedup line reports whether they do.
 *
 * Accuracy is bounded, not exact: thresholds round to ~65000 steps
 * across each feature's range, and the worst case is declared in the
 * layout's quantization metadata. The run cross-checks observed drift
 * against that budget.
 *
 * When invoked with an argument, writes a JSON summary to that path
 * (the run_layout_bench.sh driver passes BENCH_quantized_packed.json).
 */
#include <cmath>
#include <sstream>

#include "bench_common.h"
#include "common/json.h"
#include "lir/layout_builder.h"
#include "treebeard/compiler.h"

using namespace treebeard;

namespace {

/** One configuration's measurement on the large model. */
struct VariantTiming
{
    std::string name;
    double nsPerRow = 0.0;
    int64_t bytesPerTile = 0;
    int64_t footprintBytes = 0;
    double maxQuantizationError = 0.0; // declared threshold step
    double observedDrift = 0.0;        // vs the f32 predictions
    std::vector<float> predictions;
};

VariantTiming
timeVariant(const std::string &name, const model::Forest &forest,
            hir::PackedPrecision precision, const data::Dataset &batch,
            int64_t rows)
{
    VariantTiming timing;
    timing.name = name;
    hir::Schedule schedule = bench::optimizedSchedule(1);
    schedule.layout = hir::MemoryLayout::kPacked;
    schedule.packedPrecision = precision;

    Session session = compile(forest, schedule);
    const lir::ForestBuffers &buffers = session.plan().buffers();
    timing.bytesPerTile = buffers.packedStride;
    timing.footprintBytes = buffers.footprintBytes();
    if (buffers.layout == lir::LayoutKind::kPackedQuantized) {
        timing.maxQuantizationError =
            buffers.quantization.maxThresholdError;
    }

    timing.predictions.resize(static_cast<size_t>(rows));
    double us = bench::timeMicrosPerRow(
        [&] {
            session.predict(batch.rows(), rows,
                            timing.predictions.data());
        },
        rows);
    timing.nsPerRow = us * 1e3;
    return timing;
}

} // namespace

int
main(int argc, char **argv)
{
    data::SyntheticModelSpec large;
    large.name = "large-deep";
    large.numFeatures = 50;
    large.numTrees = std::max<int64_t>(
        1, static_cast<int64_t>(500 * bench::benchScale()));
    large.maxDepth = 9;
    large.splitProbability = 0.93;
    large.trainingRows = 0;
    large.seed = 4242;
    large.thresholdDistribution = data::ThresholdDistribution::kMild;
    model::Forest forest = data::synthesizeForest(large);

    constexpr int64_t kRows = 2000;
    data::Dataset batch = bench::benchmarkBatch(large, kRows);

    std::printf("# Quantized packed records, %lld trees depth %d "
                "tile 8 (optimized schedule, %lld rows)\n",
                static_cast<long long>(large.numTrees), large.maxDepth,
                static_cast<long long>(kRows));
    bench::printCsvRow({"variant", "ns_per_row", "bytes_per_tile",
                        "footprint_bytes", "max_quant_error",
                        "observed_drift"});

    std::vector<VariantTiming> timings;
    timings.push_back(timeVariant("f32-packed", forest,
                                  hir::PackedPrecision::kF32, batch,
                                  kRows));
    timings.push_back(timeVariant("i16-packed", forest,
                                  hir::PackedPrecision::kI16, batch,
                                  kRows));

    const std::vector<float> &f32 = timings.front().predictions;
    for (VariantTiming &timing : timings) {
        for (int64_t r = 0; r < kRows; ++r) {
            timing.observedDrift = std::max(
                timing.observedDrift,
                static_cast<double>(std::abs(
                    timing.predictions[static_cast<size_t>(r)] -
                    f32[static_cast<size_t>(r)])));
        }
        bench::printCsvRow({timing.name, bench::fmt(timing.nsPerRow, 2),
                            std::to_string(timing.bytesPerTile),
                            std::to_string(timing.footprintBytes),
                            bench::fmt(timing.maxQuantizationError, 6),
                            bench::fmt(timing.observedDrift, 6)});
    }

    double speedup = timings[0].nsPerRow / timings[1].nsPerRow;
    std::printf("# i16-packed vs f32-packed: %.2fx "
                "(%.1f%% faster)\n",
                speedup, (speedup - 1.0) * 100.0);

    if (argc > 1) {
        std::ostringstream os;
        os << "{\n  \"benchmark\": \"quantized_packed_shootout\",\n";
        os << "  \"model\": {\"trees\": " << large.numTrees
           << ", \"max_depth\": " << large.maxDepth
           << ", \"features\": " << large.numFeatures
           << ", \"tile_size\": 8},\n";
        os << "  \"rows\": " << kRows << ",\n";
        os << "  \"results\": [\n";
        for (size_t i = 0; i < timings.size(); ++i) {
            const VariantTiming &t = timings[i];
            os << "    {\"variant\": \"" << t.name
               << "\", \"ns_per_row\": " << bench::fmt(t.nsPerRow, 2)
               << ", \"bytes_per_tile\": " << t.bytesPerTile
               << ", \"footprint_bytes\": " << t.footprintBytes
               << ", \"max_quantization_error\": "
               << bench::fmt(t.maxQuantizationError, 6)
               << ", \"observed_drift\": "
               << bench::fmt(t.observedDrift, 6) << "}"
               << (i + 1 < timings.size() ? "," : "") << "\n";
        }
        os << "  ],\n";
        os << "  \"speedup_i16_vs_f32_packed\": "
           << bench::fmt(speedup, 4) << "\n";
        os << "}\n";
        writeStringToFile(argv[1], os.str());
        std::printf("# wrote %s\n", argv[1]);
    }
    return 0;
}
