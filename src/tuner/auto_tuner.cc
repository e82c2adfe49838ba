#include "tuner/auto_tuner.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "common/timer.h"
#include "model/model_stats.h"
#include "treebeard/compiler.h"

namespace treebeard::tuner {

std::vector<hir::Schedule>
enumerateSchedules(const TunerOptions &options)
{
    std::vector<hir::Schedule> schedules;
    bool node_parallel =
        std::find(options.traversals.begin(), options.traversals.end(),
                  hir::TraversalKind::kNodeParallel) !=
        options.traversals.end();
    for (hir::LoopOrder order :
         node_parallel ? options.loopOrders
                       : std::vector<hir::LoopOrder>{}) {
        for (int32_t tile_size : options.tileSizes) {
            for (hir::TilingAlgorithm tiling : options.tilings) {
                // alpha/beta only matter when the leaf-bias gate runs.
                std::vector<std::pair<double, double>> gates =
                    tiling == hir::TilingAlgorithm::kHybrid
                        ? options.alphaBetas
                        : std::vector<std::pair<double, double>>{
                              {0.075, 0.9}};
                for (auto [alpha, beta] : gates) {
                    for (bool unroll : options.padAndUnroll) {
                        for (int32_t interleave :
                             options.interleaveFactors) {
                            for (hir::MemoryLayout layout :
                                 options.layouts) {
                                // Precision is a packed-record knob;
                                // other layouts take one grid point.
                                std::vector<hir::PackedPrecision>
                                    precisions =
                                        layout == hir::MemoryLayout::
                                                      kPacked
                                            ? options.packedPrecisions
                                            : std::vector<
                                                  hir::PackedPrecision>{
                                                  hir::PackedPrecision::
                                                      kF32};
                                // Chunk size only changes how a
                                // threaded row loop partitions; a
                                // serial plan takes one grid point.
                                std::vector<int32_t> chunks =
                                    options.numThreads > 1
                                        ? options.rowChunks
                                        : std::vector<int32_t>{0};
                                if (chunks.empty())
                                    chunks.push_back(0);
                                for (hir::PackedPrecision precision :
                                     precisions) {
                                    for (int32_t chunk : chunks) {
                                        hir::Schedule schedule;
                                        schedule.loopOrder = order;
                                        schedule.tileSize = tile_size;
                                        schedule.tiling = tiling;
                                        schedule.alpha = alpha;
                                        schedule.beta = beta;
                                        schedule.padAndUnrollWalks =
                                            unroll;
                                        schedule.interleaveFactor =
                                            interleave;
                                        schedule.layout = layout;
                                        schedule.packedPrecision =
                                            precision;
                                        schedule.numThreads =
                                            options.numThreads;
                                        schedule.rowChunkRows = chunk;
                                        schedules.push_back(schedule);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // Row-parallel points: only tile size 1 (the lane-group walkers
    // are 8 scalar walks in lockstep; larger tiles already spend the
    // vector width inside the node), always tree-major, interleave
    // ignored — so the sub-grid is tiling x unroll x layout/precision
    // x chunk.
    bool row_parallel =
        std::find(options.traversals.begin(), options.traversals.end(),
                  hir::TraversalKind::kRowParallel) !=
        options.traversals.end();
    bool has_tile1 = std::find(options.tileSizes.begin(),
                               options.tileSizes.end(),
                               1) != options.tileSizes.end();
    if (row_parallel && has_tile1) {
        for (hir::TilingAlgorithm tiling : options.tilings) {
            for (bool unroll : options.padAndUnroll) {
                for (hir::MemoryLayout layout : options.layouts) {
                    std::vector<hir::PackedPrecision> precisions =
                        layout == hir::MemoryLayout::kPacked
                            ? options.packedPrecisions
                            : std::vector<hir::PackedPrecision>{
                                  hir::PackedPrecision::kF32};
                    std::vector<int32_t> chunks =
                        options.numThreads > 1
                            ? options.rowChunks
                            : std::vector<int32_t>{0};
                    if (chunks.empty())
                        chunks.push_back(0);
                    for (hir::PackedPrecision precision : precisions) {
                        for (int32_t chunk : chunks) {
                            hir::Schedule schedule;
                            schedule.traversal =
                                hir::TraversalKind::kRowParallel;
                            schedule.tileSize = 1;
                            schedule.tiling = tiling;
                            schedule.padAndUnrollWalks = unroll;
                            schedule.layout = layout;
                            schedule.packedPrecision = precision;
                            schedule.numThreads = options.numThreads;
                            schedule.rowChunkRows = chunk;
                            schedules.push_back(schedule);
                        }
                    }
                }
            }
        }
    }
    return schedules;
}

TunerResult
exploreSchedules(const model::Forest &forest, const float *rows,
                 int64_t num_rows, const TunerOptions &options)
{
    fatalIf(num_rows <= 0, "tuner needs a non-empty sample batch");
    std::vector<hir::Schedule> schedules = enumerateSchedules(options);
    fatalIf(schedules.empty(), "tuner grid is empty");
    fatalIf(options.backends.empty(), "tuner backend list is empty");

    TunerResult result;
    result.best.seconds = std::numeric_limits<double>::infinity();
    std::vector<float> predictions(
        static_cast<size_t>(num_rows) *
        static_cast<size_t>(forest.numClasses()));

    for (const hir::Schedule &schedule : schedules) {
        for (Backend backend : options.backends) {
            TunedPoint point;
            point.schedule = schedule;
            point.backend = backend;

            double best_seconds;
            try {
                CompilerOptions compiler_options;
                compiler_options.backend = backend;
                compiler_options.jit.cacheDir = options.jitCacheDir;
                compiler_options.jit.cacheMaxBytes =
                    options.jitCacheMaxBytes;
                Timer compile_timer;
                Session session =
                    compile(forest, schedule, compiler_options);
                point.compileSeconds = compile_timer.elapsedSeconds();

                // Warm-up, then best-of-N timing.
                session.predict(rows, num_rows, predictions.data());
                best_seconds = std::numeric_limits<double>::infinity();
                for (int32_t rep = 0; rep < options.repetitions;
                     ++rep) {
                    Timer timer;
                    session.predict(rows, num_rows,
                                    predictions.data());
                    best_seconds = std::min(best_seconds,
                                            timer.elapsedSeconds());
                }
            } catch (const Error &error) {
                // Some grid points are infeasible for a given model
                // (e.g. the array layout's total-tile cap on deep
                // forests); skip them rather than abandoning the
                // exploration.
                if (options.verbose) {
                    inform("tuner: skipping ", schedule.toString(),
                           " [", backendName(backend), "]: ",
                           error.what());
                }
                continue;
            }
            point.seconds = best_seconds;

            if (options.verbose) {
                inform("tuner: ", schedule.toString(), " [",
                       backendName(backend), "] -> ",
                       best_seconds * 1e6 / num_rows, " us/row");
            }
            if (point.seconds < result.best.seconds)
                result.best = point;
            result.all.push_back(point);
        }
    }

    std::sort(result.all.begin(), result.all.end(),
              [](const TunedPoint &a, const TunedPoint &b) {
                  return a.seconds < b.seconds;
              });
    return result;
}

namespace {

JsonValue
pointToJson(const TunedPoint &point)
{
    JsonValue::Object object;
    object["schedule"] =
        JsonValue::parse(hir::scheduleToJsonString(point.schedule));
    object["backend"] = JsonValue(backendName(point.backend));
    object["seconds"] = JsonValue(point.seconds);
    object["compile_seconds"] = JsonValue(point.compileSeconds);
    return JsonValue(std::move(object));
}

} // namespace

void
appendTuningRecord(const std::string &path,
                   const model::Forest &forest,
                   const TunerResult &result)
{
    model::ForestStats stats = model::computeForestStats(forest);
    JsonValue::Object model_features;
    model_features["num_features"] =
        JsonValue(static_cast<int64_t>(stats.numFeatures));
    model_features["num_trees"] = JsonValue(stats.numTrees);
    model_features["max_depth"] =
        JsonValue(static_cast<int64_t>(stats.maxDepth));
    model_features["total_nodes"] = JsonValue(stats.totalNodes);
    model_features["total_leaves"] = JsonValue(stats.totalLeaves);
    model_features["leaf_biased_trees"] =
        JsonValue(stats.leafBiasedTrees);
    model_features["average_leaf_depth"] =
        JsonValue(stats.averageLeafDepth);
    model_features["objective"] =
        JsonValue(model::objectiveName(forest.objective()));

    JsonValue::Array points;
    points.reserve(result.all.size());
    for (const TunedPoint &point : result.all)
        points.push_back(pointToJson(point));

    JsonValue::Object record;
    record["model"] = JsonValue(std::move(model_features));
    record["points"] = JsonValue(std::move(points));
    record["best"] = pointToJson(result.best);

    std::ofstream out(path, std::ios::app);
    fatalIf(!out, "cannot open tuning database ", path,
            " for appending");
    out << JsonValue(std::move(record)).dump() << "\n";
    fatalIf(!out, "failed to append tuning record to ", path);
}

} // namespace treebeard::tuner
