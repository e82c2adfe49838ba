/**
 * @file
 * Schedule-space exploration (Table II of the paper): enumerate the
 * optimization grid, compile and time each configuration on a sample
 * batch, and pick the fastest. This is the "--explore" workflow of the
 * paper's artifact.
 */
#ifndef TREEBEARD_TUNER_AUTO_TUNER_H
#define TREEBEARD_TUNER_AUTO_TUNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "hir/schedule.h"
#include "model/forest.h"
#include "treebeard/compiler.h"

namespace treebeard::tuner {

/** The grid of configurations to explore (defaults follow Table II). */
struct TunerOptions
{
    std::vector<hir::LoopOrder> loopOrders{
        hir::LoopOrder::kOneTreeAtATime,
        hir::LoopOrder::kOneRowAtATime};
    std::vector<int32_t> tileSizes{1, 2, 4, 8};
    std::vector<hir::TilingAlgorithm> tilings{
        hir::TilingAlgorithm::kBasic, hir::TilingAlgorithm::kHybrid};
    std::vector<bool> padAndUnroll{true, false};
    std::vector<int32_t> interleaveFactors{1, 2, 4, 8};
    /** (alpha, beta) pairs for the leaf-bias gate (hybrid only). */
    std::vector<std::pair<double, double>> alphaBetas{
        {0.05, 0.9}, {0.075, 0.9}, {0.1, 0.9}};
    /**
     * Memory layouts to explore. Packed is in the default grid: for
     * deep models its one-line-per-tile records usually win, and the
     * tuner resolves the choice empirically.
     */
    std::vector<hir::MemoryLayout> layouts{hir::MemoryLayout::kSparse,
                                           hir::MemoryLayout::kPacked,
                                           hir::MemoryLayout::kArray};
    /**
     * Packed-record precisions to explore. Applied only to packed
     * grid points (other layouts ignore the knob, so sweeping it
     * there would just duplicate timings). The default explores both:
     * int16 halves the record but costs a per-row quantization pass,
     * and the winner depends on model depth and batch size.
     */
    std::vector<hir::PackedPrecision> packedPrecisions{
        hir::PackedPrecision::kF32, hir::PackedPrecision::kI16};
    /**
     * Traversal kinds to explore. Node-parallel points sweep the full
     * grid; row-parallel is only enumerated for tile size 1 (its
     * vectorized walkers are lane groups of scalar walks — tiling
     * already owns the intra-node parallelism at larger tiles) and
     * pins loopOrder/interleaveFactor, which it ignores. The default
     * explores both so the tuner finds the node- vs row-parallel
     * crossover per model empirically.
     */
    std::vector<hir::TraversalKind> traversals{
        hir::TraversalKind::kNodeParallel,
        hir::TraversalKind::kRowParallel};
    int32_t numThreads = 1;
    /**
     * Row-chunk sizes (Schedule::rowChunkRows) to explore. Only swept
     * when numThreads > 1 — a serial plan runs every row in one chunk
     * regardless, so the knob would just duplicate grid points. 0 is
     * the auto chunk (ceil(rows / workers), one chunk per worker).
     */
    std::vector<int32_t> rowChunks{0, 64, 256};
    /** Timing repetitions; the minimum is kept. */
    int32_t repetitions = 3;
    /** Print progress to stderr. */
    bool verbose = false;
    /**
     * Backends to time each schedule on. The default explores only the
     * kernel runtime; add Backend::kSourceJit to also time the source
     * backend (every grid point then invokes the system compiler —
     * set jitCacheDir to amortize repeated runs).
     */
    std::vector<Backend> backends{Backend::kKernel};
    /** Source-JIT disk cache directory for the sweep ("" = off). */
    std::string jitCacheDir;
    /** LRU byte cap on that cache (0 = unlimited). */
    int64_t jitCacheMaxBytes = 0;
};

/** One timed configuration. */
struct TunedPoint
{
    hir::Schedule schedule;
    Backend backend = Backend::kKernel;
    /** Best-of-repetitions seconds for the sample batch. */
    double seconds = 0.0;
    double compileSeconds = 0.0;
};

/** The exploration outcome. */
struct TunerResult
{
    TunedPoint best;
    std::vector<TunedPoint> all;
};

/**
 * Enumerate the grid (pruned: alpha/beta vary only under hybrid
 * tiling; interleaving over trees is skipped for groups too small).
 */
std::vector<hir::Schedule> enumerateSchedules(const TunerOptions &options);

/**
 * Time every configuration of @p options on @p rows (row-major,
 * @p num_rows x forest.numFeatures()) and return the ranking.
 */
TunerResult exploreSchedules(const model::Forest &forest,
                             const float *rows, int64_t num_rows,
                             const TunerOptions &options = {});

/**
 * Append one JSON-lines record of a tuning run to the database at
 * @p path (created when absent): the model's structural features,
 * every timed point (full schedule JSON, backend, measured and compile
 * seconds) and the chosen best point. One line per call, so runs
 * accumulate into a grep/stream-friendly corpus for offline schedule
 * prediction.
 */
void appendTuningRecord(const std::string &path,
                        const model::Forest &forest,
                        const TunerResult &result);

} // namespace treebeard::tuner

#endif // TREEBEARD_TUNER_AUTO_TUNER_H
