/**
 * @file
 * The executable plan: the final lowering target. A plan binds the
 * MIR loop structure and the LIR buffers to specialized native kernels
 * (the walkers), standing in for the LLVM-JIT'd predictForest function
 * of the original system. Plans are immutable and thread-compatible;
 * run() may be called concurrently.
 */
#ifndef TREEBEARD_RUNTIME_PLAN_H
#define TREEBEARD_RUNTIME_PLAN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "hir/hir_module.h"
#include "lir/forest_buffers.h"
#include "mir/mir.h"
#include "runtime/forest_view.h"

namespace treebeard::runtime {

/**
 * Process-wide counters for row-quantization work on the i16 packed
 * path. batchPasses counts per-predict-call quantization passes (the
 * cost predictDataset exists to avoid); datasetBinds counts
 * quantize-once passes performed when a Dataset is bound. Monotonic,
 * updated with relaxed atomics — intended for tests and benches, not
 * for precise accounting across threads mid-flight.
 */
struct RowQuantizationStats
{
    int64_t batchPasses = 0;
    int64_t batchRows = 0;
    int64_t datasetBinds = 0;
    int64_t datasetRows = 0;
};

/** Snapshot of the process-wide row-quantization counters. */
RowQuantizationStats rowQuantizationStats();

/** Record one dataset-bind quantization pass over @p num_rows rows. */
void noteDatasetQuantization(int64_t num_rows);

/**
 * Whether a plan's walkers route missing (NaN) values by the tiles'
 * default-direction bits. On unless the schedule promises NaN-free
 * inputs (assumeNoMissingValues), and always on for models that carry
 * default directions, which must be honored. Both backends instantiate
 * their walkers with this choice, so a NaN row routes alike on both
 * even when it breaks the promise.
 */
bool handleMissingValues(const lir::ForestBuffers &fb,
                         const hir::Schedule &schedule);

/**
 * The walkers' view of @p fb under @p schedule. When the row-parallel
 * sparse walker routes missing values (tile size 1), its word gathers
 * need an int32-widened copy of the default-left bytes: it is built
 * into @p default_left_wide, which must outlive the view (and is left
 * empty otherwise). The bits matter even for models without default
 * directions: padding writes load-bearing all-left bits on dummy
 * tiles, so NaN must follow the child-0 chain.
 */
ForestView makeForestView(const lir::ForestBuffers &fb,
                          const hir::Schedule &schedule,
                          std::vector<int32_t> *default_left_wide);

/** The plain group table the row loops walk. */
std::vector<WalkGroup>
walkGroupTable(const std::vector<hir::TreeGroup> &groups);

/** Software event counters for the microarchitectural analysis bench. */
struct WalkCounters
{
    /** Tile evaluations performed (speculative included). */
    int64_t tilesVisited = 0;
    /** Node predicates evaluated (tileSize per tile evaluation). */
    int64_t nodePredicatesEvaluated = 0;
    /** Node predicates a plain binary walk would have evaluated. */
    int64_t scalarNodesNeeded = 0;
    /** Feature gather element loads. */
    int64_t featureGathers = 0;
    /** Distinct model bytes touched (approximate: per tile visit). */
    int64_t modelBytesTouched = 0;
    /** Data-dependent branches a traversal executes. */
    int64_t walkBranches = 0;

    void
    add(const WalkCounters &other)
    {
        tilesVisited += other.tilesVisited;
        nodePredicatesEvaluated += other.nodePredicatesEvaluated;
        scalarNodesNeeded += other.scalarNodesNeeded;
        featureGathers += other.featureGathers;
        modelBytesTouched += other.modelBytesTouched;
        walkBranches += other.walkBranches;
    }
};

/**
 * A compiled, runnable predictForest.
 */
class ExecutablePlan
{
  public:
    /**
     * Assemble a plan. Normally produced by treebeard::compile;
     * constructing one directly is useful in tests.
     */
    ExecutablePlan(lir::ForestBuffers buffers, mir::MirFunction mir,
                   std::vector<hir::TreeGroup> groups);

    ExecutablePlan(ExecutablePlan &&) = default;
    ExecutablePlan &operator=(ExecutablePlan &&) = default;

    /**
     * The predictForest entry point: compute predictions for
     * @p num_rows rows (row-major, numFeatures() floats each).
     * @param predictions num_rows * numClasses() outputs (multiclass
     *        models emit per-class probabilities per row).
     */
    void run(const float *rows, int64_t num_rows,
             float *predictions) const;

    /**
     * As run(), but with a pre-quantized int32 row image (@p qrows,
     * num_rows * numFeatures() values from runtime::quantizeRows) so the
     * quantized packed walkers skip their per-call quantization pass.
     * Layouts that do not consume quantized rows ignore @p qrows and
     * read @p rows; callers must always pass both. @p qrows may be
     * null, which degrades to run().
     */
    void runResident(const float *rows, const int32_t *qrows,
                     int64_t num_rows, float *predictions) const;

    /**
     * As run(), but through the instrumented (unoptimized-speed)
     * kernels, accumulating software event counters.
     */
    void runInstrumented(const float *rows, int64_t num_rows,
                         float *predictions, WalkCounters *counters)
        const;

    const lir::ForestBuffers &buffers() const { return buffers_; }
    const mir::MirFunction &mir() const { return mir_; }
    const std::vector<hir::TreeGroup> &groups() const { return groups_; }

    /** The walkers' view of buffers(). */
    const ForestView &view() const { return view_; }
    /** The row loop over groups() that the schedule chose. */
    const RowLoop &rowLoop() const { return rowLoop_; }
    int32_t numFeatures() const { return buffers_.numFeatures; }
    /** Outputs per row: 1, or the class count for multiclass models. */
    int32_t numClasses() const { return buffers_.numClasses; }
    int32_t numThreads() const { return mir_.schedule.numThreads; }

    /**
     * Serial execution over the row range [begin, end). The third
     * argument is an optional resident quantized row image (indexed
     * from row 0, or null to quantize per chunk).
     */
    using RangeRunner = void (*)(const ExecutablePlan &, const float *,
                                 const int32_t *, int64_t, int64_t,
                                 float *);

  private:
    /** Shared run()/runResident() row-loop dispatch. */
    void dispatchRows(const float *rows, const int32_t *qrows,
                      int64_t num_rows, float *predictions) const;

    lir::ForestBuffers buffers_;
    mir::MirFunction mir_;
    std::vector<hir::TreeGroup> groups_;
    /** Widened default-left bits (see makeForestView). */
    std::vector<int32_t> dlWide_;
    std::vector<WalkGroup> walkGroups_;
    ForestView view_{};
    RowLoop rowLoop_{};
    RangeRunner runner_ = nullptr;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace treebeard::runtime

#endif // TREEBEARD_RUNTIME_PLAN_H
