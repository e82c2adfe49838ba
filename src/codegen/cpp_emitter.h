/**
 * @file
 * Treebeard's source-code backend: emit a predictForest translation
 * unit for the LIR buffers and tree groups, compile it with the system
 * compiler and run the native code. This is the repo's analogue of the
 * original system's LLVM-IR emission + JIT.
 *
 * The emitted source carries the text of the runtime's walker and
 * row-loop headers (embedded into this library at build time) and
 * instantiates the same templates the kernel runtime dispatches to,
 * for this plan's tile size, layout, interleave factor, traversal and
 * missing-value handling, over a constant table of its tree groups.
 * The two backends therefore run one walker source, and their outputs
 * agree bit for bit by construction. The model arrays stay out of the
 * source: every entry point reads them through one runtime::ForestView,
 * so a model compiles in about the same time regardless of its size.
 */
#ifndef TREEBEARD_CODEGEN_CPP_EMITTER_H
#define TREEBEARD_CODEGEN_CPP_EMITTER_H

#include <memory>
#include <string>
#include <vector>

#include "codegen/system_jit.h"
#include "hir/hir_module.h"
#include "lir/forest_buffers.h"
#include "runtime/forest_view.h"

namespace treebeard::codegen {

/**
 * Emit the predictForest C++ source for @p buffers under @p groups and
 * @p schedule. It compiles standalone (no include path) as C++17, and
 * two emissions of the same plan are byte-identical. The entry points:
 *
 *   extern "C" void treebeard_predict(
 *       const float* rows, int64_t num_rows, float* predictions,
 *       const treebeard::runtime::ForestView* view);
 *
 *   extern "C" void treebeard_predict_worker(
 *       int32_t worker, int32_t num_workers, const float* rows,
 *       int64_t num_rows, float* predictions, const ForestView* view);
 *
 * The worker entry is the parallel row loop emitted into the TU: it
 * computes the row chunks assigned to @p worker (chunk size baked from
 * Schedule::rowChunkRows, default ceil(rows / workers)), so the
 * runtime fans out worker ids over its pool instead of partitioning
 * rows above the generated function. Quantized-packed plans also
 * export treebeard_predict_resident[_worker], which take a
 * pre-quantized const int32_t* row image in place of float rows and
 * perform no quantization at predict time (the Session's
 * resident-dataset path). predictions receive num_rows * numClasses
 * values.
 */
std::string emitPredictForestSource(
    const lir::ForestBuffers &buffers,
    const std::vector<hir::TreeGroup> &groups,
    const hir::Schedule &schedule);

/**
 * Append the vector-ISA flags (-mavx2) the emitted source can use on
 * this machine to @p options.extraFlags. Applied automatically by
 * JitCompiledSession; exposed for tests and custom JIT drivers.
 */
JitOptions withHostSimdFlags(JitOptions options);

/**
 * A model compiled through the source backend: owns the buffers and
 * the loaded shared object.
 */
class JitCompiledSession
{
  public:
    /**
     * Emit, compile and bind. The instance itself runs rows serially;
     * threading callers drive predictWorker() from their own pool
     * (one call per worker id), which executes the parallel row loop
     * emitted into the translation unit.
     */
    JitCompiledSession(lir::ForestBuffers buffers,
                       std::vector<hir::TreeGroup> groups,
                       const hir::Schedule &schedule,
                       const JitOptions &jit_options = {});

    /**
     * The generated predictForest: @p predictions receives
     * num_rows * numClasses() values (per-class probabilities for
     * multiclass models, one value per row otherwise).
     */
    void predict(const float *rows, int64_t num_rows,
                 float *predictions) const;

    /**
     * Run the emitted in-TU row loop's share for @p worker of
     * @p num_workers: every chunk congruent to the worker id. Calling
     * it for all worker ids (concurrently or not) computes exactly
     * the rows predict() computes, bit-identically.
     */
    void predictWorker(int32_t worker, int32_t num_workers,
                       const float *rows, int64_t num_rows,
                       float *predictions) const;

    /**
     * True when the plan exports the resident entry points (the
     * quantized packed layout): predictions straight from a
     * pre-quantized int32 row image, no quantization at predict time.
     */
    bool hasResidentEntry() const { return predictResident_ != nullptr; }

    /** Resident-image predict; requires hasResidentEntry(). */
    void predictResident(const int32_t *qrows, int64_t num_rows,
                         float *predictions) const;

    /** Resident-image share of the parallel row loop for one worker. */
    void predictResidentWorker(int32_t worker, int32_t num_workers,
                               const int32_t *qrows, int64_t num_rows,
                               float *predictions) const;

    int32_t numFeatures() const { return buffers_.numFeatures; }
    int32_t numClasses() const { return buffers_.numClasses; }
    const lir::ForestBuffers &buffers() const { return buffers_; }
    /** The view every entry point reads the model through. */
    const runtime::ForestView &view() const { return view_; }
    double compileSeconds() const { return module_->compileSeconds(); }
    const std::string &source() const { return source_; }

  private:
    using View = runtime::ForestView;
    using PredictFn = void (*)(const float *, int64_t, float *,
                               const View *);
    using PredictWorkerFn = void (*)(int32_t, int32_t, const float *,
                                     int64_t, float *, const View *);
    using PredictResidentFn = void (*)(const int32_t *, int64_t,
                                       float *, const View *);
    using PredictResidentWorkerFn = void (*)(int32_t, int32_t,
                                             const int32_t *, int64_t,
                                             float *, const View *);

    lir::ForestBuffers buffers_;
    /** Widened default-left bits (see runtime::makeForestView). */
    std::vector<int32_t> dlWide_;
    runtime::ForestView view_{};
    std::string source_;
    std::unique_ptr<JitModule> module_;
    PredictFn predict_ = nullptr;
    PredictWorkerFn predictWorker_ = nullptr;
    PredictResidentFn predictResident_ = nullptr;
    PredictResidentWorkerFn predictResidentWorker_ = nullptr;
};

} // namespace treebeard::codegen

#endif // TREEBEARD_CODEGEN_CPP_EMITTER_H
