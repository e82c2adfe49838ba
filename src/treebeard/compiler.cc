#include "treebeard/compiler.h"

#include "analysis/verifier.h"
#include "common/logging.h"
#include "common/timer.h"
#include "lir/layout_builder.h"
#include "mir/lowering.h"
#include "mir/passes.h"
#include "runtime/row_loops.h"

namespace treebeard {

namespace {

/** Mutable pipeline state threaded through the pass manager. */
struct PipelineState
{
    std::unique_ptr<hir::HirModule> hir;
    mir::MirFunction mir;
    lir::ForestBuffers buffers;
    bool mirLowered = false;
    bool lirBuilt = false;
};

/**
 * Verify every IR level that exists at this point of the pipeline,
 * attributing failures to @p pass. Used both by the fixed verify
 * passes (verifyPasses) and the after-each-pass instrumentation
 * (verifyEach).
 */
void
verifyPipelineState(const PipelineState &state, const std::string &pass,
                    analysis::DiagnosticEngine &diag)
{
    diag.setPass(pass);
    analysis::verifyForest(state.hir->forest(), diag);
    analysis::verifySchedule(state.hir->schedule(), diag);
    if (state.hir->isTiled())
        analysis::verifyHir(*state.hir, diag);
    if (state.mirLowered) {
        analysis::verifyMir(
            state.mir,
            static_cast<int64_t>(state.hir->groups().size()), diag);
    }
    if (state.lirBuilt)
        analysis::verifyLir(state.buffers, diag);
}

} // namespace

const char *
backendName(Backend backend)
{
    switch (backend) {
    case Backend::kKernel:
        return "kernel";
    case Backend::kSourceJit:
        return "jit";
    }
    panic("unknown backend");
}

Session::Session(runtime::ExecutablePlan plan,
                 CompilationArtifacts artifacts)
    : plan_(std::move(plan)), artifacts_(std::move(artifacts))
{}

Session::Session(std::unique_ptr<codegen::JitCompiledSession> jit,
                 CompilationArtifacts artifacts, int32_t num_threads)
    : jit_(std::move(jit)), artifacts_(std::move(artifacts))
{
    panicIf(jit_ == nullptr, "null JIT session");
    if (num_threads > 1)
        pool_ = std::make_unique<ThreadPool>(
            static_cast<unsigned>(num_threads));
}

void
Session::predict(const float *rows, int64_t num_rows,
                 float *predictions) const
{
    // Zero-row batches are complete before any work: return before
    // pool dispatch or backend entry so no counters move and worker
    // threads never wake for an empty range.
    if (num_rows <= 0)
        return;
    if (plan_) {
        plan_->run(rows, num_rows, predictions);
        return;
    }
    if (pool_ == nullptr) {
        jit_->predict(rows, num_rows, predictions);
        return;
    }
    // The parallel row loop is emitted into the generated translation
    // unit (treebeard_predict_worker); the runtime only fans worker
    // ids out over the pool instead of partitioning rows up here.
    int32_t workers = static_cast<int32_t>(pool_->numThreads());
    pool_->runOnAllWorkers([&](unsigned worker) {
        jit_->predictWorker(static_cast<int32_t>(worker), workers,
                            rows, num_rows, predictions);
    });
}

Dataset
Session::bindDataset(const float *rows, int64_t num_rows) const
{
    Dataset dataset;
    rebindDataset(dataset, rows, num_rows);
    return dataset;
}

void
Session::rebindDataset(Dataset &dataset, const float *rows,
                       int64_t num_rows) const
{
    fatalIf(num_rows < 0, "bindDataset: negative row count ", num_rows);
    fatalIf(rows == nullptr && num_rows > 0,
            "bindDataset: null rows with ", num_rows, " rows");
    // Invalidate before touching the image so a failure part-way
    // cannot leave a stale-but-bound dataset behind.
    dataset.boundTo_.reset();
    dataset.rows_ = rows;
    dataset.numRows_ = num_rows;
    dataset.numFeatures_ = numFeatures();
    const lir::ForestBuffers &fb =
        plan_ ? plan_->buffers() : jit_->buffers();
    const runtime::ForestView &view = plan_ ? plan_->view() : jit_->view();
    if (fb.layout == lir::LayoutKind::kPackedQuantized &&
        num_rows > 0) {
        // The quantize-once pass: predictDataset then consumes this
        // image with no per-call quantization on either backend (the
        // generated code compiles the same lir::quantizeValue, so the
        // kernel-built image is bit-exact for the JIT too).
        dataset.qimage_.resize(static_cast<size_t>(num_rows) *
                               fb.numFeatures);
        runtime::quantizeRows(view, rows, num_rows,
                              dataset.qimage_.data());
        runtime::noteDatasetQuantization(num_rows);
    } else {
        dataset.qimage_.clear();
    }
    dataset.boundTo_ = identity_;
}

void
Session::predictDataset(const Dataset &dataset,
                        float *predictions) const
{
    fatalIf(dataset.boundTo_ == nullptr ||
                dataset.boundTo_.get() != identity_.get(),
            "predictDataset: dataset is not bound to this session "
            "(use bindDataset/rebindDataset first)");
    int64_t num_rows = dataset.numRows_;
    if (num_rows <= 0)
        return;
    const int32_t *qrows =
        dataset.qimage_.empty() ? nullptr : dataset.qimage_.data();
    if (plan_) {
        plan_->runResident(dataset.rows_, qrows, num_rows,
                           predictions);
        return;
    }
    if (qrows != nullptr && jit_->hasResidentEntry()) {
        if (pool_ == nullptr) {
            jit_->predictResident(qrows, num_rows, predictions);
            return;
        }
        int32_t workers = static_cast<int32_t>(pool_->numThreads());
        pool_->runOnAllWorkers([&](unsigned worker) {
            jit_->predictResidentWorker(static_cast<int32_t>(worker),
                                        workers, qrows, num_rows,
                                        predictions);
        });
        return;
    }
    // Plans without a cached input transform (f32 layouts) take the
    // ordinary path; binding cost nothing, so this is still exact.
    predict(dataset.rows_, num_rows, predictions);
}

void
Session::predictInstrumented(const float *rows, int64_t num_rows,
                             float *predictions,
                             runtime::WalkCounters *counters) const
{
    if (!supportsInstrumentation()) {
        fatalCoded(kErrInstrumentationUnsupported,
                   "predictInstrumented requires a backend with event "
                   "counters (have: ", backendName(backend()),
                   "); check Session::supportsInstrumentation() or "
                   "recompile with CompilerOptions::backend = "
                   "Backend::kKernel");
    }
    plan_->runInstrumented(rows, num_rows, predictions, counters);
}

int32_t
Session::numFeatures() const
{
    return plan_ ? plan_->buffers().numFeatures : jit_->numFeatures();
}

int32_t
Session::numClasses() const
{
    return plan_ ? plan_->buffers().numClasses : jit_->numClasses();
}

const runtime::ExecutablePlan &
Session::plan() const
{
    panicIf(!plan_, "plan() on a source-JIT session");
    return *plan_;
}

const codegen::JitCompiledSession &
Session::jit() const
{
    panicIf(jit_ == nullptr, "jit() on a kernel session");
    return *jit_;
}

Session
compile(const model::Forest &forest, const hir::Schedule &schedule,
        const CompilerOptions &options)
{
    // Pre-compile verification: reject bad models/schedules with the
    // full diagnostic report instead of the first fatal().
    {
        analysis::DiagnosticEngine diag;
        diag.setPass("pre-compile");
        analysis::verifySchedule(schedule, diag);
        analysis::verifyForest(forest, diag);
        diag.throwIfErrors();
    }
    Timer total_timer;

    PipelineState state;
    state.hir = std::make_unique<hir::HirModule>(forest, schedule);

    // With verifyEach, the instrumentation hook below already verifies
    // after every pass; the fixed verify passes would be redundant.
    bool fixed_verify_passes =
        options.verifyPasses && !options.verifyEach;

    ir::PassManager<PipelineState> pm;
    pm.addPass("hir-tiling", [](PipelineState &s) {
        s.hir->runTilingPass();
    });
    if (fixed_verify_passes) {
        pm.addPass("hir-verify-tiling", [](PipelineState &s) {
            analysis::DiagnosticEngine diag;
            verifyPipelineState(s, "hir-verify-tiling", diag);
            diag.throwIfErrors();
        });
    }
    pm.addPass("hir-reorder-trees", [](PipelineState &s) {
        s.hir->runReorderPass();
    });
    if (fixed_verify_passes) {
        pm.addPass("hir-verify-reorder", [](PipelineState &s) {
            analysis::DiagnosticEngine diag;
            verifyPipelineState(s, "hir-verify-reorder", diag);
            diag.throwIfErrors();
        });
    }
    pm.addPass("lower-to-mir", [](PipelineState &s) {
        s.mir = mir::lowerToMir(*s.hir);
        s.mirLowered = true;
    });
    pm.addPass("mir-peel-unroll", [](PipelineState &s) {
        mir::applyWalkPeelingAndUnrolling(s.mir, *s.hir);
    });
    pm.addPass("mir-interleave", [](PipelineState &s) {
        mir::applyWalkInterleaving(
            s.mir, s.mir.schedule.interleaveFactor);
    });
    pm.addPass("mir-parallelize", [](PipelineState &s) {
        mir::applyParallelization(s.mir, s.mir.schedule.numThreads);
    });
    if (fixed_verify_passes) {
        pm.addPass("mir-verify", [](PipelineState &s) {
            analysis::DiagnosticEngine diag;
            verifyPipelineState(s, "mir-verify", diag);
            diag.throwIfErrors();
        });
    }
    pm.addPass("lower-to-lir", [](PipelineState &s) {
        s.buffers = lir::buildForestBuffers(*s.hir);
        s.lirBuilt = true;
    });
    analysis::DiagnosticEngine each_pass_diags;
    if (options.verifyEach) {
        pm.setInstrumentation([&each_pass_diags](
                                  const ir::PassTrace &trace,
                                  PipelineState &s) {
            analysis::DiagnosticEngine diag;
            verifyPipelineState(s, trace.name, diag);
            diag.throwIfErrors();
            // Errors threw above; keep notes/warnings for the report.
            for (const analysis::Diagnostic &d : diag.diagnostics())
                each_pass_diags.add(d);
        });
    }

    if (options.recordIrDumps) {
        pm.enableDumps([](const PipelineState &s) {
            std::string dump = s.hir->dump();
            if (s.mirLowered)
                dump += s.mir.print();
            return dump;
        });
    }

    pm.run(state);

    CompilationArtifacts artifacts;
    artifacts.passTraces = pm.traces();
    artifacts.lirSummary = state.buffers.summary();
    artifacts.backend = options.backend;
    artifacts.diagnostics = each_pass_diags.diagnostics();
    if (options.recordIrDumps) {
        artifacts.hirDump = state.hir->dump();
        artifacts.mirDump = state.mir.print();
    }

    if (options.backend == Backend::kSourceJit) {
        auto jit = std::make_unique<codegen::JitCompiledSession>(
            std::move(state.buffers), state.hir->groups(), schedule,
            options.jit);
        artifacts.generatedSource = jit->source();
        artifacts.jitCompileSeconds = jit->compileSeconds();
        artifacts.totalSeconds = total_timer.elapsedSeconds();
        return Session(std::move(jit), std::move(artifacts),
                       schedule.numThreads);
    }

    runtime::ExecutablePlan plan(std::move(state.buffers),
                                 std::move(state.mir),
                                 state.hir->groups());
    artifacts.totalSeconds = total_timer.elapsedSeconds();
    return Session(std::move(plan), std::move(artifacts));
}

} // namespace treebeard
