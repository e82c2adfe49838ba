#include "codegen/cpp_emitter.h"

#include <sstream>

#include "common/logging.h"
#include "embedded_runtime.h"
#include "runtime/plan.h"

namespace treebeard::codegen {

namespace {

using hir::TreeGroup;
using lir::ForestBuffers;
using lir::LayoutKind;

/** The LayoutKind enumerator for @p kind, as C++ source. */
const char *
layoutEnumerator(LayoutKind kind)
{
    switch (kind) {
      case LayoutKind::kArray: return "kArray";
      case LayoutKind::kSparse: return "kSparse";
      case LayoutKind::kPacked: return "kPacked";
      case LayoutKind::kPackedQuantized: return "kPackedQuantized";
    }
    panic("unknown layout kind");
}

const char *
boolLiteral(bool value)
{
    return value ? "true" : "false";
}

} // namespace

std::string
emitPredictForestSource(const ForestBuffers &fb,
                        const std::vector<TreeGroup> &groups,
                        const hir::Schedule &schedule)
{
    fatalIf(groups.empty(), "source emission requires tree groups");
    bool quantized = fb.layout == LayoutKind::kPackedQuantized;
    bool missing = runtime::handleMissingValues(fb, schedule);
    std::ostringstream os;
    os << "// Generated by treebeard::codegen (schedule: "
       << schedule.toString() << ").\n";
    os << kEmbeddedRuntimeSource;

    // The kernels the kernel runtime would dispatch to for this plan,
    // instantiated here with the plan's group table as a constant.
    os << "\nnamespace {\n\nusing namespace treebeard;\n"
          "using runtime::ForestView;\n\n";
    os << "using Kernels = runtime::";
    if (schedule.traversal == hir::TraversalKind::kRowParallel) {
        os << "RowParallelKernels<" << fb.tileSize
           << ", lir::LayoutKind::" << layoutEnumerator(fb.layout) << ", "
           << boolLiteral(missing) << ">;\n";
    } else {
        os << "PlanKernels<" << fb.tileSize << ", lir::LayoutKind::"
           << layoutEnumerator(fb.layout) << ", "
           << schedule.interleaveFactor << ", " << boolLiteral(missing)
           << ">;\n";
    }
    os << "using Row = Kernels::Row;\n\n";
    std::vector<runtime::WalkGroup> table = runtime::walkGroupTable(groups);
    os << "constexpr runtime::WalkGroup kGroups[" << table.size()
       << "] = {\n";
    for (const runtime::WalkGroup &group : table) {
        os << "    {" << group.beginPos << ", " << group.endPos << ", "
           << group.walkDepth << ", " << group.peelDepth << ", "
           << boolLiteral(group.unrolled) << "},\n";
    }
    os << "};\n";
    os << "constexpr runtime::RowLoop kLoop = {kGroups, " << table.size()
       << ", "
       << boolLiteral(schedule.loopOrder ==
                      hir::LoopOrder::kOneTreeAtATime)
       << "};\n\n";

    // The range core every entry point funnels into.
    os << "void predictRange(const ForestView &v, const Row *rows,\n"
          "                  int64_t num_rows, float *predictions)\n"
          "{\n"
          "    float *scratch =\n"
          "        new float[runtime::rangeScratchFloats(v, num_rows)];\n"
          "    Kernels::runRange(v, kLoop, rows, num_rows, predictions,\n"
          "                      scratch);\n"
          "    delete[] scratch;\n"
          "}\n\n";
    os << "void predictFloatRows(const ForestView &v, const float *rows,\n"
          "                      int64_t num_rows, float *predictions)\n"
          "{\n";
    if (quantized) {
        // Quantize the span once up front; the walks then compare in
        // int16 with no per-tile float work.
        os << "    int32_t *qrows = new int32_t[num_rows * v.numFeatures];\n"
              "    runtime::quantizeRows(v, rows, num_rows, qrows);\n"
              "    predictRange(v, qrows, num_rows, predictions);\n"
              "    delete[] qrows;\n";
    } else {
        os << "    predictRange(v, rows, num_rows, predictions);\n";
    }
    os << "}\n\n";

    // Chunking of the in-TU parallel row loop: the schedule can force
    // a chunk size; otherwise one contiguous chunk per worker. Worker
    // w computes the chunks congruent to w mod num_workers, so the
    // runtime only fans out worker ids.
    std::string chunk_expr =
        schedule.rowChunkRows > 0
            ? std::to_string(schedule.rowChunkRows)
            : "(num_rows + num_workers - 1) / num_workers";
    os << "template <class RowT, class Predict>\n"
          "void predictWorkerChunks(const ForestView &v, int32_t worker,\n"
          "                         int32_t num_workers, const RowT *rows,\n"
          "                         int64_t num_rows, float *predictions,\n"
          "                         Predict predict)\n"
          "{\n"
          "    if (num_rows <= 0 || num_workers <= 0 || worker < 0)\n"
          "        return;\n"
          "    int64_t chunk = "
       << chunk_expr
       << ";\n"
          "    if (chunk < 1)\n"
          "        chunk = 1;\n"
          "    for (int64_t begin = int64_t{worker} * chunk; "
          "begin < num_rows;\n"
          "         begin += int64_t{num_workers} * chunk) {\n"
          "        int64_t end =\n"
          "            begin + chunk < num_rows ? begin + chunk : num_rows;\n"
          "        predict(v, rows + begin * v.numFeatures, end - begin,\n"
          "                predictions + begin * v.numClasses);\n"
          "    }\n"
          "}\n\n"
          "} // namespace\n\n";

    os << "extern \"C\" void\n"
          "treebeard_predict(const float *rows, int64_t num_rows,\n"
          "                  float *predictions, const ForestView *view)\n"
          "{\n"
          "    if (num_rows > 0)\n"
          "        predictFloatRows(*view, rows, num_rows, predictions);\n"
          "}\n\n"
          "extern \"C\" void\n"
          "treebeard_predict_worker(int32_t worker, int32_t num_workers,\n"
          "                         const float *rows, int64_t num_rows,\n"
          "                         float *predictions,\n"
          "                         const ForestView *view)\n"
          "{\n"
          "    predictWorkerChunks(*view, worker, num_workers, rows, "
          "num_rows,\n"
          "                        predictions, predictFloatRows);\n"
          "}\n";
    if (quantized) {
        // Resident-dataset entries: rows arrive pre-quantized (the
        // Session's bound Dataset image), so no quantization runs at
        // predict time at all.
        os << "\nextern \"C\" void\n"
              "treebeard_predict_resident(const int32_t *qrows, "
              "int64_t num_rows,\n"
              "                           float *predictions,\n"
              "                           const ForestView *view)\n"
              "{\n"
              "    if (num_rows > 0)\n"
              "        predictRange(*view, qrows, num_rows, predictions);\n"
              "}\n\n"
              "extern \"C\" void\n"
              "treebeard_predict_resident_worker(int32_t worker, "
              "int32_t num_workers,\n"
              "                                  const int32_t *qrows,\n"
              "                                  int64_t num_rows,\n"
              "                                  float *predictions,\n"
              "                                  const ForestView *view)\n"
              "{\n"
              "    predictWorkerChunks(*view, worker, num_workers, qrows, "
              "num_rows,\n"
              "                        predictions, predictRange);\n"
              "}\n";
    }
    return os.str();
}

JitOptions
withHostSimdFlags(JitOptions options)
{
#if defined(__x86_64__) || defined(__i386__)
    // The embedded walkers guard their AVX2 paths on __AVX2__; light
    // them up when this machine can run the instructions.
    if (__builtin_cpu_supports("avx2") &&
        options.extraFlags.find("-mavx2") == std::string::npos) {
        options.extraFlags +=
            options.extraFlags.empty() ? "-mavx2" : " -mavx2";
    }
#endif
    return options;
}

JitCompiledSession::JitCompiledSession(lir::ForestBuffers buffers,
                                       std::vector<TreeGroup> groups,
                                       const hir::Schedule &schedule,
                                       const JitOptions &jit_options,
                                       std::string *emitted_source)
    : buffers_(std::move(buffers))
{
    view_ = runtime::makeForestView(buffers_, schedule, &dlWide_);
    std::string source = emitPredictForestSource(buffers_, groups, schedule);
    module_ = std::make_unique<JitModule>(source,
                                          withHostSimdFlags(jit_options));
    if (emitted_source != nullptr)
        *emitted_source = std::move(source);
    predict_ = module_->function<PredictFn>("treebeard_predict");
    predictWorker_ =
        module_->function<PredictWorkerFn>("treebeard_predict_worker");
    // Only quantized-packed plans emit the resident entries.
    predictResident_ = module_->functionOrNull<PredictResidentFn>(
        "treebeard_predict_resident");
    predictResidentWorker_ =
        module_->functionOrNull<PredictResidentWorkerFn>(
            "treebeard_predict_resident_worker");
}

void
JitCompiledSession::predict(const float *rows, int64_t num_rows,
                            float *predictions) const
{
    predict_(rows, num_rows, predictions, &view_);
}

void
JitCompiledSession::predictWorker(int32_t worker, int32_t num_workers,
                                  const float *rows, int64_t num_rows,
                                  float *predictions) const
{
    predictWorker_(worker, num_workers, rows, num_rows, predictions,
                   &view_);
}

void
JitCompiledSession::predictResident(const int32_t *qrows,
                                    int64_t num_rows,
                                    float *predictions) const
{
    panicIf(predictResident_ == nullptr,
            "plan has no resident predict entry");
    predictResident_(qrows, num_rows, predictions, &view_);
}

void
JitCompiledSession::predictResidentWorker(int32_t worker,
                                          int32_t num_workers,
                                          const int32_t *qrows,
                                          int64_t num_rows,
                                          float *predictions) const
{
    panicIf(predictResidentWorker_ == nullptr,
            "plan has no resident predict entry");
    predictResidentWorker_(worker, num_workers, qrows, num_rows,
                           predictions, &view_);
}

} // namespace treebeard::codegen
