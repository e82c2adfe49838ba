/**
 * @file
 * Kernel selection for ExecutablePlan, shared by the translation units
 * that instantiate the row-loop templates (row_loops.h) ahead of time:
 * plan.cc holds tile sizes 1-4, plan_kernels_5_8.cc tile sizes 5-8,
 * so that neither compiles the whole table. Internal to the runtime
 * library.
 */
#ifndef TREEBEARD_RUNTIME_PLAN_KERNELS_H
#define TREEBEARD_RUNTIME_PLAN_KERNELS_H

#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "runtime/plan.h"
#include "runtime/row_loops.h"

namespace treebeard::runtime::detail {

/**
 * Quantize rows [begin, end) into one int32 per feature under the
 * model's affine maps ("quantize the row's gathered features once"):
 * every tile compare in the walk then runs entirely in int16, and a
 * feature read R times costs one quantization, not R. The image lives
 * in a per-worker thread_local scratch buffer that only ever grows, so
 * chunked parallel row loops stop paying one heap allocation per
 * chunk; the returned pointer stays valid until this worker's next
 * chunk.
 */
const int32_t *quantizeRowsScratch(const ForestView &view,
                                   const float *rows, int64_t begin,
                                   int64_t end);

/**
 * Run rows [begin, end) through one row-loop kernel bundle
 * (row_loops.h). The quantized packed layout walks the resident image
 * when the caller bound one and a per-worker quantization pass
 * otherwise.
 */
template <class Kernels>
void
runKernelRange(const ExecutablePlan &plan, const float *rows,
               const int32_t *qrows, int64_t begin, int64_t end,
               float *predictions)
{
    const ForestView &view = plan.view();
    int64_t nf = view.numFeatures;
    const typename Kernels::Row *range_rows;
    if constexpr (std::is_same_v<typename Kernels::Row, int32_t>) {
        range_rows = qrows != nullptr
                         ? qrows + begin * nf
                         : quantizeRowsScratch(view, rows, begin, end);
    } else {
        (void)qrows;
        range_rows = rows + begin * nf;
    }
    std::vector<float> scratch(
        static_cast<size_t>(rangeScratchFloats(view, end - begin)));
    Kernels::runRange(view, plan.rowLoop(), range_rows, end - begin,
                      predictions + begin * view.numClasses,
                      scratch.data());
}

template <int NT, lir::LayoutKind L, bool HM>
ExecutablePlan::RangeRunner
selectByInterleave(int32_t factor)
{
    switch (factor) {
      case 1: return &runKernelRange<PlanKernels<NT, L, 1, HM>>;
      case 2: return &runKernelRange<PlanKernels<NT, L, 2, HM>>;
      case 4: return &runKernelRange<PlanKernels<NT, L, 4, HM>>;
      case 8: return &runKernelRange<PlanKernels<NT, L, 8, HM>>;
      default: fatal("unsupported interleave factor ", factor);
    }
}

template <int NT, lir::LayoutKind L, bool HM>
ExecutablePlan::RangeRunner
selectKernels(bool row_parallel, int32_t factor)
{
    if (row_parallel)
        return &runKernelRange<RowParallelKernels<NT, L, HM>>;
    return selectByInterleave<NT, L, HM>(factor);
}

/** The range runner for tile size NT and the given plan shape. */
template <int NT, bool HM>
ExecutablePlan::RangeRunner
selectByLayout(lir::LayoutKind layout, bool row_parallel, int32_t factor)
{
    using lir::LayoutKind;
    switch (layout) {
      case LayoutKind::kSparse:
        return selectKernels<NT, LayoutKind::kSparse, HM>(row_parallel,
                                                          factor);
      case LayoutKind::kPacked:
        return selectKernels<NT, LayoutKind::kPacked, HM>(row_parallel,
                                                          factor);
      case LayoutKind::kPackedQuantized:
        return selectKernels<NT, LayoutKind::kPackedQuantized, HM>(
            row_parallel, factor);
      case LayoutKind::kArray:
        return selectKernels<NT, LayoutKind::kArray, HM>(row_parallel,
                                                         factor);
    }
    panic("unknown layout kind");
}

/**
 * The range runner for tile sizes 5-8 (plan_kernels_5_8.cc);
 * @p handle_missing as in handleMissingValues.
 */
ExecutablePlan::RangeRunner
selectTileSize5To8(int32_t tile_size, lir::LayoutKind layout,
                   bool row_parallel, int32_t factor,
                   bool handle_missing);

} // namespace treebeard::runtime::detail

#endif // TREEBEARD_RUNTIME_PLAN_KERNELS_H
