#include "runtime/plan_kernels.h"

namespace treebeard::runtime::detail {

namespace {

template <bool HM>
ExecutablePlan::RangeRunner
selectByTileSize(int32_t tile_size, lir::LayoutKind layout,
                 bool row_parallel, int32_t factor)
{
    switch (tile_size) {
      case 5: return selectByLayout<5, HM>(layout, row_parallel, factor);
      case 6: return selectByLayout<6, HM>(layout, row_parallel, factor);
      case 7: return selectByLayout<7, HM>(layout, row_parallel, factor);
      case 8: return selectByLayout<8, HM>(layout, row_parallel, factor);
      default: fatal("unsupported tile size ", tile_size);
    }
}

} // namespace

ExecutablePlan::RangeRunner
selectTileSize5To8(int32_t tile_size, lir::LayoutKind layout,
                   bool row_parallel, int32_t factor, bool handle_missing)
{
    return handle_missing
               ? selectByTileSize<true>(tile_size, layout, row_parallel,
                                        factor)
               : selectByTileSize<false>(tile_size, layout, row_parallel,
                                         factor);
}

} // namespace treebeard::runtime::detail
