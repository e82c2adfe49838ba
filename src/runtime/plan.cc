#include "runtime/plan.h"

#include <atomic>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/logging.h"
#include "runtime/row_loops.h"

namespace treebeard::runtime {

namespace {

std::atomic<int64_t> gBatchQuantizePasses{0};
std::atomic<int64_t> gBatchQuantizeRows{0};
std::atomic<int64_t> gDatasetQuantizePasses{0};
std::atomic<int64_t> gDatasetQuantizeRows{0};

} // namespace

RowQuantizationStats
rowQuantizationStats()
{
    RowQuantizationStats stats;
    stats.batchPasses = gBatchQuantizePasses.load(std::memory_order_relaxed);
    stats.batchRows = gBatchQuantizeRows.load(std::memory_order_relaxed);
    stats.datasetBinds =
        gDatasetQuantizePasses.load(std::memory_order_relaxed);
    stats.datasetRows = gDatasetQuantizeRows.load(std::memory_order_relaxed);
    return stats;
}

void
noteDatasetQuantization(int64_t num_rows)
{
    gDatasetQuantizePasses.fetch_add(1, std::memory_order_relaxed);
    gDatasetQuantizeRows.fetch_add(num_rows, std::memory_order_relaxed);
}

bool
handleMissingValues(const lir::ForestBuffers &fb,
                    const hir::Schedule &schedule)
{
    return fb.hasDefaultLeft || !schedule.assumeNoMissingValues;
}

ForestView
makeForestView(const lir::ForestBuffers &fb, const hir::Schedule &schedule,
               std::vector<int32_t> *default_left_wide)
{
    default_left_wide->clear();
    if (schedule.traversal == hir::TraversalKind::kRowParallel &&
        fb.layout == lir::LayoutKind::kSparse && fb.tileSize == 1 &&
        handleMissingValues(fb, schedule)) {
        default_left_wide->assign(fb.defaultLeft.begin(),
                                  fb.defaultLeft.end());
    }
    auto data_or_null = [](const auto &v) {
        return v.empty() ? nullptr : v.data();
    };
    ForestView view{};
    view.thresholds = data_or_null(fb.thresholds);
    view.featureIndices = data_or_null(fb.featureIndices);
    view.shapeIds = data_or_null(fb.shapeIds);
    view.defaultLeft = data_or_null(fb.defaultLeft);
    view.childBase = data_or_null(fb.childBase);
    view.leaves = data_or_null(fb.leaves);
    view.packed = lir::isPackedKind(fb.layout) ? fb.packedData() : nullptr;
    view.defaultLeftWide = data_or_null(*default_left_wide);
    view.lut = fb.shapes->lutData();
    view.treeFirstTile = data_or_null(fb.treeFirstTile);
    view.treeClass = data_or_null(fb.treeClass);
    view.quantScale = data_or_null(fb.quantization.scale);
    view.quantOffset = data_or_null(fb.quantization.offset);
    view.lutStride = fb.shapes->lutStride();
    view.numFeatures = fb.numFeatures;
    view.numClasses = fb.numClasses;
    view.baseScore = fb.baseScore;
    view.objective = fb.objective;
    return view;
}

std::vector<WalkGroup>
walkGroupTable(const std::vector<hir::TreeGroup> &groups)
{
    std::vector<WalkGroup> table;
    table.reserve(groups.size());
    for (const hir::TreeGroup &group : groups) {
        table.push_back({group.beginPos, group.endPos, group.walkDepth,
                         group.peelDepth, group.unrolledWalk});
    }
    return table;
}

int32_t
evalTileDynamic(const lir::ForestBuffers &fb, int64_t tile,
                const float *row, bool handle_missing)
{
    int32_t nt = fb.tileSize;
    lir::ForestBuffers::TileFields fields = fb.tileFields(tile);
    uint32_t default_left = handle_missing ? fields.defaultLeft : 0;
    bool quantized = fb.layout == lir::LayoutKind::kPackedQuantized;
    uint32_t outcome = 0;
    for (int32_t s = 0; s < nt; ++s) {
        int32_t feature = fields.feature(s);
        uint32_t lt = 0;
        uint32_t missing = 0;
        if (quantized) {
            int32_t value =
                fb.quantization.quantizeValue(row[feature], feature);
            lt = static_cast<uint32_t>(
                value < static_cast<int32_t>(fields.qthresholds[s]));
            missing = static_cast<uint32_t>(
                value == static_cast<int32_t>(lir::kQuantizedNaN));
        } else {
            float value = row[feature];
            lt = static_cast<uint32_t>(
                handle_missing ? goesLeft<true>(value, fields.thresholds[s])
                               : goesLeft<false>(value,
                                                 fields.thresholds[s]));
            missing = static_cast<uint32_t>(value != value);
        }
        outcome |= (lt | (missing & ((default_left >> s) & 1u))) << s;
    }
    return fb.shapes->child(fields.shapeId, outcome);
}

namespace {

using hir::TreeGroup;
using lir::ForestBuffers;
using lir::LayoutKind;

/**
 * Generic dynamic-tile-size walk of tree @p pos (any layout). Used for
 * tile sizes without a specialized kernel.
 */
template <bool HM>
float
walkDynamic(const ForestBuffers &fb, int64_t pos, const float *row)
{
    int64_t base = fb.treeFirstTile[static_cast<size_t>(pos)];
    if (fb.layout != LayoutKind::kArray) {
        // Sparse and packed share the child-base chaining scheme.
        int64_t tile = base;
        while (true) {
            int32_t child = evalTileDynamic(fb, tile, row, HM);
            int32_t child_base = fb.tileFields(tile).childBase;
            if (child_base < 0)
                return fb.leaves[static_cast<size_t>(-(child_base + 1) +
                                                     child)];
            tile = child_base + child;
        }
    }
    int64_t arity = fb.tileSize + 1;
    int64_t local = 0;
    while (true) {
        int64_t tile = base + local;
        if (fb.shapeIds[static_cast<size_t>(tile)] ==
            lir::kLeafTileMarker) {
            return fb.thresholds[static_cast<size_t>(tile) *
                                 fb.tileSize];
        }
        int32_t child = evalTileDynamic(fb, tile, row, HM);
        local = arity * local + child + 1;
    }
}

template <bool HM>
void
runRangeDynamic(const ExecutablePlan &plan, const float *rows,
                const int32_t *qrows, int64_t begin, int64_t end,
                float *predictions)
{
    // The dynamic walker quantizes per compare inside evalTileDynamic
    // (same quantizer, still bit-exact), so a resident image brings it
    // nothing.
    (void)qrows;
    const ForestBuffers &fb = plan.buffers();
    int32_t nf = fb.numFeatures;
    int32_t classes = fb.numClasses;
    std::vector<float> margins(static_cast<size_t>(classes));
    for (int64_t r = begin; r < end; ++r) {
        const float *row = rows + r * nf;
        std::fill(margins.begin(), margins.end(), fb.baseScore);
        for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
            margins[static_cast<size_t>(
                fb.treeClass[static_cast<size_t>(pos)])] +=
                walkDynamic<HM>(fb, pos, row);
        }
        finishRow(plan.view(), margins.data(), predictions + r * classes);
    }
}

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
const int32_t *
quantizeRowsScratch(const ForestView &view, const float *rows,
                    int64_t begin, int64_t end)
{
    static thread_local std::vector<int32_t> scratch;
    size_t needed =
        static_cast<size_t>(end - begin) * view.numFeatures;
    if (scratch.size() < needed)
        scratch.resize(needed);
    quantizeRows(view, rows + begin * view.numFeatures, end - begin,
                 scratch.data());
    gBatchQuantizePasses.fetch_add(1, std::memory_order_relaxed);
    gBatchQuantizeRows.fetch_add(end - begin, std::memory_order_relaxed);
    return scratch.data();
}

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

template <int NT, bool HM>
ExecutablePlan::RangeRunner
selectByLayout(LayoutKind layout, bool row_parallel, int32_t factor)
{
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

template <bool HM>
ExecutablePlan::RangeRunner
selectByTileSize(const ForestBuffers &fb, bool row_parallel,
                 int32_t factor)
{
    switch (fb.tileSize) {
      case 1: return selectByLayout<1, HM>(fb.layout, row_parallel, factor);
      case 2: return selectByLayout<2, HM>(fb.layout, row_parallel, factor);
      case 4: return selectByLayout<4, HM>(fb.layout, row_parallel, factor);
      case 8: return selectByLayout<8, HM>(fb.layout, row_parallel, factor);
      default:
        // Other tile sizes run through the dynamic path.
        return &runRangeDynamic<HM>;
    }
}

} // namespace

ExecutablePlan::ExecutablePlan(lir::ForestBuffers buffers,
                               mir::MirFunction mir,
                               std::vector<hir::TreeGroup> groups)
    : buffers_(std::move(buffers)), mir_(std::move(mir)),
      groups_(std::move(groups))
{
    fatalIf(groups_.empty(), "plan needs at least one tree group");
    const hir::Schedule &schedule = mir_.schedule;
    view_ = makeForestView(buffers_, schedule, &dlWide_);
    walkGroups_ = walkGroupTable(groups_);
    rowLoop_ = {walkGroups_.data(), static_cast<int32_t>(walkGroups_.size()),
                schedule.loopOrder == hir::LoopOrder::kOneTreeAtATime,
                schedule.pipelinePackedWalks};
    bool row_parallel =
        schedule.traversal == hir::TraversalKind::kRowParallel;
    runner_ = handleMissingValues(buffers_, schedule)
                  ? selectByTileSize<true>(buffers_, row_parallel,
                                           schedule.interleaveFactor)
                  : selectByTileSize<false>(buffers_, row_parallel,
                                            schedule.interleaveFactor);
    if (schedule.numThreads > 1) {
        pool_ = std::make_unique<ThreadPool>(
            static_cast<unsigned>(schedule.numThreads));
    }
}

void
ExecutablePlan::dispatchRows(const float *rows, const int32_t *qrows,
                             int64_t num_rows, float *predictions) const
{
    if (num_rows <= 0)
        return;
    if (!pool_) {
        runner_(*this, rows, qrows, 0, num_rows, predictions);
        return;
    }
    int64_t chunk_rows = mir_.schedule.rowChunkRows;
    if (chunk_rows > 0) {
        // Align chunk boundaries to the scheduled chunk size; each
        // worker still receives one contiguous span of chunks.
        int64_t num_chunks = ceilDiv(num_rows, chunk_rows);
        pool_->parallelFor(
            0, num_chunks, [&](int64_t chunk_begin, int64_t chunk_end) {
                runner_(*this, rows, qrows, chunk_begin * chunk_rows,
                        std::min(chunk_end * chunk_rows, num_rows),
                        predictions);
            });
        return;
    }
    pool_->parallelFor(0, num_rows, [&](int64_t begin, int64_t end) {
        runner_(*this, rows, qrows, begin, end, predictions);
    });
}

void
ExecutablePlan::run(const float *rows, int64_t num_rows,
                    float *predictions) const
{
    dispatchRows(rows, nullptr, num_rows, predictions);
}

void
ExecutablePlan::runResident(const float *rows, const int32_t *qrows,
                            int64_t num_rows, float *predictions) const
{
    dispatchRows(rows, qrows, num_rows, predictions);
}

void
ExecutablePlan::runInstrumented(const float *rows, int64_t num_rows,
                                float *predictions,
                                WalkCounters *counters) const
{
    const ForestBuffers &fb = buffers_;
    int32_t nf = fb.numFeatures;
    int32_t nt = fb.tileSize;
    // Bytes touched per tile evaluation: thresholds + feature indices
    // + shape id (+ child base in the sparse layout). Packed records
    // touch their full fixed stride.
    int64_t tile_bytes =
        lir::isPackedKind(fb.layout)
            ? fb.packedStride
            : nt * 8 + 2 +
                  (fb.layout == LayoutKind::kSparse ? 4 : 0);

    int32_t classes = fb.numClasses;
    std::vector<float> margins(static_cast<size_t>(classes));
    for (int64_t r = 0; r < num_rows; ++r) {
        const float *row = rows + r * nf;
        std::fill(margins.begin(), margins.end(), fb.baseScore);
        for (int64_t pos = 0; pos < fb.numTrees; ++pos) {
            float &margin = margins[static_cast<size_t>(
                fb.treeClass[static_cast<size_t>(pos)])];
            const TreeGroup *group = nullptr;
            for (const TreeGroup &g : groups_) {
                if (pos >= g.beginPos && pos < g.endPos) {
                    group = &g;
                    break;
                }
            }
            panicIf(group == nullptr, "position not covered by a group");

            int64_t tile = fb.treeFirstTile[static_cast<size_t>(pos)];
            int64_t arity = nt + 1;
            int64_t local = 0;
            // Sparse and packed layouts chain through child bases; the
            // array layout indexes children arithmetically.
            bool chained = fb.layout != LayoutKind::kArray;
            int32_t steps = 0;
            while (true) {
                int64_t current = chained ? tile : tile + local;
                lir::ForestBuffers::TileFields fields =
                    fb.tileFields(current);
                if (!chained && fields.shapeId == lir::kLeafTileMarker) {
                    margin += fields.thresholds[0];
                    break;
                }

                // Count the in-tile path length: the node predicates a
                // plain binary walk would have evaluated here.
                int16_t shape = fields.shapeId;
                const lir::TileShape &ts = fb.shapes->shape(shape);
                // Dummy padding/hop tiles hold no real model nodes;
                // they do not contribute to the scalar-walk cost.
                // Quantized records mark them with the int16 sentinel.
                bool quantized =
                    fb.layout == LayoutKind::kPackedQuantized;
                bool is_dummy =
                    quantized
                        ? fields.qthresholds[0] == lir::kQuantizedNaN
                        : std::isinf(fields.thresholds[0]);
                uint32_t default_left = fields.defaultLeft;
                int32_t slot = 0;
                int32_t child = -1;
                while (true) {
                    if (!is_dummy)
                        counters->scalarNodesNeeded += 1;
                    int32_t feature = fields.feature(slot);
                    float value = row[feature];
                    bool go_left;
                    if (quantized) {
                        int32_t qv = fb.quantization.quantizeValue(
                            value, feature);
                        go_left =
                            qv == static_cast<int32_t>(
                                      lir::kQuantizedNaN)
                                ? ((default_left >> slot) & 1u) != 0
                                : qv < static_cast<int32_t>(
                                           fields.qthresholds[slot]);
                    } else {
                        go_left =
                            std::isnan(value)
                                ? ((default_left >> slot) & 1u) != 0
                                : value < fields.thresholds[slot];
                    }
                    int32_t next =
                        go_left ? ts.left[static_cast<size_t>(slot)]
                                : ts.right[static_cast<size_t>(slot)];
                    if (next < 0) {
                        child = fb.shapes->exitOrdinal(shape, slot,
                                                       go_left ? 0 : 1);
                        break;
                    }
                    slot = next;
                }

                counters->tilesVisited += 1;
                counters->nodePredicatesEvaluated += nt;
                counters->featureGathers += nt;
                counters->modelBytesTouched += tile_bytes;
                // Unrolled walks execute no data-dependent branches;
                // generic walks test for termination once per tile.
                if (!group->unrolledWalk &&
                    steps >= (group->peelDepth > 0 ? group->peelDepth
                                                   : 0)) {
                    counters->walkBranches += 1;
                }
                ++steps;

                if (chained) {
                    int32_t base = fields.childBase;
                    if (base < 0) {
                        margin += fb.leaves[static_cast<size_t>(
                            -(base + 1) + child)];
                        break;
                    }
                    tile = base + child;
                } else {
                    local = arity * local + child + 1;
                }
            }
        }
        finishRow(view_, margins.data(), predictions + r * classes);
    }
}

} // namespace treebeard::runtime
