#include "runtime/plan.h"

#include <atomic>
#include <cmath>
#include <vector>

#include "common/bits.h"
#include "runtime/plan_kernels.h"

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

const int32_t *
detail::quantizeRowsScratch(const ForestView &view, const float *rows,
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

namespace {

using hir::TreeGroup;
using lir::ForestBuffers;
using lir::LayoutKind;

/**
 * The range runner for @p fb's tile size. Tile sizes 1-4 are
 * instantiated here, 5-8 in plan_kernels_5_8.cc.
 */
template <bool HM>
ExecutablePlan::RangeRunner
selectByTileSize(const ForestBuffers &fb, bool row_parallel,
                 int32_t factor)
{
    using detail::selectByLayout;
    switch (fb.tileSize) {
      case 1: return selectByLayout<1, HM>(fb.layout, row_parallel, factor);
      case 2: return selectByLayout<2, HM>(fb.layout, row_parallel, factor);
      case 3: return selectByLayout<3, HM>(fb.layout, row_parallel, factor);
      case 4: return selectByLayout<4, HM>(fb.layout, row_parallel, factor);
      default:
        return detail::selectTileSize5To8(fb.tileSize, fb.layout,
                                          row_parallel, factor, HM);
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
                schedule.loopOrder == hir::LoopOrder::kOneTreeAtATime};
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
