/**
 * @file
 * The schedule: the set of attributes decided at the high-level IR
 * that steer all later lowering (Section II: "tree tiling and loop
 * ordering are decided at the highest abstraction ... communicated to
 * the lowering pass"). One Schedule value describes one point of the
 * optimization space of Table II.
 */
#ifndef TREEBEARD_HIR_SCHEDULE_H
#define TREEBEARD_HIR_SCHEDULE_H

#include <cstdint>
#include <string>

#include "hir/tiling.h"

namespace treebeard::analysis {
class DiagnosticEngine;
} // namespace treebeard::analysis

namespace treebeard::hir {

/** Loop-nest order over (tree, input row) pairs (Section III-E). */
enum class LoopOrder {
    /** Walk one tree for all rows before the next tree. */
    kOneTreeAtATime,
    /** Walk all trees for a row before the next row. */
    kOneRowAtATime,
};

const char *loopOrderName(LoopOrder order);

/** In-memory representation of tiled trees (Section V-B). */
enum class MemoryLayout {
    /** Implicit (n_t+1)-ary array; fast for small models, bloats. */
    kArray,
    /** Child pointers + separate leaf array; compact. */
    kSparse,
    /**
     * Cache-line-packed AoS: the sparse topology with each tile's
     * thresholds, int16 feature indices, shape id, child base and
     * default-direction bits fused into one aligned record, so a tile
     * visit touches one cache line instead of ~5. Requires feature
     * indices to fit in int16 (< 32768 features); larger models fall
     * back to the sparse layout.
     */
    kPacked,
};

const char *memoryLayoutName(MemoryLayout layout);

/**
 * Threshold precision of the packed layout's tile records. kI16
 * narrows thresholds to int16 under a per-feature affine scale (and
 * feature indices to uint8), halving the tile-size-8 record to 32
 * bytes — two tiles per cache line — at the cost of a per-model
 * quantization error budget reported by the layout builder. Ignored
 * by the array and sparse layouts. Models with >= 256 features fall
 * back to f32 packed records.
 */
enum class PackedPrecision {
    kF32,
    kI16,
};

const char *packedPrecisionName(PackedPrecision precision);

/**
 * SIMD traversal shape of the lowered walkers (orthogonal to
 * MemoryLayout and PackedPrecision — the buffers are identical under
 * both kinds).
 *
 *  - kNodeParallel vectorizes *within* one tile: an AVX2 gather /
 *    compare over the tile's 4-8 slots decides one row's step.
 *  - kRowParallel vectorizes *across* rows: 8 rows walk one tree in
 *    lockstep, one __m256 lane per row, with per-step feature gathers
 *    from the row block, compare-mask blends selecting each lane's
 *    child and a done-mask retiring lanes that reached a leaf. This is
 *    the FIL-style shape; it wins on shallow/wide forests at large
 *    batch sizes, where the amortized tile fetch dominates.
 *
 * Row-parallel traversal forces a tree-major execution order
 * internally (a lane group walks one tree at a time), so loopOrder is
 * ignored under kRowParallel. Predictions are bit-identical between
 * the two kinds on both backends: per-row accumulation still sums the
 * same leaf values in the same tree order.
 */
enum class TraversalKind {
    kNodeParallel,
    kRowParallel,
};

const char *traversalKindName(TraversalKind traversal);

/**
 * Maximum supported tile size. Kept in sync with
 * lir::kMaxTileSize (asserted by the LIR); the limit exists because
 * comparison outcomes are packed into one byte per tile.
 */
constexpr int32_t kMaxScheduleTileSize = 8;

/**
 * Exclusive-inclusive upper bound on Schedule::rowChunkRows. Chunks
 * above 4M rows cannot load-balance anything (they exceed any batch
 * this runtime targets) and are always a typo'd CLI/JSON value, so
 * schedule verification rejects them up front instead of letting the
 * runtime silently run single-chunk.
 */
constexpr int32_t kMaxRowChunkRows = 1 << 22;

/**
 * All compilation knobs. Defaults correspond to the configuration the
 * paper reports as broadly best on Intel (tile size 8, sparse layout,
 * interleave 8, padding + unrolling enabled, hybrid tiling).
 */
struct Schedule
{
    LoopOrder loopOrder = LoopOrder::kOneTreeAtATime;
    int32_t tileSize = 8;
    TilingAlgorithm tiling = TilingAlgorithm::kHybrid;
    /** Leaf-bias gate parameters for hybrid tiling. */
    double alpha = 0.075;
    double beta = 0.9;
    /**
     * Pad (almost balanced) tiled trees with dummy tiles and fully
     * unroll their walks (Sections III-F, IV-B).
     */
    bool padAndUnrollWalks = true;
    /**
     * Peel the first minLeafDepth steps of generic walks so they run
     * without termination checks (Section IV-B).
     */
    bool peelWalks = true;
    /**
     * Maximum depth imbalance (maxLeafDepth - minLeafDepth) a tiled
     * tree may have and still be padded for unrolling.
     */
    int32_t padDepthSlack = 2;
    /** Unroll-and-jam factor for tree walk interleaving (1 = off). */
    int32_t interleaveFactor = 1;
    MemoryLayout layout = MemoryLayout::kSparse;
    /** Packed-layout threshold precision (see PackedPrecision). */
    PackedPrecision packedPrecision = PackedPrecision::kF32;
    /** SIMD traversal shape (see TraversalKind). */
    TraversalKind traversal = TraversalKind::kNodeParallel;
    /** Worker threads for the parallelized row loop (1 = serial). */
    int32_t numThreads = 1;
    /**
     * Rows per chunk of the parallel row loop (both backends; the
     * source backend bakes the value into the emitted translation
     * unit's worker loop). 0 picks one contiguous chunk per worker,
     * ceil(rows / numThreads) — the paper's row-loop tiling. Positive
     * values force smaller chunks, which load-balances skewed batches
     * at the cost of more scheduling steps. Ignored when numThreads
     * is 1.
     */
    int32_t rowChunkRows = 0;
    /**
     * Promise that input rows never contain NaN. Lets models without
     * per-node default directions use slightly faster kernels that
     * skip missing-value routing (the paper's setting — it does not
     * consider missing values at all). With NaN inputs under this
     * flag, predictions are unspecified; on the f32 layouts a NaN
     * takes the left child at every node, so walks stay in bounds
     * (runtime::goesLeft). Ignored (missing-value handling stays on)
     * when the model carries default directions.
     */
    bool assumeNoMissingValues = false;

    /**
     * Report every out-of-range knob into @p diag ("schedule.*"
     * codes). Never throws.
     */
    void verifyInto(analysis::DiagnosticEngine &diag) const;

    /**
     * Throws a recoverable analysis::VerificationError (a
     * treebeard::Error) listing every out-of-range knob.
     */
    void validate() const;

    /** A compact human-readable description, for logs and tuners. */
    std::string toString() const;
};

/**
 * Schedule (de)serialization, for persisting tuner results and for
 * the CLI. The round trip preserves every knob.
 */
std::string scheduleToJsonString(const Schedule &schedule);
Schedule scheduleFromJsonString(const std::string &text);

} // namespace treebeard::hir

#endif // TREEBEARD_HIR_SCHEDULE_H
