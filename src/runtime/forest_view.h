/**
 * @file
 * The walkers' view of a compiled forest: raw pointers into the LIR
 * buffers plus the few scalars a row loop needs, and the plain tree
 * group table that drives it. The kernel runtime builds one view per
 * plan; the source JIT passes the same view to the translation unit
 * it compiles, which instantiates the same walker and row-loop
 * templates over it. The view owns nothing, and this header includes
 * only the format headers the walkers share.
 */
#ifndef TREEBEARD_RUNTIME_FOREST_VIEW_H
#define TREEBEARD_RUNTIME_FOREST_VIEW_H

#include <cstdint>

#include "lir/buffer_format.h"
#include "model/objective.h"

namespace treebeard::runtime {

/**
 * A compiled forest as the walkers read it. Pointers a layout does not
 * use are null: the packed layouts read every tile field from
 * `packed`, the SoA layouts never read it.
 */
struct ForestView
{
    /** Per-tile node slots (array and sparse layouts). */
    const float *thresholds;
    const int32_t *featureIndices;
    const int16_t *shapeIds;
    const uint8_t *defaultLeft;
    /** Sparse layout: per-tile child base (see lir::ForestBuffers). */
    const int32_t *childBase;
    /** Sparse and packed layouts: the leaf value pool. */
    const float *leaves;
    /** Packed layouts: the fixed-stride tile records. */
    const unsigned char *packed;
    /**
     * Int32-widened copy of defaultLeft for the row-parallel sparse
     * walker, whose word gathers would read past the end of the byte
     * array; null when the plan routes no missing values there.
     */
    const int32_t *defaultLeftWide;
    /** Shape LUT of this tile size: lut[shape * lutStride + outcome]. */
    const int8_t *lut;
    /** Global tile index of each tree's root, by execution position. */
    const int64_t *treeFirstTile;
    /** Class each tree feeds, by execution position. */
    const int32_t *treeClass;
    /** Quantized packed layout: per-feature affine maps. */
    const float *quantScale;
    const float *quantOffset;
    int32_t lutStride;
    int32_t numFeatures;
    /** Outputs per row: 1, or the class count. */
    int32_t numClasses;
    float baseScore;
    model::Objective objective;
};

/** One HIR tree group: positions [beginPos, endPos) walk alike. */
struct WalkGroup
{
    int64_t beginPos;
    int64_t endPos;
    /** Unrolled groups: the exact walk depth of every member. */
    int32_t walkDepth;
    /** Generic groups: steps that run without leaf checks. */
    int32_t peelDepth;
    bool unrolled;
};

/** The schedule's row-loop shape over a group table. */
struct RowLoop
{
    const WalkGroup *groups;
    int32_t numGroups;
    /** LoopOrder::kOneTreeAtATime; otherwise one row at a time. */
    bool oneTreeAtATime;
};

} // namespace treebeard::runtime

#endif // TREEBEARD_RUNTIME_FOREST_VIEW_H
