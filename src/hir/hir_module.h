/**
 * @file
 * The high-level IR module: the forest plus per-tree tiled views, the
 * execution order of trees, tree groups that share traversal code, and
 * the schedule attributes that steer lowering. HIR passes (tiling,
 * reordering/padding) transform this module in place.
 */
#ifndef TREEBEARD_HIR_HIR_MODULE_H
#define TREEBEARD_HIR_HIR_MODULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "hir/schedule.h"
#include "hir/tiled_tree.h"
#include "model/forest.h"

namespace treebeard::hir {

/**
 * A run of consecutive positions in the tree execution order whose
 * trees share one traversal-code body (Section III-F). For unrolled
 * groups every member is perfectly balanced at walkDepth, so the walk
 * is exactly walkDepth traverseTile steps with no termination checks.
 */
struct TreeGroup
{
    /** Positions [beginPos, endPos) into HirModule::treeOrder(). */
    int64_t beginPos = 0;
    int64_t endPos = 0;
    /** For unrolled groups: the exact walk depth of every member. */
    int32_t walkDepth = 0;
    /** Whether the group's walk is fully unrolled (no leaf checks). */
    bool unrolledWalk = false;
    /** For generic groups: steps peeled to run without leaf checks. */
    int32_t peelDepth = 0;

    int64_t size() const { return endPos - beginPos; }
};

/**
 * The HIR module. Owns a copy of the forest (tiled trees reference its
 * trees, so the module must outlive everything lowered from it).
 */
class HirModule
{
  public:
    /**
     * Create a module for @p forest under @p schedule. The forest is
     * copied; the schedule is validated. Trees start untiled in
     * original order with no groups: run the passes (or
     * runAllHirPasses()) to populate them.
     */
    HirModule(model::Forest forest, Schedule schedule);

    const model::Forest &forest() const { return forest_; }
    const Schedule &schedule() const { return schedule_; }

    bool isTiled() const { return !tiledTrees_.empty(); }
    const TiledTree &tiledTree(int64_t tree_id) const;
    const std::vector<TiledTree> &tiledTrees() const { return tiledTrees_; }

    /** Tiling algorithm actually applied to each tree (hybrid gate). */
    TilingAlgorithm appliedTiling(int64_t tree_id) const;

    /** Execution order: position -> original tree id. */
    const std::vector<int64_t> &treeOrder() const { return treeOrder_; }

    /** Code-sharing groups over positions; covers all positions. */
    const std::vector<TreeGroup> &groups() const { return groups_; }

    /**
     * Bytes the module's HIR state holds: every tiled tree's records
     * and flat arrays plus the order, applied-tiling and group tables.
     * The forest copy is the model, not HIR state, and is excluded.
     * Deterministic, so tests can bound it where RSS would be noise.
     */
    int64_t footprintBytes() const;

    /** Human-readable dump of the module (for tests and debugging). */
    std::string dump() const;

    // Pass entry points (order matters: tiling, then reordering).

    /**
     * Tiling pass: tile every tree per the schedule (Section III-B).
     * Records which algorithm the hybrid gate applied to each tree.
     */
    void runTilingPass();

    /**
     * Reorder pass (Section III-F): pad almost-balanced tiled trees to
     * uniform depth, sort trees so structurally compatible ones are
     * adjacent, and form code-sharing groups. Requires the tiling
     * pass. When the schedule disables padAndUnrollWalks, trees keep
     * their original order and form generic groups by peel depth.
     */
    void runReorderPass();

    /** Run tiling then reordering. */
    void runAllHirPasses();

    /** Validate all tiled trees (invariants of Section III-B1). */
    void validateTiling() const;

  private:
    model::Forest forest_;
    Schedule schedule_;
    std::vector<TiledTree> tiledTrees_;
    std::vector<TilingAlgorithm> appliedTiling_;
    std::vector<int64_t> treeOrder_;
    std::vector<TreeGroup> groups_;
};

} // namespace treebeard::hir

#endif // TREEBEARD_HIR_HIR_MODULE_H
