/**
 * @file
 * Tiled decision trees: the result of the high-level IR tiling
 * transformation (Section III-B). Tiling groups nodes of a binary tree
 * into tiles of at most n_t nodes, turning it into an (n_t+1)-ary tree
 * of tiles whose predicates can be evaluated speculatively with SIMD.
 */
#ifndef TREEBEARD_HIR_TILED_TREE_H
#define TREEBEARD_HIR_TILED_TREE_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "model/decision_tree.h"

namespace treebeard::hir {

/** Tile id within a TiledTree. */
using TileId = int32_t;
constexpr TileId kNoTile = -1;

/**
 * Read-only view of one tile, returned by value from TiledTree::tile().
 * The spans point into the tree's flat arrays and stay valid until the
 * tree is next modified.
 *
 * Internal tiles hold 1..n_t internal nodes of the base tree, stored in
 * level order *within the tile* (slot 0 is the tile's root). Children
 * (exit edges) are ordered left-to-right, matching the tile-shape LUT's
 * exit ordering — children()[k] is the tile reached when the in-tile
 * walk exits through ordinal k.
 *
 * Leaf tiles hold exactly one base-tree leaf. Dummy tiles are created
 * by padding (Section III-F): a dummy internal tile deterministically
 * routes every walk to children()[0]; a dummy leaf replicates the value
 * of the leaf it pads.
 */
class Tile
{
  public:
    enum class Kind : uint8_t {
        kInternal,
        kLeaf,
        kDummyInternal,
        kDummyLeaf,
    };

    Tile(Kind kind, TileId parent, float leaf_value,
         std::span<const model::NodeIndex> nodes,
         std::span<const TileId> children)
        : kind(kind), parent(parent), leafValue(leaf_value),
          nodes_(nodes), children_(children)
    {}

    Kind kind;
    TileId parent;
    /** Prediction value for kLeaf / kDummyLeaf tiles. */
    float leafValue;

    /** Base-tree nodes, level-order within the tile; empty for dummies. */
    std::span<const model::NodeIndex> nodes() const { return nodes_; }

    /** Child tiles in exit (left-to-right) order; empty for leaves. */
    std::span<const TileId> children() const { return children_; }

    bool isLeafKind() const
    {
        return kind == Kind::kLeaf || kind == Kind::kDummyLeaf;
    }

    bool isDummy() const
    {
        return kind == Kind::kDummyInternal || kind == Kind::kDummyLeaf;
    }

    int32_t numNodes() const { return static_cast<int32_t>(nodes_.size()); }

  private:
    std::span<const model::NodeIndex> nodes_;
    std::span<const TileId> children_;
};

/**
 * A tiled view of one decision tree.
 *
 * Tiles live in flat storage: one 20-byte record per tile plus two
 * arrays per tree — base-tree node indices and child tile ids — that
 * the records index by offset, so no tile owns a heap allocation.
 *
 * The base tree must outlive the TiledTree. Construction happens in
 * the tiling pass (see tiling.h); this class provides structural
 * queries, the validity check of Section III-B1, reference traversal
 * semantics, and the padding transformation.
 */
class TiledTree
{
  public:
    /**
     * An empty tiling of @p tree with at most @p tile_size nodes per
     * tile (n_t). The tiling pass appends the tiles; the first one
     * appended is the root tile.
     */
    TiledTree(const model::DecisionTree &tree, int32_t tile_size);

    const model::DecisionTree &baseTree() const { return *tree_; }
    int32_t tileSize() const { return tileSize_; }

    int32_t numTiles() const { return static_cast<int32_t>(tiles_.size()); }

    Tile tile(TileId id) const
    {
        const TileRecord &r = record(id);
        return Tile(r.kind, r.parent, r.leafValue,
                    {nodes_.data() + r.nodeOffset, r.numNodes},
                    {children_.data() + r.childOffset, r.numChildren});
    }

    TileId rootTile() const { return 0; }

    /**
     * Append a tile holding @p nodes with @p num_children child slots,
     * all kNoTile until setChild() fills them. Returns the new id.
     */
    TileId appendTile(Tile::Kind kind, TileId parent, float leaf_value,
                      std::span<const model::NodeIndex> nodes,
                      int32_t num_children);

    /** Point exit ordinal @p ordinal of tile @p id at @p child. */
    void setChild(TileId id, int32_t ordinal, TileId child);

    /** Release growth slack once the tiling pass appended every tile. */
    void shrinkToFit();

    // In-place edits. The passes build tiles with appendTile/setChild
    // and padToDepth; these exist for the verifier's mutation corpus,
    // which corrupts a finished tiling to prove each diagnostic fires.

    void setParent(TileId id, TileId parent);
    void setLeafValue(TileId id, float value);
    /** Overwrite base node @p slot of tile @p id. */
    void setNode(TileId id, int32_t slot, model::NodeIndex node);
    /** Drop the last base node of tile @p id (its children stay). */
    void popNode(TileId id);

    /** Depth of @p id in the tile tree (root tile depth is 0). */
    int32_t tileDepth(TileId id) const;

    /** {minimum, maximum} real-leaf depth from one tileDepths() pass. */
    std::pair<int32_t, int32_t> leafDepthRange() const;

    /** Maximum leaf-tile depth. */
    int32_t maxLeafDepth() const { return leafDepthRange().second; }

    /** Minimum leaf-tile depth. */
    int32_t minLeafDepth() const { return leafDepthRange().first; }

    /** True when every leaf tile sits at the same depth. */
    bool isPerfectlyBalanced() const
    {
        auto [min_depth, max_depth] = leafDepthRange();
        return min_depth == max_depth;
    }

    /**
     * In-tile child links of an internal tile, in slot space:
     * left[i]/right[i] is the slot of node i's child inside the tile or
     * lir::kExit style -1 when the edge exits the tile. Dummy internal
     * tiles report a left-leaning chain over tileSize() slots.
     */
    void tileSlotLinks(TileId id, std::vector<int32_t> &left,
                       std::vector<int32_t> &right) const;

    /**
     * Reference traversal: walk the tiled tree for @p row and return
     * the reached leaf value. Must agree exactly with the base tree's
     * predict() (proved by the test suite for all tilings).
     */
    float predict(const float *row) const;

    /** As predict() but also reports the number of tiles visited. */
    float predictCountingTiles(const float *row, int64_t *tiles_visited)
        const;

    /**
     * Expected number of tile evaluations per walk,
     * sum_l p_l * depth(l), the objective probability-based tiling
     * minimizes (Section III-C). Uses base-tree leaf probabilities;
     * dummy leaves contribute their padded real leaf's probability.
     */
    double expectedDepth() const;

    /**
     * Pad the tree with dummy tiles so all leaf tiles sit at depth
     * @p target_depth (>= current maxLeafDepth()). After padding,
     * isPerfectlyBalanced() holds and every root-to-leaf walk performs
     * exactly target_depth tile evaluations. The flat arrays grow once,
     * by exactly the tiles and child slots the padding appends.
     */
    void padToDepth(int32_t target_depth);

    /**
     * Validate the tiling constraints of Section III-B1 (partitioning,
     * connectedness, leaf separation, maximal tiling) plus internal
     * structural invariants (exit ordering, parent links). fatal() on
     * the first violation. Dummy tiles are exempt from the
     * partitioning check (they contain no base nodes).
     */
    void validate() const;

    /**
     * A structure signature: two tilings with equal signatures have
     * isomorphic tile trees (same arity everywhere) and can share
     * traversal code after reordering (Section III-F).
     */
    std::vector<int32_t> structureSignature() const;

    /** Bytes held by the tile records and the two flat arrays. */
    int64_t footprintBytes() const;

  private:
    /** One tile's storage: its spans are offsets into the flat arrays. */
    struct TileRecord
    {
        Tile::Kind kind;
        uint8_t numNodes;
        uint8_t numChildren;
        TileId parent;
        float leafValue;
        int32_t nodeOffset;
        int32_t childOffset;
    };

    const TileRecord &record(TileId id) const
    {
        panicIf(id < 0 || id >= numTiles(), "tile id out of range");
        return tiles_[static_cast<size_t>(id)];
    }

    TileRecord &record(TileId id)
    {
        panicIf(id < 0 || id >= numTiles(), "tile id out of range");
        return tiles_[static_cast<size_t>(id)];
    }

    /**
     * Depth of every tile from one top-down pass over the child links;
     * -1 for tiles the root does not reach.
     */
    std::vector<int32_t> tileDepths() const;

    /** Walk one internal tile; returns the exit ordinal taken. */
    int32_t walkTile(TileId id, const float *row) const;

    const model::DecisionTree *tree_;
    int32_t tileSize_;
    std::vector<TileRecord> tiles_;
    std::vector<model::NodeIndex> nodes_;
    std::vector<TileId> children_;
};

} // namespace treebeard::hir

#endif // TREEBEARD_HIR_TILED_TREE_H
