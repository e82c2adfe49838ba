/**
 * @file
 * A single binary decision tree: construction API, reference traversal
 * and structural queries. This is the object the high-level IR wraps;
 * tiling and reordering operate on collections of these.
 */
#ifndef TREEBEARD_MODEL_DECISION_TREE_H
#define TREEBEARD_MODEL_DECISION_TREE_H

#include <cstdint>
#include <vector>

#include "model/node.h"

namespace treebeard::model {

/**
 * A binary decision tree τ = (V, E, r).
 *
 * Nodes live in a contiguous vector and refer to each other by index.
 * The tree is built bottom-up (children before parents) or top-down with
 * explicit child assignment; validate() checks the result is a proper
 * binary tree rooted at root().
 */
class DecisionTree
{
  public:
    DecisionTree() = default;

    /** Append a leaf carrying @p value; returns its index. */
    NodeIndex addLeaf(float value, double hit_count = 0.0);

    /**
     * Append an internal node splitting on @p feature_index at
     * @p threshold with the given children; returns its index.
     */
    NodeIndex addInternal(int32_t feature_index, float threshold,
                          NodeIndex left, NodeIndex right,
                          double hit_count = 0.0);

    /** Set the root node index. */
    void setRoot(NodeIndex root);

    NodeIndex root() const { return root_; }
    int64_t numNodes() const { return static_cast<int64_t>(nodes_.size()); }
    bool empty() const { return nodes_.empty(); }

    const Node &node(NodeIndex index) const;
    Node &mutableNode(NodeIndex index);
    const std::vector<Node> &nodes() const { return nodes_; }

    /** Indices of all leaves, in node-vector order. */
    std::vector<NodeIndex> leafIndices() const;
    int64_t numLeaves() const;

    /** Depth of @p index below the root (root depth is 0). */
    int32_t depth(NodeIndex index) const;

    /** Maximum leaf depth (a single-leaf tree has depth 0). */
    int32_t maxDepth() const;

    /** Parent of each node (kInvalidNode for the root). */
    std::vector<NodeIndex> parentArray() const;

    /**
     * Walk the tree for @p row (dense feature vector) and return the
     * reached leaf's value. This is the reference semantics all compiled
     * variants must match bit-exactly.
     */
    float predict(const float *row) const;

    /** As predict(), but returns the reached leaf's node index. */
    NodeIndex predictLeaf(const float *row) const;

    /**
     * Probability of reaching each leaf, derived from hit counts.
     *
     * Guarantee: when no hit counts were recorded (all hitCount fields
     * are <= 0), the result is the deterministic uniform distribution
     * 1/numLeaves for every leaf — never NaN, never zeros — so
     * downstream consumers (probability tiling, model statistics) can
     * rely on a well-formed distribution without re-checking the
     * statistics.
     *
     * @return pairs are implicit: result[i] corresponds to
     *         leafIndices()[i]; entries sum to 1 for non-empty trees.
     */
    std::vector<double> leafProbabilities() const;

    /**
     * Fill hitCount for internal nodes by summing descendants' leaf
     * hits (footnote 6 in the paper).
     */
    void accumulateInternalHitCounts();

    /**
     * Check structural invariants: root set, all indices in range,
     * internal nodes have exactly two children, every node except the
     * root has exactly one parent, all nodes reachable from the root,
     * feature indices within [0, num_features).
     * fatal() with a diagnostic on the first violation.
     */
    void validate(int32_t num_features) const;

  private:
    std::vector<Node> nodes_;
    NodeIndex root_ = kInvalidNode;
};

} // namespace treebeard::model

#endif // TREEBEARD_MODEL_DECISION_TREE_H
