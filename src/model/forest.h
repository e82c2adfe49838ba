/**
 * @file
 * A decision-tree ensemble ("forest"): the object Treebeard compiles.
 * The forest's predict() is the reference semantics of the generated
 * predictForest function.
 */
#ifndef TREEBEARD_MODEL_FOREST_H
#define TREEBEARD_MODEL_FOREST_H

#include <cstdint>
#include <string>
#include <vector>

#include "model/decision_tree.h"
#include "model/objective.h"

namespace treebeard::model {

/** Parse/print helpers for Objective. */
const char *objectiveName(Objective objective);
Objective objectiveFromName(const std::string &name);

/** Apply @p objective 's output transform to a raw margin. */
float applyObjective(Objective objective, float margin);

/**
 * A gradient-boosted / random-forest style ensemble.
 *
 * Prediction for a row is
 *   transform(baseScore + sum_t tree_t(row))
 * where transform is determined by the objective.
 */
class Forest
{
  public:
    Forest() = default;
    Forest(int32_t num_features, Objective objective = Objective::kRegression,
           float base_score = 0.0f)
        : numFeatures_(num_features), objective_(objective),
          baseScore_(base_score)
    {}

    int32_t numFeatures() const { return numFeatures_; }
    void setNumFeatures(int32_t value) { numFeatures_ = value; }

    Objective objective() const { return objective_; }
    void setObjective(Objective value) { objective_ = value; }

    float baseScore() const { return baseScore_; }
    void setBaseScore(float value) { baseScore_ = value; }

    /** Output classes; 1 for regression/binary models. */
    int32_t numClasses() const { return numClasses_; }
    void setNumClasses(int32_t value);

    /** Class that tree @p tree_index contributes to (round-robin). */
    int32_t
    treeClass(int64_t tree_index) const
    {
        return static_cast<int32_t>(tree_index % numClasses_);
    }

    int64_t numTrees() const { return static_cast<int64_t>(trees_.size()); }
    const DecisionTree &tree(int64_t index) const;
    DecisionTree &mutableTree(int64_t index);
    const std::vector<DecisionTree> &trees() const { return trees_; }

    /** Append a tree (moved in); returns its index. */
    int64_t addTree(DecisionTree tree);

    /** Total node count across all trees. */
    int64_t totalNodes() const;

    /** Total leaf count across all trees. */
    int64_t totalLeaves() const;

    /** Maximum tree depth across the ensemble. */
    int32_t maxDepth() const;

    /** Reference prediction for one dense row of numFeatures() floats. */
    float predict(const float *row) const;

    /** Raw margin (no objective transform) for one row. */
    float predictMargin(const float *row) const;

    /**
     * Reference batch prediction.
     * @param rows row-major batch, num_rows x numFeatures().
     * @param num_rows batch size.
     * @param predictions output array of num_rows * numClasses()
     *        entries (one per row for single-output models, one
     *        probability per class per row for multiclass).
     */
    void predictBatch(const float *rows, int64_t num_rows,
                      float *predictions) const;

    /**
     * Reference multiclass prediction for one row: per-class softmax
     * probabilities into @p out (numClasses() entries).
     */
    void predictMulticlass(const float *row, float *out) const;

    /** Validate every tree against this forest's feature count. */
    void validate() const;

  private:
    std::vector<DecisionTree> trees_;
    int32_t numFeatures_ = 0;
    Objective objective_ = Objective::kRegression;
    float baseScore_ = 0.0f;
    int32_t numClasses_ = 1;
};

} // namespace treebeard::model

#endif // TREEBEARD_MODEL_FOREST_H
