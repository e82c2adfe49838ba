#include "model/forest.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace treebeard::model {

const char *
objectiveName(Objective objective)
{
    switch (objective) {
      case Objective::kRegression: return "regression";
      case Objective::kBinaryLogistic: return "binary_logistic";
      case Objective::kMulticlassSoftmax: return "multiclass_softmax";
    }
    panic("unknown objective");
}

Objective
objectiveFromName(const std::string &name)
{
    if (name == "regression")
        return Objective::kRegression;
    if (name == "binary_logistic")
        return Objective::kBinaryLogistic;
    if (name == "multiclass_softmax")
        return Objective::kMulticlassSoftmax;
    fatal("unknown objective '", name, "'");
}

float
applyObjective(Objective objective, float margin)
{
    switch (objective) {
      case Objective::kRegression:
        return margin;
      case Objective::kBinaryLogistic:
        return sigmoid(margin);
      case Objective::kMulticlassSoftmax:
        panic("multiclass margins need softmaxInPlace, not "
              "applyObjective");
    }
    panic("unknown objective");
}

const DecisionTree &
Forest::tree(int64_t index) const
{
    panicIf(index < 0 || index >= numTrees(), "tree index out of range");
    return trees_[static_cast<size_t>(index)];
}

DecisionTree &
Forest::mutableTree(int64_t index)
{
    panicIf(index < 0 || index >= numTrees(), "tree index out of range");
    return trees_[static_cast<size_t>(index)];
}

int64_t
Forest::addTree(DecisionTree tree)
{
    trees_.push_back(std::move(tree));
    return numTrees() - 1;
}

int64_t
Forest::totalNodes() const
{
    int64_t count = 0;
    for (const DecisionTree &tree : trees_)
        count += tree.numNodes();
    return count;
}

int64_t
Forest::totalLeaves() const
{
    int64_t count = 0;
    for (const DecisionTree &tree : trees_)
        count += tree.numLeaves();
    return count;
}

int32_t
Forest::maxDepth() const
{
    int32_t depth = 0;
    for (const DecisionTree &tree : trees_)
        depth = std::max(depth, tree.maxDepth());
    return depth;
}

float
Forest::predictMargin(const float *row) const
{
    float sum = baseScore_;
    for (const DecisionTree &tree : trees_)
        sum += tree.predict(row);
    return sum;
}

float
Forest::predict(const float *row) const
{
    return applyObjective(objective_, predictMargin(row));
}

void
Forest::setNumClasses(int32_t value)
{
    fatalIf(value < 1, "numClasses must be at least 1");
    numClasses_ = value;
}

void
Forest::predictMulticlass(const float *row, float *out) const
{
    for (int32_t k = 0; k < numClasses_; ++k)
        out[k] = baseScore_;
    for (int64_t t = 0; t < numTrees(); ++t)
        out[treeClass(t)] += trees_[static_cast<size_t>(t)].predict(row);
    if (objective_ == Objective::kMulticlassSoftmax)
        softmaxInPlace(out, numClasses_);
}

void
Forest::predictBatch(const float *rows, int64_t num_rows,
                     float *predictions) const
{
    if (numClasses_ > 1) {
        for (int64_t i = 0; i < num_rows; ++i) {
            predictMulticlass(rows + i * numFeatures_,
                              predictions + i * numClasses_);
        }
        return;
    }
    for (int64_t i = 0; i < num_rows; ++i)
        predictions[i] = predict(rows + i * numFeatures_);
}

void
Forest::validate() const
{
    fatalIf(numFeatures_ <= 0, "forest has no features");
    fatalIf(trees_.empty(), "forest has no trees");
    fatalIf(numClasses_ > 1 &&
                objective_ != Objective::kMulticlassSoftmax,
            "multi-class forests require the multiclass_softmax "
            "objective");
    fatalIf(objective_ == Objective::kMulticlassSoftmax &&
                numClasses_ < 2,
            "the multiclass_softmax objective needs numClasses >= 2");
    for (int64_t i = 0; i < numTrees(); ++i) {
        try {
            trees_[static_cast<size_t>(i)].validate(numFeatures_);
        } catch (const Error &error) {
            fatal("tree ", i, ": ", error.what());
        }
    }
}

} // namespace treebeard::model
