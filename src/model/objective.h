/**
 * @file
 * The objectives' output transforms, applied to the summed tree
 * outputs. The reference interpreter, the kernel runtime and the code
 * the source JIT compiles all finish rows through these functions, so
 * this header includes only the standard headers it needs.
 */
#ifndef TREEBEARD_MODEL_OBJECTIVE_H
#define TREEBEARD_MODEL_OBJECTIVE_H

#include <cmath>
#include <cstdint>

namespace treebeard::model {

/** Post-aggregation transform applied to the summed tree outputs. */
enum class Objective {
    /** Raw sum of tree outputs plus the base score. */
    kRegression,
    /** Sigmoid of the sum (XGBoost binary:logistic). */
    kBinaryLogistic,
    /**
     * Softmax over per-class margins (XGBoost multi:softprob). Trees
     * are assigned to classes round-robin: tree t contributes to
     * class t % numClasses.
     */
    kMulticlassSoftmax,
};

/** The binary-logistic transform of one margin. */
inline float
sigmoid(float margin)
{
    return 1.0f / (1.0f + std::exp(-margin));
}

/** Numerically stable in-place softmax over @p count margins. */
inline void
softmaxInPlace(float *values, int32_t count)
{
    float max_margin = values[0];
    for (int32_t k = 1; k < count; ++k)
        max_margin = max_margin < values[k] ? values[k] : max_margin;
    float sum = 0.0f;
    for (int32_t k = 0; k < count; ++k) {
        values[k] = std::exp(values[k] - max_margin);
        sum += values[k];
    }
    for (int32_t k = 0; k < count; ++k)
        values[k] /= sum;
}

} // namespace treebeard::model

#endif // TREEBEARD_MODEL_OBJECTIVE_H
