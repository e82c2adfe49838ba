#include "train/gbdt_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace treebeard::train {

namespace {

/** Gradient/hessian pair accumulated per histogram bin and per node. */
struct GradientStats
{
    double gradient = 0.0;
    double hessian = 0.0;

    void
    add(double g, double h)
    {
        gradient += g;
        hessian += h;
    }

    GradientStats
    operator-(const GradientStats &other) const
    {
        return {gradient - other.gradient, hessian - other.hessian};
    }
};

/** Leaf weight for accumulated statistics with L2 regularization. */
double
leafWeight(const GradientStats &stats, double lambda)
{
    return -stats.gradient / (stats.hessian + lambda);
}

/** Structural gain score of a node's statistics. */
double
scoreOf(const GradientStats &stats, double lambda)
{
    return stats.gradient * stats.gradient / (stats.hessian + lambda);
}

/** Per-feature quantile bin boundaries. */
class FeatureBinner
{
  public:
    FeatureBinner(const data::Dataset &dataset, int32_t num_bins)
    {
        int32_t num_features = dataset.numFeatures();
        int64_t num_rows = dataset.numRows();
        boundaries_.resize(static_cast<size_t>(num_features));

        std::vector<float> column(static_cast<size_t>(num_rows));
        for (int32_t f = 0; f < num_features; ++f) {
            for (int64_t r = 0; r < num_rows; ++r)
                column[static_cast<size_t>(r)] = dataset.row(r)[f];
            std::sort(column.begin(), column.end());

            // Quantile boundaries; duplicates collapse (constant or
            // discrete features end up with fewer bins).
            std::vector<float> &bounds =
                boundaries_[static_cast<size_t>(f)];
            for (int32_t b = 1; b < num_bins; ++b) {
                size_t index = static_cast<size_t>(
                    static_cast<double>(b) * num_rows / num_bins);
                index = std::min(index, static_cast<size_t>(num_rows - 1));
                float boundary = column[index];
                if (bounds.empty() || boundary > bounds.back())
                    bounds.push_back(boundary);
            }
        }

        // Precompute the bin index of every (row, feature) cell.
        binned_.resize(static_cast<size_t>(num_rows) * num_features);
        for (int64_t r = 0; r < num_rows; ++r) {
            const float *row = dataset.row(r);
            for (int32_t f = 0; f < num_features; ++f) {
                binned_[static_cast<size_t>(r) * num_features + f] =
                    binOf(f, row[f]);
            }
        }
        numFeatures_ = num_features;
    }

    /** Bin index of @p value for feature @p f: count of boundaries <= value. */
    int32_t
    binOf(int32_t f, float value) const
    {
        const std::vector<float> &bounds = boundaries_[static_cast<size_t>(f)];
        // Rows with value < boundary go left when splitting at that
        // boundary, matching the `x < threshold` node predicate.
        auto it = std::upper_bound(bounds.begin(), bounds.end(), value);
        return static_cast<int32_t>(it - bounds.begin());
    }

    /** Number of bins for feature @p f. */
    int32_t
    numBins(int32_t f) const
    {
        return static_cast<int32_t>(
                   boundaries_[static_cast<size_t>(f)].size()) + 1;
    }

    /** Split threshold corresponding to "bin <= b goes left". */
    float
    thresholdAfterBin(int32_t f, int32_t b) const
    {
        return boundaries_[static_cast<size_t>(f)][static_cast<size_t>(b)];
    }

    int32_t
    cachedBin(int64_t row, int32_t f) const
    {
        return binned_[static_cast<size_t>(row) * numFeatures_ + f];
    }

  private:
    std::vector<std::vector<float>> boundaries_;
    std::vector<int32_t> binned_;
    int32_t numFeatures_ = 0;
};

/** A node in the tree being grown level by level. */
struct BuildNode
{
    GradientStats stats;
    int32_t depth = 0;
    // Split decision (valid once chosen).
    bool isLeaf = true;
    int32_t splitFeature = -1;
    int32_t splitBin = -1;
    float splitThreshold = 0.0f;
    int32_t leftChild = -1;
    int32_t rightChild = -1;
    double rowCount = 0.0;
};

struct SplitChoice
{
    double gain = -std::numeric_limits<double>::infinity();
    int32_t feature = -1;
    int32_t bin = -1;
    GradientStats left;
    GradientStats right;
};

/**
 * Grow one regression tree on the given gradient/hessian statistics
 * (level-wise histogram splitting). @p node_of_row is scratch storage
 * of num_rows entries. Shared by the single-output and multiclass
 * boosting loops.
 */
model::DecisionTree
growBoostedTree(const TrainingConfig &config, const FeatureBinner &binner,
                const std::vector<double> &gradients,
                const std::vector<double> &hessians, int64_t num_rows,
                int32_t num_features, std::vector<int32_t> &node_of_row)
{
    // Grow one tree level by level.
    std::vector<BuildNode> nodes(1);
    std::fill(node_of_row.begin(), node_of_row.end(), 0);
    for (int64_t r = 0; r < num_rows; ++r) {
        nodes[0].stats.add(gradients[static_cast<size_t>(r)],
                           hessians[static_cast<size_t>(r)]);
        nodes[0].rowCount += 1.0;
    }

    std::vector<int32_t> frontier{0};
    for (int32_t depth = 0;
         depth < config.maxDepth && !frontier.empty(); ++depth) {
        // Histograms for every frontier node x feature x bin.
        // Flat layout: frontier-slot major, then feature, then bin.
        std::vector<int32_t> slot_of_node(nodes.size(), -1);
        for (size_t slot = 0; slot < frontier.size(); ++slot)
            slot_of_node[static_cast<size_t>(frontier[slot])] =
                static_cast<int32_t>(slot);

        std::vector<int32_t> feature_offsets(
            static_cast<size_t>(num_features) + 1, 0);
        for (int32_t f = 0; f < num_features; ++f) {
            feature_offsets[static_cast<size_t>(f) + 1] =
                feature_offsets[static_cast<size_t>(f)] +
                binner.numBins(f);
        }
        int32_t bins_per_slot =
            feature_offsets[static_cast<size_t>(num_features)];
        std::vector<GradientStats> histograms(
            frontier.size() * static_cast<size_t>(bins_per_slot));

        for (int64_t r = 0; r < num_rows; ++r) {
            int32_t node = node_of_row[static_cast<size_t>(r)];
            int32_t slot = slot_of_node[static_cast<size_t>(node)];
            if (slot < 0)
                continue;
            GradientStats *slot_hist =
                histograms.data() +
                static_cast<size_t>(slot) * bins_per_slot;
            double g = gradients[static_cast<size_t>(r)];
            double h = hessians[static_cast<size_t>(r)];
            for (int32_t f = 0; f < num_features; ++f) {
                int32_t bin = binner.cachedBin(r, f);
                slot_hist[feature_offsets[static_cast<size_t>(f)] + bin]
                    .add(g, h);
            }
        }

        // Choose the best split for each frontier node.
        std::vector<int32_t> next_frontier;
        for (size_t slot = 0; slot < frontier.size(); ++slot) {
            int32_t node_index = frontier[slot];
            BuildNode &node = nodes[static_cast<size_t>(node_index)];
            const GradientStats *slot_hist =
                histograms.data() + slot * bins_per_slot;

            SplitChoice best;
            double parent_score = scoreOf(node.stats, config.lambda);
            for (int32_t f = 0; f < num_features; ++f) {
                GradientStats left;
                int32_t bins = binner.numBins(f);
                for (int32_t b = 0; b + 1 < bins; ++b) {
                    left.add(
                        slot_hist[feature_offsets[static_cast<size_t>(f)]
                                  + b].gradient,
                        slot_hist[feature_offsets[static_cast<size_t>(f)]
                                  + b].hessian);
                    GradientStats right = node.stats - left;
                    if (left.hessian < config.minChildWeight ||
                        right.hessian < config.minChildWeight) {
                        continue;
                    }
                    double gain = scoreOf(left, config.lambda) +
                                  scoreOf(right, config.lambda) -
                                  parent_score;
                    if (gain > best.gain) {
                        best.gain = gain;
                        best.feature = f;
                        best.bin = b;
                        best.left = left;
                        best.right = right;
                    }
                }
            }

            if (best.feature < 0 || best.gain <= config.minSplitGain)
                continue; // stays a leaf

            node.isLeaf = false;
            node.splitFeature = best.feature;
            node.splitBin = best.bin;
            node.splitThreshold =
                binner.thresholdAfterBin(best.feature, best.bin);
            // The pushes below may reallocate `nodes` and invalidate
            // `node`: read everything needed from it first.
            int32_t left_index = static_cast<int32_t>(nodes.size());
            int32_t right_index = left_index + 1;
            node.leftChild = left_index;
            node.rightChild = right_index;

            BuildNode left_child;
            left_child.stats = best.left;
            left_child.depth = node.depth + 1;
            BuildNode right_child;
            right_child.stats = best.right;
            right_child.depth = node.depth + 1;
            nodes.push_back(left_child);
            nodes.push_back(right_child);
            next_frontier.push_back(left_index);
            next_frontier.push_back(right_index);
        }

        if (next_frontier.empty())
            break;

        // Re-partition rows to their new nodes.
        for (int64_t r = 0; r < num_rows; ++r) {
            int32_t node_index = node_of_row[static_cast<size_t>(r)];
            const BuildNode &node =
                nodes[static_cast<size_t>(node_index)];
            if (node.isLeaf)
                continue;
            int32_t bin = binner.cachedBin(r, node.splitFeature);
            int32_t child = bin <= node.splitBin ? node.leftChild
                                                 : node.rightChild;
            node_of_row[static_cast<size_t>(r)] = child;
            nodes[static_cast<size_t>(child)].rowCount += 1.0;
        }
        frontier = std::move(next_frontier);
    }

    // Materialize the grown tree as a model::DecisionTree
    // (children first, then parents, via reverse iteration).
    model::DecisionTree tree;
    std::vector<model::NodeIndex> materialized(nodes.size());
    for (size_t i = nodes.size(); i-- > 0;) {
        const BuildNode &node = nodes[i];
        if (node.isLeaf) {
            double weight =
                leafWeight(node.stats, config.lambda) *
                config.learningRate;
            materialized[i] = tree.addLeaf(
                static_cast<float>(weight), node.rowCount);
        } else {
            materialized[i] = tree.addInternal(
                node.splitFeature, node.splitThreshold,
                materialized[static_cast<size_t>(node.leftChild)],
                materialized[static_cast<size_t>(node.rightChild)],
                node.rowCount);
        }
    }
    tree.setRoot(materialized[0]);

    return tree;
}

/**
 * Multiclass softmax boosting: each round grows one tree per class on
 * that class's softmax gradients (XGBoost multi:softprob layout: tree
 * t feeds class t % numClasses). Labels must be integer class ids.
 */
model::Forest
trainMulticlassImpl(const TrainingConfig &config,
                    const data::Dataset &dataset,
                    const FeatureBinner &binner,
                    std::vector<TrainingRound> *history)
{
    int32_t classes = config.numClasses;
    fatalIf(classes < 2,
            "multiclass training needs numClasses >= 2 (got ", classes,
            ")");
    int64_t num_rows = dataset.numRows();
    int32_t num_features = dataset.numFeatures();

    std::vector<int32_t> labels(static_cast<size_t>(num_rows));
    for (int64_t r = 0; r < num_rows; ++r) {
        float label = dataset.label(r);
        int32_t class_id = static_cast<int32_t>(label);
        fatalIf(class_id < 0 || class_id >= classes ||
                    static_cast<float>(class_id) != label,
                "row ", r, " label ", label,
                " is not an integer class id in [0, ", classes, ")");
        labels[static_cast<size_t>(r)] = class_id;
    }

    model::Forest forest(num_features,
                         model::Objective::kMulticlassSoftmax, 0.0f);
    forest.setNumClasses(classes);
    history->clear();

    std::vector<double> margins(
        static_cast<size_t>(num_rows) * classes, 0.0);
    std::vector<double> probabilities(
        static_cast<size_t>(num_rows) * classes, 0.0);
    std::vector<double> gradients(static_cast<size_t>(num_rows));
    std::vector<double> hessians(static_cast<size_t>(num_rows));
    std::vector<int32_t> node_of_row(static_cast<size_t>(num_rows));

    for (int64_t round = 0; round < config.numTrees; ++round) {
        // Softmax probabilities and the multiclass log loss.
        double loss = 0.0;
        for (int64_t r = 0; r < num_rows; ++r) {
            double *row_margins =
                margins.data() + static_cast<size_t>(r) * classes;
            double *row_probabilities =
                probabilities.data() + static_cast<size_t>(r) * classes;
            double max_margin = row_margins[0];
            for (int32_t k = 1; k < classes; ++k)
                max_margin = std::max(max_margin, row_margins[k]);
            double sum = 0.0;
            for (int32_t k = 0; k < classes; ++k) {
                row_probabilities[k] =
                    std::exp(row_margins[k] - max_margin);
                sum += row_probabilities[k];
            }
            for (int32_t k = 0; k < classes; ++k)
                row_probabilities[k] /= sum;
            double p_true = std::clamp(
                row_probabilities[labels[static_cast<size_t>(r)]],
                1e-12, 1.0);
            loss -= std::log(p_true);
        }
        history->push_back({round, loss / static_cast<double>(num_rows)});

        // One tree per class on that class's gradients.
        for (int32_t k = 0; k < classes; ++k) {
            for (int64_t r = 0; r < num_rows; ++r) {
                double p = probabilities[static_cast<size_t>(r) *
                                             classes +
                                         k];
                double y =
                    labels[static_cast<size_t>(r)] == k ? 1.0 : 0.0;
                gradients[static_cast<size_t>(r)] = p - y;
                hessians[static_cast<size_t>(r)] =
                    std::max(p * (1.0 - p), 1e-12);
            }
            model::DecisionTree tree = growBoostedTree(
                config, binner, gradients, hessians, num_rows,
                num_features, node_of_row);
            for (int64_t r = 0; r < num_rows; ++r) {
                margins[static_cast<size_t>(r) * classes + k] +=
                    tree.predict(dataset.row(r));
            }
            forest.addTree(std::move(tree));
        }
    }

    forest.validate();
    return forest;
}

} // namespace

GbdtTrainer::GbdtTrainer(TrainingConfig config) : config_(config)
{
    fatalIf(config_.numTrees <= 0, "numTrees must be positive");
    fatalIf(config_.maxDepth <= 0, "maxDepth must be positive");
    fatalIf(config_.numBins < 2, "numBins must be at least 2");
    fatalIf(config_.learningRate <= 0.0, "learningRate must be positive");
}

model::Forest
GbdtTrainer::train(const data::Dataset &dataset)
{
    fatalIf(!dataset.hasLabels(), "training requires labels");
    int64_t num_rows = dataset.numRows();
    int32_t num_features = dataset.numFeatures();
    fatalIf(num_rows == 0, "training requires at least one row");

    FeatureBinner binner(dataset, config_.numBins);

    // Base score: mean label for regression; prior log-odds margin for
    // logistic (applied through the sigmoid at prediction time).
    float base_score = 0.0f;
    {
        double label_sum = 0.0;
        for (int64_t r = 0; r < num_rows; ++r)
            label_sum += dataset.label(r);
        double mean = label_sum / static_cast<double>(num_rows);
        if (config_.objective == model::Objective::kRegression) {
            base_score = static_cast<float>(mean);
        } else {
            double clamped = std::clamp(mean, 1e-6, 1.0 - 1e-6);
            base_score =
                static_cast<float>(std::log(clamped / (1.0 - clamped)));
        }
    }

    if (config_.objective == model::Objective::kMulticlassSoftmax)
        return trainMulticlassImpl(config_, dataset, binner, &history_);

    model::Forest forest(num_features, config_.objective, base_score);
    history_.clear();

    std::vector<double> margins(static_cast<size_t>(num_rows), base_score);
    std::vector<double> gradients(static_cast<size_t>(num_rows));
    std::vector<double> hessians(static_cast<size_t>(num_rows));
    std::vector<int32_t> node_of_row(static_cast<size_t>(num_rows));

    for (int64_t round = 0; round < config_.numTrees; ++round) {
        // Per-row gradient statistics for the current margins.
        double loss = 0.0;
        for (int64_t r = 0; r < num_rows; ++r) {
            double label = dataset.label(r);
            double margin = margins[static_cast<size_t>(r)];
            if (config_.objective == model::Objective::kRegression) {
                double residual = margin - label;
                gradients[static_cast<size_t>(r)] = residual;
                hessians[static_cast<size_t>(r)] = 1.0;
                loss += residual * residual;
            } else {
                double probability = 1.0 / (1.0 + std::exp(-margin));
                gradients[static_cast<size_t>(r)] = probability - label;
                hessians[static_cast<size_t>(r)] =
                    std::max(probability * (1.0 - probability), 1e-12);
                double p = std::clamp(probability, 1e-12, 1.0 - 1e-12);
                loss -= label * std::log(p) + (1.0 - label) * std::log(1 - p);
            }
        }
        loss /= static_cast<double>(num_rows);
        history_.push_back({round, loss});

        model::DecisionTree tree = growBoostedTree(
            config_, binner, gradients, hessians, num_rows,
            num_features, node_of_row);

        // Update margins with the new tree's predictions.
        for (int64_t r = 0; r < num_rows; ++r)
            margins[static_cast<size_t>(r)] += tree.predict(dataset.row(r));

        forest.addTree(std::move(tree));
    }

    forest.validate();
    return forest;
}

double
meanSquaredError(const std::vector<float> &predictions,
                 const std::vector<float> &labels)
{
    fatalIf(predictions.size() != labels.size(),
            "prediction/label size mismatch");
    fatalIf(predictions.empty(), "empty prediction vector");
    double sum = 0.0;
    for (size_t i = 0; i < predictions.size(); ++i) {
        double diff = predictions[i] - labels[i];
        sum += diff * diff;
    }
    return sum / static_cast<double>(predictions.size());
}

double
logLoss(const std::vector<float> &probabilities,
        const std::vector<float> &labels)
{
    fatalIf(probabilities.size() != labels.size(),
            "probability/label size mismatch");
    fatalIf(probabilities.empty(), "empty probability vector");
    double sum = 0.0;
    for (size_t i = 0; i < probabilities.size(); ++i) {
        double p = std::clamp(static_cast<double>(probabilities[i]),
                              1e-12, 1.0 - 1e-12);
        sum -= labels[i] * std::log(p) +
               (1.0 - labels[i]) * std::log(1.0 - p);
    }
    return sum / static_cast<double>(probabilities.size());
}

} // namespace treebeard::train
