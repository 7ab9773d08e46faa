// Compiled form of the fitted random forest for the serving hot path.
//
// RandomForest::predict walks each tree's private node vector through a
// virtual-free but pointer-heavy loop and tallies votes into a heap-allocated
// vector per call. That is fine offline (`vlacnn-figures rf_accuracy`) but not
// in a dispatcher consulted per request per layer. FlatForest lowers a fitted
// forest once into one contiguous node array (all trees concatenated,
// child links rebased to absolute indices) and predicts with a stack vote
// array — no allocation, no per-tree indirection, nanoseconds per call
// (bench_dispatch_overhead measures it against the pointer-walk baseline).
//
// Lowering is also where tree integrity is enforced: every leaf label must
// lie in [0, num_labels) and every link must stay inside its own tree, so a
// corrupt tree fails loudly at compile time instead of voting out of bounds
// at dispatch time. Prediction ties resolve to the lowest label, matching
// RandomForest::predict exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/random_forest.h"

namespace vlacnn::dispatch {

class FlatForest {
 public:
  /// Vote tally lives on the stack, which bounds the label space; 16 covers
  /// kAllAlgos (4) with room for any future algorithm registry.
  static constexpr int kMaxLabels = 16;

  /// Lower `forest` (which must be fitted). `num_labels` is the size of the
  /// label space (Dataset::num_classes()); throws std::invalid_argument on an
  /// unfitted forest, num_labels outside [1, kMaxLabels], or any tree whose
  /// labels/links fail validation.
  FlatForest(const RandomForest& forest, int num_labels);

  /// Majority vote over all trees; ties resolve to the lowest label. `x` must
  /// have exactly num_features() elements (throws std::invalid_argument).
  int predict(const float* x, std::size_t n) const;
  int predict(const std::vector<float>& x) const {
    return predict(x.data(), x.size());
  }

  std::size_t tree_count() const { return roots_.size(); }
  std::size_t node_count() const { return nodes_.size(); }
  int num_labels() const { return num_labels_; }
  std::size_t num_features() const { return num_features_; }

 private:
  /// One lowered node. Interior: feature >= 0, children are absolute indices
  /// into nodes_. Leaf: feature == -1, left holds the label, right unused.
  struct Node {
    std::int32_t feature;
    float threshold;
    std::int32_t left;
    std::int32_t right;
  };

  std::vector<Node> nodes_;         ///< all trees, concatenated
  std::vector<std::int32_t> roots_; ///< root node index per tree
  int num_labels_ = 0;
  std::size_t num_features_ = 0;
};

}  // namespace vlacnn::dispatch
