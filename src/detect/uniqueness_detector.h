// Uniqueness-violation detection via perturbation LR over UR (Section 3.3).

#pragma once

#include "detect/detector.h"
#include "learn/model_stack.h"

namespace unidetect {

/// \brief Flags duplicate values in columns that the corpus evidence says
/// are intended to be unique (ID-like subsets: mixed-alphanumeric type,
/// rare tokens, leftmost position).
class UniquenessDetector : public Detector {
 public:
  /// `model` must outlive the detector. Only findings with
  /// LR < min(alpha, 1) are kept, and Prev(C) is computed only where a
  /// prevalence bucket's key can score that low (UniquenessKeyCanPass).
  UniquenessDetector(const ModelStack* model, double alpha)
      : model_(model), alpha_(alpha) {}

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const ModelStack* model_;
  double alpha_;
};

}  // namespace unidetect
