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
  /// `model` must outlive the detector.
  explicit UniquenessDetector(const ModelStack* model) : model_(model) {}

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const ModelStack* model_;
};

}  // namespace unidetect
