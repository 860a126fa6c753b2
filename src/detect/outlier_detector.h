// Numeric-outlier detection via perturbation LR (Section 3.1).

#pragma once

#include "detect/detector.h"
#include "learn/model_stack.h"

namespace unidetect {

/// \brief Flags the most outlying numeric value of a column when removing
/// it makes the column's max-MAD drop surprisingly (small LR).
class OutlierDetector : public Detector {
 public:
  /// `model` must outlive the detector.
  explicit OutlierDetector(const ModelStack* model) : model_(model) {}

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const ModelStack* model_;
};

}  // namespace unidetect
