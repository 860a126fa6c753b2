// Numeric-outlier detection via perturbation LR (Section 3.1).

#pragma once

#include "detect/detector.h"
#include "learn/model_stack.h"

namespace unidetect {

/// \brief Flags the most outlying numeric value of a column when removing
/// it makes the column's max-MAD drop surprisingly (small LR).
class OutlierDetector : public Detector {
 public:
  /// `model` must outlive the detector. Only findings with
  /// LR < min(alpha, 1) are kept, and columns where no LR that low is
  /// reachable skip theta1 and theta2 (OutlierGateCanPass).
  OutlierDetector(const ModelStack* model, double alpha)
      : model_(model), alpha_(alpha) {}

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const ModelStack* model_;
  double alpha_;
};

}  // namespace unidetect
