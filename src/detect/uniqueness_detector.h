// Uniqueness-violation detection via perturbation LR over UR (Section 3.3).

#pragma once

#include "detect/detector.h"
#include "learn/model_stack.h"

namespace unidetect {

class DetectorRegistry;

/// \brief Flags duplicate values in columns that the corpus evidence says
/// are intended to be unique (ID-like subsets: mixed-alphanumeric type,
/// rare tokens, leftmost position).
class UniquenessDetector : public Detector {
 public:
  /// `model` must outlive the detector.
  explicit UniquenessDetector(const ModelStack* model) : model_(model) {}

  ErrorClass error_class() const override { return ErrorClass::kUniqueness; }

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const ModelStack* model_;
};

/// \brief Registers the uniqueness detector (enabled by default).
void RegisterUniquenessDetector(DetectorRegistry* registry);

}  // namespace unidetect
