// FD-violation detection via perturbation LR over FR (Section 3.4).

#pragma once

#include <cstddef>

#include "detect/detector.h"
#include "learn/model_stack.h"

namespace unidetect {

class DetectorRegistry;

/// \brief Flags rows that break an FD (lhs -> rhs) which almost holds,
/// when the corpus evidence says such near-FDs are normally exact.
class FdDetector : public Detector {
 public:
  /// `model` must outlive the detector.
  explicit FdDetector(const ModelStack* model, size_t max_pairs_per_table = 30)
      : model_(model), max_pairs_per_table_(max_pairs_per_table) {}

  ErrorClass error_class() const override { return ErrorClass::kFd; }

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const ModelStack* model_;
  size_t max_pairs_per_table_;
};

/// \brief Registers the FD detector (enabled by default); the pair cap
/// comes from UniDetectOptions::max_fd_pairs_per_table.
void RegisterFdDetector(DetectorRegistry* registry);

}  // namespace unidetect
