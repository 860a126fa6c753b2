// FD-violation detection via perturbation LR over FR (Section 3.4).

#pragma once

#include <cstddef>

#include "detect/detector.h"
#include "learn/model_stack.h"

namespace unidetect {

/// \brief Flags rows that break an FD (lhs -> rhs) which almost holds,
/// when the corpus evidence says such near-FDs are normally exact.
class FdDetector : public Detector {
 public:
  /// `model` must outlive the detector. Only findings with
  /// LR < min(alpha, 1) are kept, and Prev(rhs) is computed only where a
  /// prevalence bucket's key can score that low (FdKeyCanPass).
  FdDetector(const ModelStack* model, double alpha,
             size_t max_pairs_per_table)
      : model_(model),
        alpha_(alpha),
        max_pairs_per_table_(max_pairs_per_table) {}

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const ModelStack* model_;
  double alpha_;
  size_t max_pairs_per_table_;
};

}  // namespace unidetect
