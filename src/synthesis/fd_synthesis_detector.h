// FD-synthesis detector (Appendix D): FD-violation detection restricted
// to column pairs with a learnt programmatic relationship. The LR
// reasoning is identical to the FD detector (Section 3.4, "The exact
// error-detection reasoning for FD-synthesis in UNIDETECT is identical to
// FD"); requiring a synthesized program prunes the coincidental
// almost-FDs that drag plain FD precision down (Figure 12).

#pragma once

#include <cstddef>

#include "detect/detector.h"
#include "learn/model.h"
#include "synthesis/string_program.h"

namespace unidetect {

/// \brief UniDetect-FD over synthesized programmatic pairs only.
class FdSynthesisDetector : public Detector {
 public:
  /// `model` must outlive the detector.
  explicit FdSynthesisDetector(const Model* model,
                               SynthesisOptions synthesis = {},
                               size_t max_pairs_per_table = 30)
      : model_(model),
        synthesis_(synthesis),
        max_pairs_per_table_(max_pairs_per_table) {}

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const Model* model_;
  SynthesisOptions synthesis_;
  size_t max_pairs_per_table_;
};

}  // namespace unidetect
