// Spelling-mistake detection via perturbation LR over MPD (Section 3.2),
// with the optional "+Dict" dictionary refutation of Section 4.3.

#pragma once

#include "detect/detector.h"
#include "detect/dictionary.h"
#include "learn/model_stack.h"

namespace unidetect {

/// \brief Flags the closest value pair of a column when removing one
/// endpoint raises the column's MPD surprisingly.
class SpellingDetector : public Detector {
 public:
  /// `model` (and `dictionary`, if given) must outlive the detector.
  /// Only findings with LR < min(alpha, 1) are kept, and columns where
  /// no LR that low is reachable skip the MPD scan (SpellingGateCanPass).
  /// With a dictionary, findings whose pair values are both entirely
  /// made of known words are suppressed (the UNIDETECT+Dict variant).
  SpellingDetector(const ModelStack* model, double alpha,
                   const Dictionary* dictionary = nullptr)
      : model_(model), alpha_(alpha), dictionary_(dictionary) {}

  void Detect(const TableColumns& columns,
              std::vector<Finding>* out) const override;

 private:
  const ModelStack* model_;
  double alpha_;
  const Dictionary* dictionary_;
};

}  // namespace unidetect
