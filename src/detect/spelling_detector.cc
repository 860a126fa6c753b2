#include "detect/spelling_detector.h"

#include <algorithm>
#include <utility>

#include "learn/candidates.h"
#include "util/string_util.h"

namespace unidetect {

void SpellingDetector::Detect(const TableColumns& columns,
                              std::vector<Finding>* out) const {
  const Table& table = columns.table();
  const ModelOptions& options = model_->options();
  const double bar = std::min(alpha_, 1.0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    // Tall columns mostly fall in subsets too thin for any LR below the
    // bar ("no evidence, no call"); the model says so before the O(n^2)
    // pair scan does.
    if (!SpellingGateCanPass(columns.column(c), *model_, alpha_)) continue;
    const SpellingCandidate cand =
        ExtractSpellingCandidate(columns.column(c), options);
    if (!cand.valid) continue;
    const double lr = model_->LikelihoodRatio(ErrorClass::kSpelling, cand.key,
                                              cand.theta1, cand.theta2);
    if (lr >= bar) continue;
    if (dictionary_ != nullptr &&
        dictionary_->AllWordsKnown(cand.profile.value_a) &&
        dictionary_->AllWordsKnown(cand.profile.value_b)) {
      // Both values are real words ("Macroeconomics"/"Microeconomics"):
      // the dictionary refutes the misspelling hypothesis.
      continue;
    }

    Finding finding;
    finding.error_class = ErrorClass::kSpelling;
    finding.table_name = table.name();
    finding.column = c;
    finding.rows = {cand.profile.row_a, cand.profile.row_b};
    finding.value = cand.profile.value_a + " | " + cand.profile.value_b;
    finding.score = lr;
    finding.explanation =
        StrCat("MPD ", cand.theta1, " -> ", cand.theta2, " for pair ('",
               cand.profile.value_a, "', '", cand.profile.value_b,
               "'), LR=", lr);
    out->push_back(std::move(finding));
  }
}

}  // namespace unidetect
