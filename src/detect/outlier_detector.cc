#include "detect/outlier_detector.h"

#include <algorithm>
#include <utility>

#include "learn/candidates.h"
#include "util/string_util.h"

namespace unidetect {

void OutlierDetector::Detect(const TableColumns& columns,
                             std::vector<Finding>* out) const {
  const Table& table = columns.table();
  const ModelOptions& options = model_->options();
  const double bar = std::min(alpha_, 1.0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    // Most tall columns fall in subsets too thin for any LR below the
    // bar; the model says so before theta1 (DESIGN.md section 17.6).
    if (!OutlierGateCanPass(column, *model_, alpha_)) continue;
    const MaxScore before = MaxMadScore(column.NumericValues());
    if (!before.valid) continue;
    // A value within ~3 MADs is not even a candidate outlier under the
    // classical robust-statistics convention [48]; without this floor the
    // LR test can fire on rare-but-benign transitions (e.g. 1.9 -> 1.2)
    // whose endpoints are both unremarkable.
    if (before.score < 3.0) continue;
    const OutlierCandidate cand = OutlierCandidateFrom(column, before, options);
    if (!cand.valid) continue;
    const double lr = model_->LikelihoodRatio(ErrorClass::kOutlier, cand.key,
                                              cand.theta1, cand.theta2);
    if (lr >= bar) continue;

    const size_t row = column.NumericRows()[cand.index];
    Finding finding;
    finding.error_class = ErrorClass::kOutlier;
    finding.table_name = table.name();
    finding.column = c;
    finding.rows = {row};
    finding.value = column.cell(row);
    finding.score = lr;
    finding.explanation =
        StrCat("max-MAD ", cand.theta1, " -> ", cand.theta2,
               " after removing '", finding.value, "', LR=", lr);
    out->push_back(std::move(finding));
  }
}

}  // namespace unidetect
