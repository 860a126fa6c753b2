#include "detect/outlier_detector.h"

#include <utility>

#include "learn/candidates.h"
#include "util/string_util.h"

namespace unidetect {

void OutlierDetector::Detect(const TableColumns& columns,
                             std::vector<Finding>* out) const {
  const Table& table = columns.table();
  const ModelOptions& options = model_->options();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    const OutlierCandidate cand = ExtractOutlierCandidate(column, options);
    if (!cand.valid) continue;
    // A value within ~3 MADs is not even a candidate outlier under the
    // classical robust-statistics convention [48]; without this floor the
    // LR test can fire on rare-but-benign transitions (e.g. 1.9 -> 1.2)
    // whose endpoints are both unremarkable.
    if (cand.theta1 < 3.0) continue;
    const double lr = model_->LikelihoodRatio(ErrorClass::kOutlier, cand.key,
                                              cand.theta1, cand.theta2);
    if (lr >= 1.0) continue;

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
