#include "detect/uniqueness_detector.h"

#include <algorithm>
#include <utility>

#include "learn/candidates.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace unidetect {

void UniquenessDetector::Detect(const TableColumns& columns,
                                std::vector<Finding>* out) const {
  const Table& table = columns.table();
  const ModelOptions& options = model_->options();
  const double bar = std::min(alpha_, 1.0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    // A uniqueness violation is only meaningful when removing the
    // suspected duplicates restores an exact uniqueness constraint
    // (every paper example has UR(D_O^P) = 1). A column that stays
    // non-unique after the epsilon-perturbation has no constraint to
    // violate — it is simply a non-key column. The duplicate count
    // alone decides that gate, before the candidate is built.
    if (!UniquenessGateCanPass(columns.column(c), options)) continue;
    const UniquenessCandidate cand =
        ExtractUniquenessCandidate(columns.column(c), options);
    UNIDETECT_CHECK(cand.valid && !cand.dropped_rows.empty() &&
                    cand.theta2 >= 1.0);
    // Keyed only now: the key reads Prev(C), which most columns never
    // need because they fail the gates above or score no LR below the
    // bar at any prevalence bucket.
    if (!UniquenessKeyCanPass(columns.column(c), c, *model_, cand.theta1,
                              cand.theta2, alpha_)) {
      continue;
    }
    const double lr = model_->LikelihoodRatio(
        ErrorClass::kUniqueness, UniquenessKey(columns.column(c), c, options),
        cand.theta1, cand.theta2);
    if (lr >= bar) continue;

    Finding finding;
    finding.error_class = ErrorClass::kUniqueness;
    finding.table_name = table.name();
    finding.column = c;
    finding.rows = cand.dropped_rows;
    finding.value = column.cell(cand.dropped_rows.front());
    finding.score = lr;
    finding.explanation =
        StrCat("UR ", cand.theta1, " -> ", cand.theta2, " after dropping ",
               cand.dropped_rows.size(), " duplicate(s) like '",
               finding.value, "', LR=", lr);
    out->push_back(std::move(finding));
  }
}

}  // namespace unidetect
