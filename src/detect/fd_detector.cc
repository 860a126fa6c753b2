#include "detect/fd_detector.h"

#include <algorithm>
#include <utility>

#include "learn/candidates.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace unidetect {

void FdDetector::Detect(const TableColumns& columns,
                        std::vector<Finding>* out) const {
  const Table& table = columns.table();
  const ModelOptions& options = model_->options();
  const double bar = std::min(alpha_, 1.0);
  size_t pairs = 0;
  for (size_t l = 0; l < table.num_columns(); ++l) {
    FdGateScreen screen(columns.column(l), options);
    for (size_t r = 0; r < table.num_columns(); ++r) {
      if (l == r) continue;
      if (pairs >= max_pairs_per_table_) return;
      ++pairs;
      // Same reasoning as the uniqueness detector: an FD candidate is
      // only credible when dropping the suspected rows makes the
      // dependency hold exactly (FR(D_O^P) = 1, as in Figure 4(c)). The
      // screen decides that gate from the violating-row count alone, so
      // only pairs that pass it build the candidate.
      if (!screen.CanPass(columns.column(r))) continue;
      const FdCandidate cand =
          ExtractFdCandidate(columns.column(l), columns.column(r), options);
      UNIDETECT_CHECK(cand.valid && !cand.dropped_rows.empty() &&
                      cand.theta2 >= 1.0);
      // Keyed only now, past the gates and where some prevalence bucket
      // scores below the bar (the key reads the rhs Prev(C)).
      if (!FdKeyCanPass(columns.column(l), columns.column(r), *model_,
                        cand.theta1, cand.theta2, alpha_)) {
        continue;
      }
      const double lr = model_->LikelihoodRatio(
          ErrorClass::kFd, FdKey(columns.column(l), columns.column(r), options),
          cand.theta1, cand.theta2);
      if (lr >= bar) continue;

      Finding finding;
      finding.error_class = ErrorClass::kFd;
      finding.table_name = table.name();
      finding.column = l;
      finding.column2 = r;
      finding.rows = cand.dropped_rows;
      finding.value = table.column(l).cell(cand.dropped_rows.front()) +
                      " -> " +
                      table.column(r).cell(cand.dropped_rows.front());
      finding.score = lr;
      finding.explanation =
          StrCat("FR(", table.column(l).name(), " -> ",
                 table.column(r).name(), ") ", cand.theta1, " -> ",
                 cand.theta2, " after dropping ", cand.dropped_rows.size(),
                 " violating row(s), LR=", lr);
      out->push_back(std::move(finding));
    }
  }
}

}  // namespace unidetect
