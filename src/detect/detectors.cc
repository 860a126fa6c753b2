#include "detect/detectors.h"

#include <algorithm>
#include <utility>

#include "learn/candidates.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace unidetect {

void DetectOutliers(const TableColumns& columns, const ModelStack& model,
                    double alpha, std::vector<Finding>* out) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  const double bar = std::min(alpha, 1.0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    // Most tall columns fall in subsets too thin for any LR below the
    // bar; the model says so before theta1 (DESIGN.md section 17.6).
    if (!OutlierGateCanPass(column, model, alpha)) continue;
    const MaxScore before = MaxMadScore(column.NumericValues());
    if (!before.valid) continue;
    // A value within ~3 MADs is not even a candidate outlier under the
    // classical robust-statistics convention [48]; without this floor the
    // LR test can fire on rare-but-benign transitions (e.g. 1.9 -> 1.2)
    // whose endpoints are both unremarkable.
    if (before.score < 3.0) continue;
    const OutlierCandidate cand = OutlierCandidateFrom(column, before, options);
    if (!cand.valid) continue;
    const double lr = model.LikelihoodRatio(ErrorClass::kOutlier, cand.key,
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

void DetectSpellingErrors(const TableColumns& columns, const ModelStack& model,
                          double alpha, const Dictionary* dictionary,
                          std::vector<Finding>* out) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  const double bar = std::min(alpha, 1.0);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    // Tall columns mostly fall in subsets too thin for any LR below the
    // bar ("no evidence, no call"); the model says so before the O(n^2)
    // pair scan does.
    if (!SpellingGateCanPass(columns.column(c), model, alpha)) continue;
    const SpellingCandidate cand =
        ExtractSpellingCandidate(columns.column(c), options);
    if (!cand.valid) continue;
    const double lr = model.LikelihoodRatio(ErrorClass::kSpelling, cand.key,
                                            cand.theta1, cand.theta2);
    if (lr >= bar) continue;
    if (dictionary != nullptr &&
        dictionary->AllWordsKnown(cand.profile.value_a) &&
        dictionary->AllWordsKnown(cand.profile.value_b)) {
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

void DetectUniquenessViolations(const TableColumns& columns,
                                const ModelStack& model, double alpha,
                                std::vector<Finding>* out) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  const double bar = std::min(alpha, 1.0);
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
    if (!UniquenessKeyCanPass(columns.column(c), c, model, cand.theta1,
                              cand.theta2, alpha)) {
      continue;
    }
    const double lr = model.LikelihoodRatio(
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

void DetectFdViolations(const TableColumns& columns, const ModelStack& model,
                        double alpha, size_t max_pairs_per_table,
                        std::vector<Finding>* out) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  const double bar = std::min(alpha, 1.0);
  size_t pairs = 0;
  for (size_t l = 0; l < table.num_columns(); ++l) {
    FdGateScreen screen(columns.column(l), options);
    for (size_t r = 0; r < table.num_columns(); ++r) {
      if (l == r) continue;
      if (pairs >= max_pairs_per_table) return;
      ++pairs;
      // Same reasoning as uniqueness: an FD candidate is only credible
      // when dropping the suspected rows makes the dependency hold
      // exactly (FR(D_O^P) = 1, as in Figure 4(c)). The screen decides
      // that gate from the violating-row count alone, so only pairs that
      // pass it build the candidate.
      if (!screen.CanPass(columns.column(r))) continue;
      const FdCandidate cand =
          ExtractFdCandidate(columns.column(l), columns.column(r), options);
      UNIDETECT_CHECK(cand.valid && !cand.dropped_rows.empty() &&
                      cand.theta2 >= 1.0);
      // Keyed only now, past the gates and where some prevalence bucket
      // scores below the bar (the key reads the rhs Prev(C)).
      if (!FdKeyCanPass(columns.column(l), columns.column(r), model,
                        cand.theta1, cand.theta2, alpha)) {
        continue;
      }
      const double lr = model.LikelihoodRatio(
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
