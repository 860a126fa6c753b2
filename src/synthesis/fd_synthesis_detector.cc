#include "synthesis/fd_synthesis_detector.h"

#include <utility>

#include "learn/candidates.h"
#include "synthesis/string_program.h"
#include "util/string_util.h"

namespace unidetect {

void DetectFdSynthesisViolations(const TableColumns& columns,
                                 const ModelStack& model,
                                 size_t max_pairs_per_table,
                                 std::vector<Finding>* out) {
  const Table& table = columns.table();
  const ModelOptions& options = model.options();
  size_t pairs = 0;
  for (size_t l = 0; l < table.num_columns(); ++l) {
    for (size_t r = 0; r < table.num_columns(); ++r) {
      if (l == r) continue;
      if (pairs >= max_pairs_per_table) return;
      ++pairs;
      const Column& lhs = table.column(l);
      const Column& rhs = table.column(r);

      const SynthesisResult synth =
          SynthesizeColumnProgram(lhs, rhs, SynthesisOptions{});
      if (!synth.found || synth.violating_rows.empty()) continue;
      // A programmatic relationship exists and a few rows break it; run
      // the ordinary FD perturbation test on the pair.
      const FdCandidate cand =
          ExtractFdCandidate(columns.column(l), columns.column(r), options);
      if (!cand.valid || cand.dropped_rows.empty()) continue;
      const double lr = model.LikelihoodRatio(
          ErrorClass::kFd, FdKey(columns.column(l), columns.column(r), options),
          cand.theta1, cand.theta2);
      if (lr >= 1.0) continue;

      Finding finding;
      finding.error_class = ErrorClass::kFd;
      finding.table_name = table.name();
      finding.column = l;
      finding.column2 = r;
      // Rows the program fails to explain are the repairable violations;
      // fall back to the FD candidate's rows if the program explains the
      // FD-violating rows (conflict on lhs duplication only).
      finding.rows = synth.violating_rows;
      for (size_t row : cand.dropped_rows) finding.rows.push_back(row);
      finding.value = lhs.cell(finding.rows.front()) + " -> " +
                      rhs.cell(finding.rows.front());
      finding.score = lr;
      finding.explanation =
          StrCat("program y = ", synth.program.Describe(), " (coverage ",
                 synth.coverage, "), FR ", cand.theta1, " -> ", cand.theta2,
                 ", LR=", lr);
      out->push_back(std::move(finding));
    }
  }
}

}  // namespace unidetect
