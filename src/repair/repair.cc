#include "repair/repair.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "metrics/dispersion.h"
#include "metrics/metric_functions.h"
#include "util/string_util.h"

namespace unidetect {

std::vector<RepairSuggestion> Repairer::SuggestSpelling(
    const Table& table, const Finding& finding) const {
  std::vector<RepairSuggestion> out;
  if (finding.rows.size() < 2) return out;
  const Column& column = table.column(finding.column);
  const size_t row_a = finding.rows[0];
  const size_t row_b = finding.rows[1];
  const std::string& a = column.cell(row_a);
  const std::string& b = column.cell(row_b);
  // The more corpus-prevalent value of a near-duplicate pair is the
  // canonical spelling; a cell without tokens counts as 0.
  const TokenPrevalence prevalence(model_->token_index());
  const double prev_a = prevalence.CellPrevalence(a).value_or(0.0);
  const double prev_b = prevalence.CellPrevalence(b).value_or(0.0);
  if (prev_a == prev_b) return out;  // no canonical-form evidence

  RepairSuggestion suggestion;
  suggestion.action = RepairAction::kReplace;
  suggestion.column = finding.column;
  if (prev_a < prev_b) {
    suggestion.row = row_a;
    suggestion.current = a;
    suggestion.suggested = b;
  } else {
    suggestion.row = row_b;
    suggestion.current = b;
    suggestion.suggested = a;
  }
  suggestion.rationale =
      "'" + suggestion.suggested + "' is the more corpus-prevalent form of "
      "the near-duplicate pair";
  out.push_back(std::move(suggestion));
  return out;
}

std::vector<RepairSuggestion> Repairer::SuggestOutlier(
    const Table& table, const Finding& finding) const {
  std::vector<RepairSuggestion> out;
  if (finding.rows.empty()) return out;
  const Column& column = table.column(finding.column);
  const size_t row = finding.rows[0];
  const std::string& cell = column.cell(row);
  const auto parsed = ParseNumeric(cell);
  if (!parsed.has_value()) return out;

  // Column statistics without the suspect value.
  std::vector<double> rest;
  for (size_t i = 0; i < column.NumericValues().size(); ++i) {
    if (column.NumericRows()[i] != row) {
      rest.push_back(column.NumericValues()[i]);
    }
  }
  if (rest.size() < 3) return out;
  const double median = Median(rest);
  auto plausible = [&](double v) {
    const double score = ScoreMad(v, rest);
    return score > 0.0 ? score <= 3.5 : std::fabs(v - median) < 1e-12;
  };

  struct FixCandidate {
    double value;
    const char* why;
  };
  const double v = *parsed;
  const std::vector<FixCandidate> fixes = {
      {v * 1000.0, "missed thousands separator (value / 1000 slip)"},
      {v / 1000.0, "extra factor of 1000 (scale slip)"},
      {v * 100.0, "missed decimal shift (x100)"},
      {v / 100.0, "extra decimal shift (/100)"},
  };
  for (const auto& fix : fixes) {
    if (!plausible(fix.value)) continue;
    RepairSuggestion suggestion;
    suggestion.action = RepairAction::kReplace;
    suggestion.column = finding.column;
    suggestion.row = row;
    suggestion.current = cell;
    suggestion.suggested = FormatDouble(fix.value, 4);
    suggestion.rationale = std::string(fix.why) +
                           " brings the value inside the column's robust "
                           "range";
    out.push_back(std::move(suggestion));
    break;  // one best-guess scale fix
  }
  return out;
}

std::vector<RepairSuggestion> Repairer::SuggestUniqueness(
    const Table& table, const Finding& finding) const {
  std::vector<RepairSuggestion> out;
  const Column& column = table.column(finding.column);
  for (size_t row : finding.rows) {
    RepairSuggestion suggestion;
    suggestion.action = RepairAction::kRemoveRow;
    suggestion.column = finding.column;
    suggestion.row = row;
    suggestion.current = column.cell(row);
    suggestion.rationale =
        "duplicate of a value in a column the corpus evidence says is an "
        "identifier; the true value is unknown, review and re-enter";
    out.push_back(std::move(suggestion));
  }
  return out;
}

std::vector<RepairSuggestion> Repairer::SuggestFd(
    const Table& table, const Finding& finding) const {
  std::vector<RepairSuggestion> out;
  if (finding.column2 == Finding::kNoColumn) return out;
  const Column& lhs = table.column(finding.column);
  const Column& rhs = table.column(finding.column2);

  // If the pair is programmatic, the program is the exact repair.
  const SynthesisResult synth = SynthesizeColumnProgram(lhs, rhs);
  for (size_t row : finding.rows) {
    if (row >= rhs.size()) continue;
    if (synth.found) {
      const auto repaired = synth.program.Apply(lhs.cell(row));
      if (repaired.has_value() && *repaired != rhs.cell(row)) {
        RepairSuggestion suggestion;
        suggestion.action = RepairAction::kReplace;
        suggestion.column = finding.column2;
        suggestion.row = row;
        suggestion.current = rhs.cell(row);
        suggestion.suggested = *repaired;
        suggestion.rationale =
            "programmatic relationship y = " + synth.program.Describe() +
            " determines the value exactly";
        out.push_back(std::move(suggestion));
        continue;
      }
    }
    // Otherwise: majority rhs of this row's lhs group.
    std::unordered_map<std::string_view, size_t> votes;
    for (size_t i = 0; i < std::min(lhs.size(), rhs.size()); ++i) {
      if (i == row) continue;
      if (Trim(lhs.cell(i)) == Trim(lhs.cell(row)) &&
          !Trim(rhs.cell(i)).empty()) {
        votes[rhs.cell(i)]++;
      }
    }
    const std::string_view* best = nullptr;
    size_t best_votes = 0;
    for (const auto& [value, count] : votes) {
      if (count > best_votes) {
        best_votes = count;
        best = &value;
      }
    }
    if (best == nullptr || std::string(*best) == rhs.cell(row)) continue;
    RepairSuggestion suggestion;
    suggestion.action = RepairAction::kReplace;
    suggestion.column = finding.column2;
    suggestion.row = row;
    suggestion.current = rhs.cell(row);
    suggestion.suggested = std::string(*best);
    suggestion.rationale = "majority value among rows sharing '" +
                           lhs.cell(row) + "' in column '" + lhs.name() +
                           "' (" + std::to_string(best_votes) + " vote(s))";
    out.push_back(std::move(suggestion));
  }
  return out;
}

std::vector<RepairSuggestion> Repairer::Suggest(
    const Table& table, const Finding& finding) const {
  switch (finding.error_class) {
    case ErrorClass::kSpelling:
      return SuggestSpelling(table, finding);
    case ErrorClass::kOutlier:
      return SuggestOutlier(table, finding);
    case ErrorClass::kUniqueness:
      return SuggestUniqueness(table, finding);
    case ErrorClass::kFd:
      return SuggestFd(table, finding);
    case ErrorClass::kPattern:
      return {};  // format normalization is application-specific
  }
  return {};
}

}  // namespace unidetect
