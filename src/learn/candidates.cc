#include "learn/candidates.h"

#include <algorithm>
#include <vector>

#include "metrics/dispersion.h"

namespace unidetect {

OutlierCandidate ExtractOutlierCandidate(const Column& column,
                                         const ModelOptions& options) {
  OutlierCandidate out;
  const ColumnType type = column.type();
  if (type != ColumnType::kInteger && type != ColumnType::kFloat) return out;
  if (column.size() < options.min_column_rows) return out;
  const auto& values = column.NumericValues();
  if (values.size() < options.min_column_rows) return out;
  if (column.NumericFraction() < 0.8) return out;

  const MaxScore before = MaxMadScore(values);
  if (!before.valid) return out;

  std::vector<double> remaining = values;
  remaining.erase(remaining.begin() +
                  static_cast<std::ptrdiff_t>(before.index));
  const MaxScore after = MaxMadScore(remaining);
  if (!after.valid) return out;

  out.valid = true;
  out.key = OutlierFeatures(column, options.featurize);
  out.theta1 = before.score;
  out.theta2 = after.score;
  out.row = column.NumericRows()[before.index];
  out.cell = column.cell(out.row);
  out.value = values[before.index];
  return out;
}

SpellingCandidate ExtractSpellingCandidate(const EncodedColumn& column,
                                           const ModelOptions& options) {
  SpellingCandidate out;
  if (column.size() < options.min_column_rows) return out;
  // Check eligibility before codes(): numeric and date columns would
  // otherwise be dictionary-encoded for nothing.
  if (!IsMpdEligible(column.column())) return out;
  out.profile = ComputeMpdProfile(column.column(), column.codes(), options.mpd);
  if (!out.profile.valid) return out;
  out.valid = true;
  out.key = SpellingFeatures(column.column(), out.profile, options.featurize);
  out.theta1 = static_cast<double>(out.profile.mpd);
  out.theta2 = static_cast<double>(out.profile.mpd_perturbed);
  return out;
}

SpellingCandidate ExtractSpellingCandidate(const Column& column,
                                           const ModelOptions& options) {
  // Spelling never reads Prev(C), so a view over no layers will do.
  const TokenPrevalence no_prevalence(std::vector<const TokenIndex*>{});
  return ExtractSpellingCandidate(EncodedColumn(column, no_prevalence),
                                  options);
}

UniquenessCandidate ExtractUniquenessCandidate(const EncodedColumn& column,
                                               const ModelOptions& options) {
  UniquenessCandidate out;
  if (column.size() < options.min_column_rows) return out;
  const ColumnCodes& codes = column.codes();
  const UrProfile profile = ComputeUrProfile(codes);
  if (!profile.valid) return out;

  const size_t epsilon = options.epsilon.AllowedRows(column.size());
  out.dropped_rows = profile.duplicate_rows;
  if (out.dropped_rows.size() > epsilon) out.dropped_rows.resize(epsilon);

  out.valid = true;
  out.theta1 = profile.ur;
  if (out.dropped_rows.size() == profile.duplicate_rows.size()) {
    out.theta2 = profile.ur_perturbed;
  } else {
    // Partial perturbation: recompute UR with the capped rows dropped.
    const UrProfile partial = ComputeUrProfile(codes, out.dropped_rows);
    out.theta2 = partial.valid ? partial.ur : profile.ur;
  }
  return out;
}

UniquenessCandidate ExtractUniquenessCandidate(const Column& column,
                                               size_t column_position,
                                               const TokenPrevalence& index,
                                               const ModelOptions& options) {
  const EncodedColumn encoded(column, index);
  UniquenessCandidate out = ExtractUniquenessCandidate(encoded, options);
  if (out.valid) out.key = UniquenessKey(encoded, column_position, options);
  return out;
}

FeatureKey UniquenessKey(const EncodedColumn& column, size_t column_position,
                         const ModelOptions& options) {
  return UniquenessFeatures(column.column(), column_position,
                            column.prevalence(), options.featurize);
}

FdCandidate ExtractFdCandidate(const EncodedColumn& lhs,
                               const EncodedColumn& rhs,
                               const ModelOptions& options) {
  FdCandidate out;
  if (lhs.size() < options.min_column_rows) return out;
  const FrProfile profile = ComputeFrProfile(lhs.codes(), rhs.codes());
  if (!profile.valid) return out;

  const size_t epsilon = options.epsilon.AllowedRows(lhs.size());
  out.dropped_rows = profile.violating_rows;
  if (out.dropped_rows.size() > epsilon) out.dropped_rows.resize(epsilon);

  out.valid = true;
  out.theta1 = profile.fr;
  out.violating_groups = profile.violating_groups;
  if (out.dropped_rows.size() == profile.violating_rows.size()) {
    out.theta2 = profile.fr_perturbed;
  } else {
    const FrProfile partial =
        ComputeFrProfile(lhs.codes(), rhs.codes(), out.dropped_rows);
    out.theta2 = partial.valid ? partial.fr : profile.fr;
  }
  return out;
}

FdCandidate ExtractFdCandidate(const Column& lhs, const Column& rhs,
                               const TokenPrevalence& index,
                               const ModelOptions& options) {
  const EncodedColumn lhs_encoded(lhs, index);
  const EncodedColumn rhs_encoded(rhs, index);
  FdCandidate out = ExtractFdCandidate(lhs_encoded, rhs_encoded, options);
  if (out.valid) out.key = FdKey(lhs_encoded, rhs_encoded, options);
  return out;
}

FeatureKey FdKey(const EncodedColumn& lhs, const EncodedColumn& rhs,
                 const ModelOptions& options) {
  return FdFeatures(lhs.column(), rhs.column(), rhs.prevalence(),
                    options.featurize);
}

}  // namespace unidetect
