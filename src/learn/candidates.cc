#include "learn/candidates.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "featurize/buckets.h"
#include "metrics/dispersion.h"

namespace unidetect {

namespace {

// The LR modes in which LR is monotone in (theta1, theta2), so that a
// corner of the reachable (theta1, theta2) bounds every candidate's LR.
bool MonotoneLrMode(const ModelOptions& options) {
  return options.smoothing == SmoothingMode::kRange &&
         options.denominator == DenominatorMode::kSuspiciousTail;
}

// True iff LR(key_of(b), theta1, theta2) < bar for some b < `count`: the
// screens try every value of the one key dimension still unknown. Equal
// consecutive keys (featurization off) are looked up once.
template <typename KeyOf>
bool SomeKeyScoresBelow(const ModelStack& model, ErrorClass cls,
                        uint8_t count, const KeyOf& key_of, double theta1,
                        double theta2, double bar) {
  FeatureKey previous;
  for (uint8_t b = 0; b < count; ++b) {
    const FeatureKey key = key_of(b);
    if (b > 0 && key == previous) continue;
    previous = key;
    if (model.LikelihoodRatio(cls, key, theta1, theta2) < bar) return true;
  }
  return false;
}

}  // namespace

bool OutlierEligible(const Column& column, const ModelOptions& options) {
  const ColumnType type = column.type();
  if (type != ColumnType::kInteger && type != ColumnType::kFloat) return false;
  if (column.size() < options.min_column_rows) return false;
  if (column.NumericValues().size() < options.min_column_rows) return false;
  return column.NumericFraction() >= 0.8;
}

OutlierCandidate OutlierCandidateFrom(const Column& column,
                                      const MaxScore& before,
                                      const ModelOptions& options) {
  OutlierCandidate out;
  const auto& values = column.NumericValues();
  const auto cut = values.begin() + static_cast<std::ptrdiff_t>(before.index);
  std::vector<double> remaining;
  remaining.reserve(values.size() - 1);
  remaining.insert(remaining.end(), values.begin(), cut);
  remaining.insert(remaining.end(), cut + 1, values.end());
  const MaxScore after = MaxMadScore(remaining);
  if (!after.valid) return out;

  out.valid = true;
  out.key = OutlierFeatures(
      column, options.featurize.enabled && LogTransformFitsBetter(values),
      options.featurize);
  out.theta1 = before.score;
  out.theta2 = after.score;
  out.index = before.index;
  out.value = values[before.index];
  return out;
}

OutlierCandidate ExtractOutlierCandidate(const Column& column,
                                         const ModelOptions& options) {
  if (!OutlierEligible(column, options)) return {};
  const MaxScore before = MaxMadScore(column.NumericValues());
  if (!before.valid) return {};
  return OutlierCandidateFrom(column, before, options);
}

bool OutlierGateCanPass(const Column& column, const ModelStack& model,
                        double alpha) {
  const ModelOptions& options = model.options();
  if (!OutlierEligible(column, options)) return false;
  if (!MonotoneLrMode(options)) return true;
  // NaN scores order nothing, so the corner bounds nothing.
  if (!MadScoresNeverNan(column.NumericValues())) return true;
  // The corner every candidate is bounded by: any theta1, and the least
  // theta2 a MAD score can be.
  const double most_theta1 = std::numeric_limits<double>::infinity();
  const double least_theta2 = 0.0;
  return SomeKeyScoresBelow(
      model, ErrorClass::kOutlier, 2,
      [&](uint8_t log_fit) {
        return OutlierFeatures(column, log_fit != 0, options.featurize);
      },
      most_theta1, least_theta2, std::min(alpha, 1.0));
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
  out.key = SpellingFeatures(column.column(),
                             TokenLengthBucket(out.profile.avg_diff_token_length),
                             options.featurize);
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

bool SpellingGateCanPass(const EncodedColumn& column, const ModelStack& model,
                         double alpha) {
  const ModelOptions& options = model.options();
  if (column.size() < options.min_column_rows) return false;
  if (!IsMpdEligible(column.column())) return false;
  if (!MonotoneLrMode(options)) return true;
  // The corner every MPD transition is bounded by: the least distance two
  // distinct values can have, and the clamp of the perturbed distance.
  const double least_theta1 = 1.0;
  const double most_theta2 = static_cast<double>(options.mpd.distance_cap + 1);
  return SomeKeyScoresBelow(
      model, ErrorClass::kSpelling, kNumTokenLengthBuckets,
      [&](uint8_t bucket) {
        return SpellingFeatures(column.column(), bucket, options.featurize);
      },
      least_theta1, most_theta2, std::min(alpha, 1.0));
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
                            PrevalenceBucket(column.prevalence()),
                            options.featurize);
}

bool UniquenessKeyCanPass(const EncodedColumn& column, size_t column_position,
                          const ModelStack& model, double theta1,
                          double theta2, double alpha) {
  const FeaturizeOptions& featurize = model.options().featurize;
  return SomeKeyScoresBelow(
      model, ErrorClass::kUniqueness, kNumPrevalenceBuckets,
      [&](uint8_t bucket) {
        return UniquenessFeatures(column.column(), column_position, bucket,
                                  featurize);
      },
      theta1, theta2, std::min(alpha, 1.0));
}

bool UniquenessGateCanPass(const EncodedColumn& column,
                           const ModelOptions& options) {
  if (column.size() < options.min_column_rows) return false;
  const ColumnCodes& codes = column.codes();
  const auto empty = static_cast<size_t>(
      std::count(codes.codes.begin(), codes.codes.end(), uint32_t{0}));
  // Every non-empty row past its value's first row is a duplicate.
  const size_t duplicates = codes.size() - empty - codes.distinct;
  return duplicates >= 1 &&
         duplicates <= options.epsilon.AllowedRows(column.size());
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
  return FdFeatures(lhs.column(), rhs.column(),
                    PrevalenceBucket(rhs.prevalence()), options.featurize);
}

bool FdKeyCanPass(const EncodedColumn& lhs, const EncodedColumn& rhs,
                  const ModelStack& model, double theta1, double theta2,
                  double alpha) {
  const FeaturizeOptions& featurize = model.options().featurize;
  return SomeKeyScoresBelow(
      model, ErrorClass::kFd, kNumPrevalenceBuckets,
      [&](uint8_t bucket) {
        return FdFeatures(lhs.column(), rhs.column(), bucket, featurize);
      },
      theta1, theta2, std::min(alpha, 1.0));
}

FdGateScreen::FdGateScreen(const EncodedColumn& lhs,
                           const ModelOptions& options)
    : lhs_rows_(lhs.size()) {
  if (lhs.size() < options.min_column_rows) return;
  const ColumnCodes& codes = lhs.codes();
  // Counting sort of the non-empty rows by lhs code, as the FR kernel
  // groups them.
  begin_.assign(codes.distinct + size_t{2}, 0);
  for (const uint32_t code : codes.codes) {
    if (code != 0) ++begin_[code + size_t{1}];
  }
  for (size_t g = 1; g < begin_.size(); ++g) begin_[g] += begin_[g - 1];
  const size_t filled = begin_.back();
  if (filled == codes.distinct) {
    // No lhs value repeats: every group is one row, so V = 0.
    begin_.clear();
    return;
  }
  rows_.resize(filled);
  std::vector<size_t> next(begin_.begin(), begin_.end() - 1);
  for (size_t row = 0; row < codes.size(); ++row) {
    const uint32_t code = codes.codes[row];
    if (code != 0) rows_[next[code]++] = row;
  }
  epsilon_ = options.epsilon.AllowedRows(lhs.size());
}

bool FdGateScreen::CanPass(const EncodedColumn& rhs) {
  if (epsilon_ == 0) return false;
  const ColumnCodes& codes = rhs.codes();
  // FR scores the rows both columns have.
  const size_t n = std::min(lhs_rows_, codes.size());
  if (count_.size() <= codes.distinct) {
    count_.resize(codes.distinct + size_t{1}, 0);
  }
  size_t groups = 0;
  size_t violating = 0;
  for (size_t g = 1; g + 1 < begin_.size(); ++g) {
    const size_t first = begin_[g];
    size_t last = first;
    size_t used = 0;
    uint32_t majority = 0;
    for (; last < begin_[g + 1] && rows_[last] < n; ++last) {
      const uint32_t r = codes.codes[rows_[last]];
      if (r == 0) continue;
      ++used;
      majority = std::max(majority, ++count_[r]);
    }
    for (size_t k = first; k < last; ++k) count_[codes.codes[rows_[k]]] = 0;
    if (used == 0) continue;
    ++groups;
    violating += used - majority;
    if (violating > epsilon_) return false;
  }
  return groups >= 2 && violating >= 1;
}

}  // namespace unidetect
