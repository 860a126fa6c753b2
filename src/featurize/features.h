// Per-error-class featurization: maps a test column (pair) to the
// FeatureKey identifying the corpus subset S_D^F(T) it is compared with.
//
// The exact dimensions follow the paper:
//   outliers   (3.1): type, row bucket, log-transform fit
//   spelling   (3.2): type, row bucket, differing-token-length bucket
//   uniqueness (3.3): type, row bucket, leftness, token prevalence
//   FD         (3.4): same as 3.3, applied to the rhs column, plus the
//                     lhs column type
//
// The trainer and the detectors must agree on keys: both call these
// functions with the same FeaturizeOptions (stored inside the Model).

#pragma once

#include <cstdint>
#include <string>

#include "table/column.h"

namespace unidetect {

/// \brief The four error classes Uni-Detect is instantiated for, plus
/// pattern incompatibility (Auto-Detect, Section 3.5 — detected by the
/// PMI mechanism shown to coincide with the LR test).
enum class ErrorClass : int {
  kOutlier = 0,
  kSpelling = 1,
  kUniqueness = 2,
  kFd = 3,
  kPattern = 4,
};
constexpr int kNumErrorClasses = 5;

const char* ErrorClassToString(ErrorClass c);

/// \brief Opaque subset identifier; equal keys = same corpus subset.
struct FeatureKey {
  uint64_t packed = 0;
  bool operator==(const FeatureKey& other) const {
    return packed == other.packed;
  }
};

struct FeatureKeyHash {
  size_t operator()(const FeatureKey& k) const {
    // Finalizer of SplitMix64: full avalanche over the packed bits.
    uint64_t z = k.packed + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(z ^ (z >> 31));
  }
};

/// \brief Controls which dimensions participate in the key.
///
/// `enabled = false` collapses every column into one subset per error
/// class — the "no featurization, use all of T" ablation of Section 2.2.2.
struct FeaturizeOptions {
  bool enabled = true;
};

/// \brief Key for numeric-outlier analysis (Section 3.1).
/// `log_fits_better` is LogTransformFitsBetter over the column's numeric
/// values; the key reads it only with featurization on.
FeatureKey OutlierFeatures(const Column& column, bool log_fits_better,
                           const FeaturizeOptions& options);

/// \brief Key for spelling analysis (Section 3.2). `token_length_bucket`
/// is TokenLengthBucket of the MPD pair's differing-token length
/// (MpdProfile::avg_diff_token_length), one of kNumTokenLengthBuckets.
FeatureKey SpellingFeatures(const Column& column, uint8_t token_length_bucket,
                            const FeaturizeOptions& options);

/// \brief Key for uniqueness analysis (Section 3.3). `column_position` is
/// the column's index from the left; `prevalence_bucket` is
/// PrevalenceBucket of the column's Prev(C) (TokenPrevalence::
/// AveragePrevalence, computed once per column per table by
/// learn/table_columns.h), one of kNumPrevalenceBuckets.
FeatureKey UniquenessFeatures(const Column& column, size_t column_position,
                              uint8_t prevalence_bucket,
                              const FeaturizeOptions& options);

/// \brief Key for FD analysis (Section 3.4) over the (lhs, rhs) pair;
/// `rhs_prevalence_bucket` is PrevalenceBucket of Prev(rhs).
FeatureKey FdFeatures(const Column& lhs, const Column& rhs,
                      uint8_t rhs_prevalence_bucket,
                      const FeaturizeOptions& options);

/// \brief Debug rendering of a key ("class=uniqueness type=3 rows=2 ...").
std::string FeatureKeyToString(FeatureKey key);

}  // namespace unidetect
