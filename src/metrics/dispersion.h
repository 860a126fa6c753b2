// Statistical dispersion measures from Section 3.1: standard deviation,
// median absolute deviation (robust statistics, Hellerstein [48]), and
// interquartile range, plus the per-value outlier-ness scores built on them.

#pragma once

#include <cstddef>
#include <vector>

namespace unidetect {

/// \brief Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// \brief Sample standard deviation (N-1 denominator, Eq. 6); 0 if n < 2.
double StdDev(const std::vector<double>& values);

/// \brief Median (average of middle two for even n); 0 for empty input.
double Median(std::vector<double> values);

/// \brief Median absolute deviation (Eq. 7).
double Mad(const std::vector<double>& values);
/// \brief The same, given `median` = Median(values), which callers that
/// also need the median compute once.
double Mad(const std::vector<double>& values, double median);

/// \brief Interquartile range Q3 - Q1 (linear-interpolated quartiles).
double Iqr(std::vector<double> values);

/// \brief SD-score of v within C: |v - mean| / SD (Eq. 8). Returns 0 when
/// SD is 0 (constant column: nothing is an outlier by dispersion).
double ScoreSd(double v, const std::vector<double>& values);

/// \brief MAD-score of v within C: |v - median| / MAD (Eq. 9).
///
/// When MAD is 0 but the column is not constant (over half the values are
/// identical), falls back to |v - median| / (IQR/1.349), and to 0 if that
/// is degenerate too; otherwise every off-median value would score
/// infinity.
double ScoreMad(double v, const std::vector<double>& values);

/// \brief Result of a max-score scan over a column.
struct MaxScore {
  double score = 0.0;   ///< largest outlier-ness score in the column
  size_t index = 0;     ///< position (within `values`) of that value
  bool valid = false;   ///< false when the column has < 3 numeric values
};

/// \brief max-MAD metric function of Eq. 10: the most outlying value's
/// MAD-score, plus which value it is (that value is the natural
/// perturbation candidate).
MaxScore MaxMadScore(const std::vector<double>& values);

/// \brief True when every value is finite and at most DBL_MAX / 4 in
/// magnitude. Then no median, deviation, quartile or MAD of `values`, or
/// of any subset of them, overflows, so every MAD score is finite or
/// +inf and never NaN. A finite max - min is not enough: the median of
/// an even count adds its two middle values, and 1e308 + 1.5e308
/// overflows, which makes every deviation and the MAD +inf and the
/// scores inf / inf.
bool MadScoresNeverNan(const std::vector<double>& values);

/// \brief Same scan using SD-scores (the Max-SD baseline).
///
/// Both scans hoist the column statistics and run one argmax scan; they
/// are bit-identical to the per-element scorer loop kept as the
/// test-only oracle (tests/reference/dispersion_reference.h).
MaxScore MaxSdScore(const std::vector<double>& values);

/// \brief True when a log transform "better fits" the column (§3.1
/// featurization (3)): all values positive and the log-domain skewness is
/// materially smaller in magnitude than the linear-domain skewness.
bool LogTransformFitsBetter(const std::vector<double>& values);

/// \brief Sample skewness (Fisher-Pearson); 0 when undefined.
double Skewness(const std::vector<double>& values);

}  // namespace unidetect
