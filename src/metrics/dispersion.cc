#include "metrics/dispersion.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace unidetect {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  const size_t n = values.size();
  if (n < 2) return 0.0;
  const double mean = Mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  return std::sqrt(ss / static_cast<double>(n - 1));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  const size_t mid = n / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = values[mid];
  if (n % 2 == 1) return hi;
  double lo = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

double Mad(const std::vector<double>& values) {
  return Mad(values, Median(values));
}

double Mad(const std::vector<double>& values, double median) {
  if (values.empty()) return 0.0;
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - median));
  return Median(std::move(deviations));
}

namespace {
// Linear-interpolated quantile of a sorted vector.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}
}  // namespace

double Iqr(std::vector<double> values) {
  if (values.size() < 2) return 0.0;
  std::sort(values.begin(), values.end());
  return SortedQuantile(values, 0.75) - SortedQuantile(values, 0.25);
}

double ScoreSd(double v, const std::vector<double>& values) {
  const double sd = StdDev(values);
  if (sd <= 0.0) return 0.0;
  return std::fabs(v - Mean(values)) / sd;
}

double ScoreMad(double v, const std::vector<double>& values) {
  const double med = Median(std::vector<double>(values));
  double mad = Mad(values, med);
  if (mad <= 0.0) {
    // 1.349 makes IQR consistent with SD for a normal distribution; the
    // same constant keeps the fallback score on a comparable scale.
    const double iqr = Iqr(std::vector<double>(values));
    if (iqr <= 0.0) return 0.0;
    mad = iqr / 1.349;
  }
  return std::fabs(v - med) / mad;
}

namespace {
// All scores share one (center, denom) pair, so the scan evaluates
// |v - center| / denom, the exact expression both scorers evaluate,
// giving bit-identical scores to the reference. It is the
// first-strict-improvement scan: index 0 seeds it, and a later index
// takes over only on a strictly greater score. So index 0 wins outright
// when its score is NaN (no comparison against NaN succeeds), a later
// NaN score is never selected, and among equal maxima the smallest index
// wins.
MaxScore ArgMaxWith(const std::vector<double>& values, double center,
                    double denom) {
  MaxScore out;
  out.valid = true;
  out.score = std::fabs(values[0] - center) / denom;
  for (size_t i = 1; i < values.size(); ++i) {
    const double s = std::fabs(values[i] - center) / denom;
    if (s > out.score) {
      out.score = s;
      out.index = i;
    }
  }
  return out;
}

// A degenerate denominator scores every element 0, and the sequential
// scan seeds on index 0 and never strictly improves.
MaxScore AllZeroScores() {
  MaxScore out;
  out.valid = true;
  return out;
}
}  // namespace

MaxScore MaxMadScore(const std::vector<double>& values) {
  if (values.size() < 3) return MaxScore{};
  // Hoist the column statistics out of the scan: ScoreMad recomputes
  // median/MAD/IQR per element even though they only depend on the
  // column, which made the original scan O(n^2 log n).
  const double med = Median(std::vector<double>(values));
  double mad = Mad(values, med);
  if (mad <= 0.0) {
    const double iqr = Iqr(std::vector<double>(values));
    if (iqr <= 0.0) return AllZeroScores();
    mad = iqr / 1.349;
  }
  return ArgMaxWith(values, med, mad);
}

bool MadScoresNeverNan(const std::vector<double>& values) {
  const double limit = std::numeric_limits<double>::max() / 4;
  // NaN fails the comparison too.
  return std::all_of(values.begin(), values.end(),
                     [limit](double v) { return std::fabs(v) <= limit; });
}

MaxScore MaxSdScore(const std::vector<double>& values) {
  if (values.size() < 3) return MaxScore{};
  const double sd = StdDev(values);
  if (sd <= 0.0) return AllZeroScores();
  return ArgMaxWith(values, Mean(values), sd);
}

double Skewness(const std::vector<double>& values) {
  const size_t n = values.size();
  if (n < 3) return 0.0;
  const double mean = Mean(values);
  double m2 = 0.0;
  double m3 = 0.0;
  for (double v : values) {
    const double d = v - mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  if (m2 <= 0.0) return 0.0;
  return m3 / std::pow(m2, 1.5);
}

bool LogTransformFitsBetter(const std::vector<double>& values) {
  if (values.size() < 3) return false;
  std::vector<double> logs;
  logs.reserve(values.size());
  for (double v : values) {
    if (v <= 0.0) return false;
    logs.push_back(std::log(v));
  }
  return std::fabs(Skewness(logs)) + 0.25 < std::fabs(Skewness(values));
}

}  // namespace unidetect
