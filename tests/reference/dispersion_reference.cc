#include "reference/dispersion_reference.h"

#include <cmath>

namespace unidetect {

namespace {

// |v - mean| / SD (Eq. 8); 0 for a constant column.
double ReferenceScoreSd(double v, const std::vector<double>& values) {
  const double sd = StdDev(values);
  if (sd <= 0.0) return 0.0;
  return std::fabs(v - Mean(values)) / sd;
}

// |v - median| / MAD (Eq. 9), falling back to IQR / 1.349 when MAD is 0.
double ReferenceScoreMad(double v, const std::vector<double>& values) {
  const double med = Median(std::vector<double>(values));
  double mad = Mad(values);
  if (mad <= 0.0) {
    const double iqr = Iqr(std::vector<double>(values));
    if (iqr <= 0.0) return 0.0;
    mad = iqr / 1.349;
  }
  return std::fabs(v - med) / mad;
}

MaxScore MaxScoreWith(const std::vector<double>& values,
                      double (*scorer)(double, const std::vector<double>&)) {
  MaxScore out;
  if (values.size() < 3) return out;
  for (size_t i = 0; i < values.size(); ++i) {
    const double s = scorer(values[i], values);
    if (!out.valid || s > out.score) {
      out.valid = true;
      out.score = s;
      out.index = i;
    }
  }
  return out;
}

}  // namespace

MaxScore MaxMadScoreReference(const std::vector<double>& values) {
  return MaxScoreWith(values, &ReferenceScoreMad);
}

MaxScore MaxSdScoreReference(const std::vector<double>& values) {
  return MaxScoreWith(values, &ReferenceScoreSd);
}

}  // namespace unidetect
