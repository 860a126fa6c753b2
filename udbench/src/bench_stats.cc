#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/random.h"

namespace udbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double MedianOfMedians(const std::vector<std::vector<double>>& groups) {
  std::vector<double> medians;
  for (const std::vector<double>& group : groups) {
    if (!group.empty()) medians.push_back(Median(group));
  }
  return Median(medians);
}

double ExpectedRepeatShare(size_t pool, size_t draws, double s) {
  if (pool == 0 || draws == 0) return 0.0;
  if (s == 1.0) s = 1.0000001;  // as Rng::Zipf does
  // Rng::Zipf draws u uniform in [0, u(pool)), inverts
  // u(x) = ((x + 0.5)^(1-s) - 1) / (1-s) (so x >= 0.5) and takes floor(x):
  // rank k has probability (u(k+1) - u(max(k, 0.5))) / u(pool).
  auto u = [s](double x) {
    return (std::pow(x + 0.5, 1.0 - s) - 1.0) / (1.0 - s);
  };
  const double total = u(static_cast<double>(pool));
  const double n = static_cast<double>(draws);
  double distinct = 0.0;
  for (size_t k = 0; k < pool; ++k) {
    const double low = k == 0 ? 0.5 : static_cast<double>(k);
    const double p = (u(static_cast<double>(k + 1)) - u(low)) / total;
    distinct += 1.0 - std::pow(1.0 - p, n);
  }
  return 1.0 - distinct / n;
}

double ZipfExponentForRepeatShare(size_t pool, size_t draws, double target) {
  double lo = 0.0, hi = 4.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (ExpectedRepeatShare(pool, draws, mid) < target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double WindowedP99(const std::vector<double>& latency_ms) {
  const size_t windows = std::max<size_t>(1, latency_ms.size() / kP99Window);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = latency_ms.begin() + w * kP99Window;
    const auto end =
        w + 1 == windows ? latency_ms.end() : begin + kP99Window;
    p99s.push_back(Percentile(std::vector<double>(begin, end), 0.99));
  }
  return Median(p99s);
}

bool BacklogGrowing(const std::vector<double>& latency_ms, double limit_ms) {
  const size_t quarter = latency_ms.size() / 4;
  if (quarter == 0) return false;
  const std::vector<double> first(latency_ms.begin(),
                                  latency_ms.begin() + quarter);
  const std::vector<double> last(latency_ms.end() - quarter, latency_ms.end());
  return Median(last) - Median(first) > 0.5 * limit_ms;
}

bool RungPasses(const RungResult& rung, double limit_ms) {
  return rung.ran && rung.failed == 0 && !rung.backlog_growing &&
         rung.p99_ms <= limit_ms;
}

double MaxRateRps(const std::vector<RungResult>& ladder, double limit_ms) {
  double best = 0.0;
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (!RungPasses(ladder[i], limit_ms)) continue;
    best = std::max(best, ladder[i].offered_rps);
    if (i + 1 == ladder.size()) continue;
    const RungResult& next = ladder[i + 1];
    const bool p99_only = next.ran && next.failed == 0 &&
                          !next.backlog_growing &&
                          next.p99_ms > ladder[i].p99_ms;
    if (p99_only && !RungPasses(next, limit_ms)) {
      const double t =
          (limit_ms - ladder[i].p99_ms) / (next.p99_ms - ladder[i].p99_ms);
      best = std::max(best, ladder[i].offered_rps +
                                t * (next.offered_rps - ladder[i].offered_rps));
    }
  }
  return best;
}

std::vector<double> ArrivalSchedule(double start_s, double rps, size_t count,
                                    uint64_t seed) {
  unidetect::Rng rng(seed);
  std::vector<double> due(count);
  const double gap = 1.0 / rps;
  double t = start_s;
  for (size_t i = 0; i < count; ++i) {
    t += gap * (0.5 + rng.NextDouble());
    due[i] = t;
  }
  return due;
}

}  // namespace udbench
