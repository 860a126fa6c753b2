// Order statistics and the open-loop ladder arithmetic of the benchmark:
// percentiles, backlog detection, and the highest rate that meets a
// latency limit. Kept free of I/O so tests/udbench_test.cc can check the
// math on synthetic samples.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace udbench {

/// \brief Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double q);

/// \brief Percentile(values, 0.5).
double Median(std::vector<double> values);

/// Samples per window of WindowedP99: the fewest that leave ten samples
/// beyond the 99th percentile.
inline constexpr size_t kP99Window = 1000;

/// \brief Tail latency robust to a single burst: `latency_ms` (in due
/// order) is cut into consecutive windows of kP99Window samples (the
/// remainder joins the last window; fewer samples form one window), the
/// 99th percentile is taken per window, and the median of those is
/// returned.
double WindowedP99(const std::vector<double>& latency_ms);

/// \brief The median of the groups' medians (empty groups skipped), so a
/// statistic over a mix of kinds does not jump when the mix shifts.
double MedianOfMedians(const std::vector<std::vector<double>>& groups);

/// \brief Expected share of `draws` requests that name a table an earlier
/// request already named, when each draws a table of a `pool` with
/// unidetect::Rng::Zipf(pool, s) popularity.
double ExpectedRepeatShare(size_t pool, size_t draws, double s);

/// \brief The Zipf exponent in [0, 4] at which ExpectedRepeatShare(pool,
/// draws, s) equals `target` (bisection; the share grows with s).
double ZipfExponentForRepeatShare(size_t pool, size_t draws, double target);

/// \brief Mean of `values`; 0 when empty.
double Mean(const std::vector<double>& values);

/// \brief True when latency grows across an open-loop step: the median
/// latency of the step's last quarter (by due time) exceeds that of its
/// first quarter by more than half of `limit_ms`. `latency_ms` is in
/// due-time order.
bool BacklogGrowing(const std::vector<double>& latency_ms, double limit_ms);

/// \brief Outcome of one ladder step at a fixed offered rate.
struct RungResult {
  double offered_rps = 0.0;
  double p99_ms = 0.0;
  bool backlog_growing = false;
  uint64_t failed = 0;  ///< errors, refusals and mismatches in the step
  /// False when the step was skipped because slower steps overloaded.
  bool ran = true;
};

/// \brief True when a step meets the limit: it ran, p99 <= limit, no
/// failures and no growing backlog.
bool RungPasses(const RungResult& rung, double limit_ms);

/// \brief The highest offered rate meeting `limit_ms`: the fastest step
/// of the ladder that passes. When the next faster step ran and failed
/// only on p99 (no backlog, no failures), the rate is interpolated
/// linearly between the two at the point where p99 crosses the limit. 0
/// when no step passes.
double MaxRateRps(const std::vector<RungResult>& ladder, double limit_ms);

/// \brief Jittered open-loop arrival schedule: `count` due times (seconds
/// from `start_s`) at mean rate `rps`, each gap uniform in [0.5, 1.5] of
/// the mean gap. Deterministic in `seed`.
std::vector<double> ArrivalSchedule(double start_s, double rps, size_t count,
                                    uint64_t seed);

}  // namespace udbench
