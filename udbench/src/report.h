// Run configuration, the metric report, and host facts.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace udbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase; --seconds is required (run.py passes
  /// BENCHMARK.json's run_seconds when none is given).
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory for model artifacts (created and removed by main).
  std::string work_dir;
  /// Where the traced run writes its spans; empty = do not write.
  std::string trace_out;
  size_t nproc = 1;
};

/// \brief Metric values by name; units come from metric_names.h.
class Report {
 public:
  void Set(std::string_view name, double value) {
    values_[std::string(name)] = value;
  }
  const std::map<std::string, double>& values() const { return values_; }

  /// \brief The result line: {"correct", "attempted", "failed",
  /// "metrics"} with every metric of the mode's table (end-to-end when
  /// !trace, per-layer when trace). Returns "" and fills `error` when a
  /// metric of the table was never set or is not finite.
  std::string ResultJson(bool trace, bool correct, uint64_t attempted,
                         uint64_t failed, std::string* error) const;

 private:
  std::map<std::string, double> values_;
};

/// \brief Host facts recorded with every result: cores, SIMD path, build
/// type (flagged when not Release), compiler, seed, thread and
/// connection counts.
std::string HostFactsJson(const RunConfig& config, size_t threads,
                          size_t connections);

/// \brief CPU time counters of the whole host (/proc/stat), to report the
/// share of time the hypervisor took from this machine during a run.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();

/// \brief Steal time between two readings as a share of all CPU time.
double StealShare(const HostCpu& begin, const HostCpu& end);

/// \brief True when the benchmark was compiled as a Release build.
bool IsReleaseBuild();

/// \brief Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace udbench
