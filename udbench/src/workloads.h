// The three workloads. Each runs its set-up several times (setup_s is the
// median), drives its timed phase, checks every output against an
// in-process reference, and fills the report: end-to-end metrics in an
// untraced run, per-layer metrics in a traced one.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "eval/injection.h"
#include "report.h"
#include "setup.h"
#include "trace.h"

namespace udbench {

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

struct RunOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First mismatch or error seen, for the log.
  std::string first_error;
  std::string host_json;
  /// One line naming the layer that dominates the workload (traced runs).
  std::string dominant_layer;
  /// Set when the run could not produce results at all.
  std::string fatal;
};

RunOutcome RunOnline(const RunConfig& config, bool churn, Report* report);
RunOutcome RunScan(const RunConfig& config, Report* report);

/// \brief Serves every table of `corpus` once through the running
/// `serving`, open loop at `rps`, checks each response, and sets the
/// server, client, coalescer, serving and findings-cache per-layer
/// metrics. The scan workload's traced run uses it to measure the
/// serving layers on its own tables. False (with outcome->fatal) when no
/// connection could be made.
bool ServeProbe(const RunConfig& config, Serving* serving,
                const unidetect::AnnotatedCorpus& corpus,
                const unidetect::GroundTruth& truth, double rps,
                Tracer* tracer, Report* report, RunOutcome* outcome);

/// \brief Sets the setup.* and model_format.* metrics from the set-up
/// repetitions (medians).
void ReportSetupLayers(const std::vector<SetupTimes>& reps, Report* report);

/// \brief Folds the service's served chain once with Compactor::CompactOnce
/// into `out_path`; returns its milliseconds, or -1 when it did not swap.
double CompactionProbe(unidetect::DetectionService* service,
                       const std::string& out_path, Tracer* tracer);

/// \brief Writes the traced run's spans to config.trace_out (if set),
/// headed by the host facts and the dominant-layer line.
void WriteTrace(const RunConfig& config, const Tracer& tracer,
                const RunOutcome& outcome);

}  // namespace udbench
