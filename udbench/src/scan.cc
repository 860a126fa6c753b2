// The closed-loop batch-audit workload, scan_tall: repeated
// UniDetect::DetectCorpus passes over a seeded Enterprise-shaped corpus at
// a fixed thread count, the path unidetect_cli and spreadsheet_audit take.
// The server and the findings cache are not on this path.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench_stats.h"
#include "corpus/generator.h"
#include "detect/unidetect.h"
#include "eval/injection.h"
#include "eval/precision.h"
#include "layer_walk.h"
#include "learn/model_stack.h"
#include "model_format/model_view.h"
#include "output_check.h"
#include "setup.h"
#include "trace.h"
#include "util/string_util.h"
#include "workloads.h"

namespace udbench {

using unidetect::StrCat;

namespace {

/// Tables in the scanned corpus.
constexpr size_t kScanTables = 768;
/// K of precision_at_k over the ranked findings of one pass.
constexpr size_t kPrecisionK = 200;
/// Tables the traced run's layer walk times one by one.
constexpr size_t kWalkTables = 128;
/// Scan threads (capped at the core count).
constexpr size_t kScanThreads = 4;
/// Offered rate of the traced run's serve probe over the walk tables.
constexpr double kProbeRps = 50.0;

size_t ScanThreads(const RunConfig& config) {
  return std::min(kScanThreads, config.nproc);
}

struct ScanState {
  ChainFiles chain;
  unidetect::AnnotatedCorpus corpus;
  unidetect::GroundTruth truth;
  std::unique_ptr<Serving> serving;
  std::unique_ptr<unidetect::UniDetect> detector;
  SetupTimes times;
  double setup_s = 0.0;
};

unidetect::Result<ScanState> Setup(const RunConfig& config,
                                   const std::string& dir) {
  ScanState state;
  const Clock::time_point t0 = Clock::now();
  UNIDETECT_ASSIGN_OR_RETURN(
      state.chain, BuildChain(dir, 1, config.nproc, &state.times));

  const Clock::time_point g0 = Clock::now();
  state.corpus = unidetect::GenerateCorpus(unidetect::EnterpriseCorpusSpec(
      kScanTables, DeriveSeed(config.seed, 5)));
  unidetect::InjectionSpec injection;
  injection.seed = DeriveSeed(config.seed, 6);
  state.truth = unidetect::InjectErrors(&state.corpus, injection);
  state.times.generate_s +=
      std::chrono::duration<double>(Clock::now() - g0).count();

  UNIDETECT_ASSIGN_OR_RETURN(
      state.serving,
      StartServing(state.chain.bases[0], state.chain.deltas[0], &state.times));
  // The scan opens the base model file, as a batch auditor does.
  UNIDETECT_ASSIGN_OR_RETURN(const unidetect::ModelView view,
                             unidetect::ModelView::Open(state.chain.bases[0]));
  state.detector = std::make_unique<unidetect::UniDetect>(
      std::make_shared<const unidetect::ModelStack>(
          std::vector<std::shared_ptr<const unidetect::Model>>{
              view.shared_model()}),
      ServeOptions());
  state.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return state;
}

struct ScanPhase {
  /// Duration of each pass; a pass is due when the previous one returns.
  std::vector<double> pass_s;
  std::vector<std::vector<unidetect::Finding>> findings;
};

// Closed loop: passes until `seconds` have elapsed, at least one.
ScanPhase RunScanPhase(const ScanState& state, double seconds, size_t threads,
                       Tracer* tracer) {
  ScanPhase phase;
  const Clock::time_point origin = Clock::now();
  Clock::time_point due = origin;
  do {
    phase.findings.push_back(
        state.detector->DetectCorpus(state.corpus.corpus, threads));
    const Clock::time_point end = Clock::now();
    tracer->Record("scan.pass", due, end, -1, phase.pass_s.size());
    phase.pass_s.push_back(std::chrono::duration<double>(end - due).count());
    due = end;
  } while (std::chrono::duration<double>(due - origin).count() < seconds);
  return phase;
}

// Per-pass rates as the median over passes, so one slow stretch of the
// host does not move them.
double MedianPassesPerSecond(const ScanPhase& phase) {
  std::vector<double> rates;
  for (double seconds : phase.pass_s) rates.push_back(1.0 / seconds);
  return Median(rates);
}

std::vector<double> PassMillis(const ScanPhase& phase) {
  std::vector<double> ms;
  for (double seconds : phase.pass_s) ms.push_back(seconds * 1000.0);
  return ms;
}

struct ScanCheck {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  double precision = 0.0;
};

// Every pass against a single-threaded DetectCorpus reference; precision
// over the first pass.
ScanCheck CheckScan(const ScanState& state, const ScanPhase& phase) {
  ScanCheck out;
  const std::string reference =
      FindingsBytes({state.detector->DetectCorpus(state.corpus.corpus, 1)});
  for (size_t i = 0; i < phase.findings.size(); ++i) {
    ++out.attempted;
    if (FindingsBytes({phase.findings[i]}) != reference) {
      ++out.failed;
      if (out.first_error.empty()) {
        out.first_error = StrCat("scan pass ", i,
                                 ": findings differ from the "
                                 "single-threaded reference");
      }
    }
  }
  out.precision = unidetect::EvaluatePrecision("scan", phase.findings[0],
                                               state.truth, {kPrecisionK})
                      .precision[0];
  return out;
}

}  // namespace

RunOutcome RunScan(const RunConfig& config, Report* report) {
  RunOutcome outcome;
  const size_t threads = ScanThreads(config);
  outcome.host_json = HostFactsJson(config, threads, 0);
  const std::string dir = config.work_dir + "/scan";
  std::filesystem::create_directories(dir);

  std::vector<double> setup_s;
  std::vector<SetupTimes> times;
  unidetect::Result<ScanState> state = unidetect::Status::Internal("no setup");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state = unidetect::Status::Internal("torn down");
    state = Setup(config, dir);
    if (!state.ok()) {
      outcome.fatal = state.status().ToString();
      return outcome;
    }
    setup_s.push_back(state->setup_s);
    times.push_back(state->times);
  }

  Tracer untraced(false);
  const ScanPhase phase =
      RunScanPhase(*state, config.seconds, threads, &untraced);
  const ScanCheck check = CheckScan(*state, phase);
  outcome.attempted = check.attempted;
  outcome.failed = check.failed;
  outcome.first_error = check.first_error;
  const double passes_per_s = MedianPassesPerSecond(phase);

  if (!config.trace) {
    report->Set("setup_s", Median(setup_s));
    report->Set("p50_ms", Median(PassMillis(phase)));
    report->Set("max_rate_rps", passes_per_s);
    report->Set("tables_per_s", passes_per_s * kScanTables);
    report->Set("precision_at_k", check.precision);
    report->Set("publish_p50_ms", MedianOfMedians(SetupPublishByDepth(times)));
    report->Set("peak_rss_mb", PeakRssMb());
    return outcome;
  }

  state = unidetect::Status::Internal("torn down");
  state = Setup(config, dir);
  if (!state.ok()) {
    outcome.fatal = state.status().ToString();
    return outcome;
  }
  Tracer tracer(true);
  const ScanPhase traced = RunScanPhase(*state, config.seconds, threads, &tracer);
  const ScanCheck tcheck = CheckScan(*state, traced);
  outcome.attempted += tcheck.attempted;
  outcome.failed += tcheck.failed;
  if (outcome.first_error.empty()) outcome.first_error = tcheck.first_error;
  const double traced_passes_per_s = MedianPassesPerSecond(traced);
  report->Set("client.p99_ms", WindowedP99(PassMillis(traced)));

  // The serving layers on the first kWalkTables of the scan's tables,
  // then one compaction.
  unidetect::AnnotatedCorpus probe;
  probe.corpus.tables.assign(state->corpus.corpus.tables.begin(),
                             state->corpus.corpus.tables.begin() + kWalkTables);
  if (!ServeProbe(config, state->serving.get(), probe, state->truth, kProbeRps,
                  &tracer, report, &outcome)) {
    return outcome;
  }
  std::vector<double> publish_us;
  for (double ms : state->times.publish_ms) publish_us.push_back(ms * 1000.0);
  report->Set("serving.publish_us", Mean(publish_us));
  const double compact_ms = CompactionProbe(state->serving->service.get(),
                                            dir + "/compacted.udsnap", &tracer);
  if (compact_ms < 0) {
    ++outcome.failed;
    if (outcome.first_error.empty()) outcome.first_error = "compaction probe";
  }
  report->Set("compactor.compact_ms", compact_ms);
  report->Set("compactor.compactions", 1.0);
  ReportSetupLayers(times, report);

  WalkInputs walk;
  walk.threads = threads;
  walk.served_depth = 0;
  walk.chain = {state->chain.bases[0]};
  walk.chain.insert(walk.chain.end(), state->chain.deltas[0].begin(),
                    state->chain.deltas[0].end());
  for (size_t t = 0; t < kWalkTables; ++t) {
    walk.tables.push_back(&state->corpus.corpus.tables[t]);
  }
  std::string error;
  if (!LayerWalk(walk, &tracer, report, &error)) {
    outcome.fatal = error;
    return outcome;
  }
  report->Set("trace.untraced_p50_ms", Median(PassMillis(phase)));
  report->Set("trace.overhead_pct",
              (passes_per_s / traced_passes_per_s - 1.0) * 100.0);
  report->Set("trace.spans", static_cast<double>(tracer.size()));

  // Which layer dominates detect.table on this corpus.
  const auto& v = report->values();
  const char* layers[] = {"candidates.outlier_us", "candidates.spelling_us",
                          "candidates.uniqueness_us", "candidates.fd_us",
                          "detect.self_us"};
  const char* top = layers[0];
  for (const char* name : layers) {
    if (v.at(name) > v.at(top)) top = name;
  }
  outcome.dominant_layer =
      StrCat("scan_tall: ", top, " dominates detect.table (~",
             static_cast<int64_t>(v.at(top)), " us of ~",
             static_cast<int64_t>(v.at("detect.table_us")), " us per table)");
  WriteTrace(config, tracer, outcome);
  return outcome;
}

}  // namespace udbench
