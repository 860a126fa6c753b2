// The open-loop workloads, online_small and online_churn: one seeded,
// jittered arrival schedule shared round-robin by the client connections,
// stepped through a fixed ladder of offered rates, each request timed
// from the moment it was due.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bench_stats.h"
#include "corpus/generator.h"
#include "eval/injection.h"
#include "eval/precision.h"
#include "layer_walk.h"
#include "offline/compactor.h"
#include "output_check.h"
#include "server/client.h"
#include "setup.h"
#include "trace.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workloads.h"

namespace udbench {

using unidetect::StrCat;

namespace {

struct OnlineSpec {
  const char* name;
  /// Ascending offered rates; step 0 is the reference rate at which
  /// p50_ms (and, traced, client.p99_ms) is reported.
  std::vector<double> ladder_rps;
  /// Share of the run spent at the reference rate; the other steps (if
  /// any) split the rest evenly.
  double ref_share;
  /// p99 limit that max_rate_rps is measured against.
  double limit_ms;
  /// K of precision_at_k over the reference findings of the distinct
  /// tables of the reference step.
  size_t precision_k;
  /// online_churn: a fixed pool, one table per request of the run, drawn
  /// with Zipf popularity, and deltas published on a fixed cadence
  /// (compacted at kChainDepth).
  bool churn;
  /// Share of the requests that name a table an earlier request named;
  /// the Zipf exponent is solved from it (udbench/README.md says where
  /// each churn value comes from).
  double repeat_share;
};

OnlineSpec SpecFor(bool churn) {
  if (churn) {
    return {"online_churn", {250}, 1.0, 250.0, 500, true, 0.5};
  }
  return {"online_small", {500, 1000, 1500}, 0.6, 100.0, 500, false, 0.0};
}

/// Delta cycles pre-built for online_churn (see Publisher).
constexpr size_t kChurnCycles = 2;
/// online_churn publish ticks per run. The cadence is the run length over
/// this, so every run collects the same number of ApplyDelta samples:
/// with kChurnCycles = 2, eight of every nine ticks publish and the ninth
/// reloads the base.
constexpr size_t kPublishTicks = 40;
/// Client-side bound on one request; a lapse counts as a failure.
constexpr int64_t kClientTimeoutMs = 10000;
/// Client connections sharing the schedule. With two, each idled about
/// 4 ms between requests at the reference rate, and the median sat
/// between two latency modes (about 2 and 4.3 ms) that traded places from
/// run to run; one connection has a single mode.
constexpr size_t kConnections = 1;
/// How long a step may take to drain after its last send.
constexpr double kDrainSeconds = 3.0;

struct Step {
  double rps = 0.0;
  std::vector<double> due;  // seconds from the step's start
  std::vector<uint32_t> table;
};

struct State {
  ChainFiles chain;
  unidetect::AnnotatedCorpus pool;
  unidetect::GroundTruth truth;
  std::vector<Step> steps;
  /// The server the phase drives: owned_serving's, or a borrowed one.
  std::unique_ptr<Serving> owned_serving;
  Serving* serving = nullptr;
  /// Declared after the server so they close first.
  std::vector<std::unique_ptr<unidetect::AsyncUdwireClient>> clients;
  SetupTimes times;
  double setup_s = 0.0;
  /// online_churn: the Zipf exponent solved for the spec's repeat share,
  /// and the seconds between publish ticks.
  double zipf_s = 0.0;
  double publish_every_s = 0.0;
};

struct Record {
  double due = 0.0;   // seconds from the phase origin
  double sent = -1.0;
  double done = -1.0;
  uint32_t table = 0;
  uint32_t step = 0;
  unidetect::wire::DetectResponse response;
};

/// One model generation the service served during a phase.
struct Generation {
  double start_s = -1e9;  // when the swap began (seconds from origin)
  double end_s = -1e9;    // when it returned
  uint64_t generation = 0;
  std::vector<std::string> chain;
};

struct Phase {
  std::vector<Record> records;  // only the first `sent` are valid
  size_t sent = 0;
  std::vector<RungResult> ladder;
  std::vector<Generation> timeline;
  /// ApplyDelta milliseconds by the depth of the chain it extended.
  std::vector<std::vector<double>> publish_ms =
      std::vector<std::vector<double>>(kChainDepth);
  std::vector<double> compact_ms;
  uint64_t publish_failures = 0;
  std::string publish_error;
  double wall_s = 0.0;
  uint64_t counters_before[static_cast<size_t>(unidetect::ServerMetric::COUNT)] = {};
  uint64_t counters_after[static_cast<size_t>(unidetect::ServerMetric::COUNT)] = {};
  unidetect::LatencyBuckets queue_before{};
  unidetect::LatencyBuckets queue_after{};
  unidetect::ServiceStats stats_before;
  unidetect::ServiceStats stats_after;
};

double SecondsFrom(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

unidetect::Result<State> Setup(const RunConfig& config, const OnlineSpec& spec,
                               const std::string& dir) {
  State state;
  const Clock::time_point t0 = Clock::now();
  const size_t cycles = spec.churn ? kChurnCycles : 1;
  UNIDETECT_ASSIGN_OR_RETURN(
      state.chain,
      BuildChain(dir, cycles, config.nproc, &state.times));

  // The arrival schedule: the reference step, then the ladder.
  const Clock::time_point g0 = Clock::now();
  size_t total = 0;
  for (size_t k = 0; k < spec.ladder_rps.size(); ++k) {
    Step step;
    step.rps = spec.ladder_rps[k];
    const double share =
        k == 0 ? spec.ref_share
               : (1.0 - spec.ref_share) /
                     static_cast<double>(spec.ladder_rps.size() - 1);
    const size_t count =
        static_cast<size_t>(step.rps * share * config.seconds + 0.5);
    step.due = ArrivalSchedule(0.0, step.rps, count,
                               DeriveSeed(config.seed, 200 + k));
    total += count;
    state.steps.push_back(std::move(step));
  }
  // The table pool, one table per request: distinct WIKI tables in order
  // (online_small), or WEB tables drawn with Zipf popularity
  // (online_churn), so popularity rather than a small pool makes the
  // repeats (uniform draws would repeat 37%).
  unidetect::InjectionSpec injection;
  injection.seed = DeriveSeed(config.seed, 3);
  if (spec.churn) {
    state.pool = unidetect::GenerateCorpus(
        unidetect::WebCorpusSpec(total, DeriveSeed(config.seed, 2)));
    state.zipf_s = ZipfExponentForRepeatShare(total, total, spec.repeat_share);
    state.publish_every_s = config.seconds / static_cast<double>(kPublishTicks);
    unidetect::Rng rng(DeriveSeed(config.seed, 4));
    for (Step& step : state.steps) {
      for (size_t i = 0; i < step.due.size(); ++i) {
        step.table.push_back(
            static_cast<uint32_t>(rng.Zipf(total, state.zipf_s)));
      }
    }
  } else {
    state.pool = unidetect::GenerateCorpus(
        unidetect::WikiCorpusSpec(total, DeriveSeed(config.seed, 2)));
    uint32_t next = 0;
    for (Step& step : state.steps) {
      for (size_t i = 0; i < step.due.size(); ++i) step.table.push_back(next++);
    }
  }
  state.truth = unidetect::InjectErrors(&state.pool, injection);
  state.times.generate_s += SecondsFrom(g0, Clock::now());

  UNIDETECT_ASSIGN_OR_RETURN(
      state.owned_serving,
      StartServing(state.chain.bases[0],
                   spec.churn ? std::vector<std::string>{}
                              : state.chain.deltas[0],
                   &state.times));
  state.serving = state.owned_serving.get();
  for (size_t c = 0; c < kConnections; ++c) {
    UNIDETECT_ASSIGN_OR_RETURN(
        auto client, unidetect::AsyncUdwireClient::Connect(
                         "127.0.0.1", state.serving->server->port()));
    state.clients.push_back(std::move(client));
  }
  state.setup_s = SecondsFrom(t0, Clock::now());
  return state;
}

void SnapshotServer(const State& state, uint64_t* counters,
                    unidetect::LatencyBuckets* queue,
                    unidetect::ServiceStats* stats) {
  const unidetect::MetricsRegistry& m = state.serving->server->metrics();
  for (size_t i = 0; i < static_cast<size_t>(unidetect::ServerMetric::COUNT);
       ++i) {
    counters[i] = m.Count(static_cast<unidetect::ServerMetric>(i));
  }
  *queue = m.queue_latency().Snapshot();
  *stats = state.serving->service->Stats();
}

// The churn publisher: a delta every state->publish_every_s; once the
// chain is kChainDepth deep, Compactor::CompactOnce folds it into the next
// base.
class Publisher {
 public:
  Publisher(State* state, Clock::time_point origin, Phase* phase,
            Tracer* tracer)
      : state_(state), origin_(origin), phase_(phase), tracer_(tracer) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Publisher() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

 private:
  void Note(Clock::time_point start, Clock::time_point end) {
    unidetect::DetectionService& service = *state_->serving->service;
    const auto layers = service.Layers();
    phase_->timeline.push_back({SecondsFrom(origin_, start),
                                SecondsFrom(origin_, end), layers.generation,
                                layers.paths});
  }
  void Fail(const std::string& what) {
    ++phase_->publish_failures;
    if (phase_->publish_error.empty()) phase_->publish_error = what;
  }

  // Each cycle applies kChainDepth deltas and folds them. Deltas of cycle
  // c + 1 were built on the fold of cycle c; after the last pre-built
  // cycle the publisher reloads the trained base and starts over, so the
  // set-up builds a fixed number of cycles whatever the run length.
  void Loop() {
    unidetect::DetectionService& service = *state_->serving->service;
    const ChainFiles& chain = state_->chain;
    size_t cycle = 0;
    size_t depth = 0;
    for (size_t n = 1;; ++n) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        const auto at = origin_ + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          state_->publish_every_s * n));
        if (cv_.wait_until(lock, at, [this] { return stop_; })) return;
      }
      Clock::time_point start = Clock::now();
      if (cycle == chain.deltas.size()) {
        const unidetect::Status st = service.Reload(chain.bases[0]);
        const Clock::time_point end = Clock::now();
        tracer_->Record("serving.reload", start, end);
        if (!st.ok()) {
          Fail(StrCat("Reload: ", st.ToString()));
          return;
        }
        Note(start, end);
        cycle = 0;
        continue;
      }
      const unidetect::Status st = service.ApplyDelta(chain.deltas[cycle][depth]);
      Clock::time_point end = Clock::now();
      tracer_->Record("serving.publish", start, end);
      if (!st.ok()) {
        Fail(StrCat("ApplyDelta: ", st.ToString()));
        return;
      }
      phase_->publish_ms[depth].push_back(Micros(end - start) / 1000.0);
      Note(start, end);
      if (++depth < kChainDepth) continue;
      unidetect::CompactorOptions options;
      options.output_path = cycle + 1 < chain.bases.size()
                                ? chain.bases[cycle + 1]
                                : chain.bases[0] + ".folded";
      options.trigger_delta_layers = kChainDepth;
      unidetect::Compactor compactor(&service, options);
      start = Clock::now();
      const auto folded = compactor.CompactOnce();
      end = Clock::now();
      tracer_->Record("compactor.compact", start, end);
      if (!folded.ok() || !*folded) {
        Fail(folded.ok() ? "CompactOnce did not swap"
                         : StrCat("CompactOnce: ", folded.status().ToString()));
        return;
      }
      phase_->compact_ms.push_back(Micros(end - start) / 1000.0);
      Note(start, end);
      ++cycle;
      depth = 0;
    }
  }

  State* state_;
  const Clock::time_point origin_;
  Phase* phase_;
  Tracer* tracer_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// Runs the ladder against `state` (consuming its client connections).
Phase RunPhase(State* state, const OnlineSpec& spec, double limit_ms,
               Tracer* tracer) {
  Phase phase;
  size_t capacity = 0;
  for (const Step& step : state->steps) capacity += step.due.size();
  phase.records.resize(capacity);
  SnapshotServer(*state, phase.counters_before, &phase.queue_before,
                 &phase.stats_before);
  {
    const auto layers = state->serving->service->Layers();
    phase.timeline.push_back({-1e9, -1e9, layers.generation, layers.paths});
  }

  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;  // guarded by mu

  const Clock::time_point origin = Clock::now();
  std::unique_ptr<Publisher> publisher;
  if (spec.churn) {
    publisher = std::make_unique<Publisher>(state, origin, &phase, tracer);
  }
  bool stopped = false;
  int overloaded_in_a_row = 0;
  double step_start = 0.002;
  for (size_t k = 0; k < state->steps.size(); ++k) {
    const Step& step = state->steps[k];
    RungResult rung;
    rung.offered_rps = step.rps;
    if (stopped) {
      rung.ran = false;
      phase.ladder.push_back(rung);
      continue;
    }
    const size_t first = phase.sent;
    for (size_t j = 0; j < step.due.size(); ++j) {
      const double due = step_start + step.due[j];
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due)));
      const size_t i = phase.sent++;
      Record& rec = phase.records[i];
      rec.due = due;
      rec.table = step.table[j];
      rec.step = static_cast<uint32_t>(k);
      unidetect::wire::DetectRequest request;
      request.tables = {state->pool.corpus.tables[rec.table]};
      const Clock::time_point send_start = Clock::now();
      rec.sent = SecondsFrom(origin, send_start);
      auto done = [&, i, send_start](unidetect::wire::DetectResponse r) {
        const Clock::time_point now = Clock::now();
        tracer->Record("client.request", send_start, now, -1, i);
        {
          std::lock_guard<std::mutex> lock(mu);
          Record& target = phase.records[i];
          target.done = SecondsFrom(origin, now);
          target.response = std::move(r);
          ++completed;
        }
        cv.notify_all();
      };
      state->clients[i % state->clients.size()]->Detect(
          std::move(request), std::move(done), kClientTimeoutMs);
      tracer->Record("client.send", send_start, Clock::now(), -1, i);
    }
    const double last_due =
        step_start + (step.due.empty() ? 0.0 : step.due.back());
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_until(lock,
                    origin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     last_due + kDrainSeconds)),
                    [&] { return completed == phase.sent; });
    }
    // Step statistics, in due order. A request that failed or never
    // completed counts as missing any latency limit.
    std::vector<double> latency;
    for (size_t i = first; i < phase.sent; ++i) {
      const Record& rec = phase.records[i];
      std::lock_guard<std::mutex> lock(mu);
      const bool ok = rec.done >= 0 &&
                      rec.response.code == unidetect::wire::WireCode::kOk;
      if (!ok) ++rung.failed;
      latency.push_back(ok ? (rec.done - rec.due) * 1000.0 : 1e9);
    }
    rung.p99_ms = WindowedP99(latency);
    rung.backlog_growing = BacklogGrowing(latency, limit_ms);
    std::fprintf(stderr,
                 "udbench: step %zu: %.0f req/s offered, %zu sent, p50 %.3f ms, "
                 "p90 %.3f p95 %.3f p99 %.3f ms, backlog %s, failed %llu\n",
                 k, step.rps, latency.size(), Percentile(latency, 0.5),
                 Percentile(latency, 0.9), Percentile(latency, 0.95),
                 rung.p99_ms, rung.backlog_growing ? "growing" : "flat",
                 static_cast<unsigned long long>(rung.failed));
    phase.ladder.push_back(rung);
    // Two overloaded steps in a row end the ladder. One alone may be a
    // host stall, and a step that missed only the p99 limit is no sign
    // of overload at all.
    const bool overloaded = rung.backlog_growing || rung.failed > 0;
    overloaded_in_a_row = overloaded ? overloaded_in_a_row + 1 : 0;
    if (overloaded_in_a_row == 2) stopped = true;
    step_start = SecondsFrom(origin, Clock::now()) + 0.002;
  }
  publisher.reset();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5),
                [&] { return completed == phase.sent; });
  }
  phase.wall_s = SecondsFrom(origin, Clock::now());
  SnapshotServer(*state, phase.counters_after, &phase.queue_after,
                 &phase.stats_after);
  // Closing the connections fails anything still outstanding, so every
  // record is final once the clients are gone.
  state->clients.clear();
  std::sort(phase.timeline.begin(), phase.timeline.end(),
            [](const Generation& a, const Generation& b) {
              return a.generation < b.generation;
            });
  return phase;
}

/// Reference answers for one (table, layer chain): the findings, their
/// bytes, and the in-process DetectBatch time.
struct Reference {
  std::vector<unidetect::Finding> findings;
  std::string bytes;
  double detect_us = 0.0;
};

struct CheckResult {
  uint64_t attempted = 0;
  /// Wrong answers anywhere, and errors or refusals at the reference step.
  uint64_t failed = 0;
  /// Refusals and timeouts on the steps above the reference rate.
  uint64_t refused = 0;
  std::string first_error;
  /// Per record: in-process DetectBatch time when the record was the
  /// first request for its (table, generation) — a findings-cache miss
  /// — else negative.
  std::vector<double> first_detect_us;
  double precision = 0.0;
  double delta_layers_mean = 0.0;
  double repeat_share = 0.0;
};

// Compares every response with an in-process DetectionService::DetectBatch
// reference for the generation the response reports.
CheckResult CheckPhase(const State& state, const Phase& phase,
                       size_t precision_k) {
  CheckResult out;
  out.first_detect_us.assign(phase.sent, -1.0);
  std::map<uint64_t, const Generation*> by_gen;
  for (const Generation& g : phase.timeline) by_gen[g.generation] = &g;
  // Generations that serve the same layer chain share one reference.
  std::map<std::vector<std::string>, std::unique_ptr<unidetect::DetectionService>>
      refs;
  std::map<std::pair<uint32_t, const std::vector<std::string>*>, Reference>
      memo;
  std::set<std::pair<uint32_t, uint64_t>> served_pairs;  // (table, gen)
  // References are kept only for tables requested more than once.
  std::vector<uint32_t> uses(state.pool.corpus.tables.size(), 0);
  for (size_t i = 0; i < phase.sent; ++i) ++uses[phase.records[i].table];
  std::vector<char> seen_table(state.pool.corpus.tables.size(), 0);
  std::vector<unidetect::Finding> ranked;
  uint64_t repeats = 0;
  double layer_sum = 0.0;
  uint64_t ok_count = 0;
  auto fail = [&](const std::string& why) {
    ++out.failed;
    if (out.first_error.empty()) out.first_error = why;
  };
  // The memoized reference of `table` on `chain`; memo.end() on failure.
  auto reference = [&](uint32_t table, const std::vector<std::string>& chain) {
    auto slot = refs.find(chain);
    if (slot == refs.end()) slot = refs.emplace(chain, nullptr).first;
    const auto key = std::make_pair(table, &slot->first);
    auto it = memo.find(key);
    if (it != memo.end()) return it;
    auto& ref = slot->second;
    if (ref == nullptr) {
      auto created =
          unidetect::DetectionService::Create(chain[0], ServeOptions(), 0);
      if (!created.ok()) {
        fail(StrCat("reference: ", created.status().ToString()));
        return memo.end();
      }
      ref = std::move(*created);
      for (size_t l = 1; l < chain.size(); ++l) {
        const unidetect::Status st = ref->ApplyDelta(chain[l]);
        if (!st.ok()) fail(StrCat("reference delta: ", st.ToString()));
      }
    }
    const Clock::time_point start = Clock::now();
    auto result = ref->DetectBatch(
        std::span<const unidetect::Table>(&state.pool.corpus.tables[table], 1));
    const double us = Micros(Clock::now() - start);
    std::string bytes = FindingsBytes(result.per_table);
    return memo
        .emplace(key, Reference{std::move(result.per_table[0]),
                                std::move(bytes), us})
        .first;
  };
  // Precision is scored on the chain the phase began with (the timeline
  // is in generation order), whichever generation answered each request,
  // so it depends on the seed alone.
  const std::vector<std::string>& first_chain = phase.timeline.front().chain;
  for (size_t i = 0; i < phase.sent; ++i) {
    const Record& rec = phase.records[i];
    ++out.attempted;
    const bool first_for_table = !seen_table[rec.table];
    if (!first_for_table) ++repeats;
    seen_table[rec.table] = 1;
    if (first_for_table && rec.step == 0) {
      const auto it = reference(rec.table, first_chain);
      if (it == memo.end()) continue;
      for (unidetect::Finding f : it->second.findings) {
        f.table_index = rec.table;
        ranked.push_back(std::move(f));
      }
    }
    // Above the reference step a refusal or timeout is the ladder's
    // overload signal (it fails that step), not an error of the run.
    auto refuse_or_fail = [&](const std::string& why) {
      if (rec.step == 0) {
        fail(why);
      } else {
        ++out.refused;
      }
    };
    if (rec.done < 0) {
      refuse_or_fail(StrCat("request ", i, " never completed"));
      continue;
    }
    const uint64_t gen = rec.response.generation;
    if (rec.response.code != unidetect::wire::WireCode::kOk) {
      refuse_or_fail(StrCat("request ", i, ": ",
                            unidetect::wire::WireCodeName(rec.response.code),
                            " ", rec.response.error));
      continue;
    }
    const auto g = by_gen.find(gen);
    if (g == by_gen.end()) {
      fail(StrCat("request ", i, ": unknown generation ", gen));
      continue;
    }
    // The generation must have been live at some point between send and
    // response: swapped in before the response, not retired before send.
    uint64_t lo = 0, hi = 0;
    for (const Generation& t : phase.timeline) {
      if (t.end_s <= rec.sent) lo = t.generation;
      if (t.start_s <= rec.done) hi = t.generation;
    }
    const auto it = reference(rec.table, g->second->chain);
    if (it == memo.end()) continue;
    if (served_pairs.insert({rec.table, gen}).second) {
      out.first_detect_us[i] = it->second.detect_us;
    }
    const std::string why =
        CheckResponse(rec.response, it->second.bytes, lo, hi);
    if (!why.empty()) {
      fail(StrCat("request ", i, ": ", why));
      continue;
    }
    if (uses[rec.table] == 1) memo.erase(it);  // never needed again
    ++ok_count;
    layer_sum += static_cast<double>(g->second->chain.size() - 1);
  }
  unidetect::SortFindings(&ranked);
  out.precision = unidetect::EvaluatePrecision("reference", ranked, state.truth,
                                               {precision_k})
                      .precision[0];
  out.delta_layers_mean =
      ok_count > 0 ? layer_sum / static_cast<double>(ok_count) : 0.0;
  out.repeat_share = out.attempted > 0 ? static_cast<double>(repeats) /
                                             static_cast<double>(out.attempted)
                                       : 0.0;
  return out;
}

std::vector<double> StepLatencies(const Phase& phase, uint32_t step) {
  std::vector<double> latency;
  for (size_t i = 0; i < phase.sent; ++i) {
    const Record& rec = phase.records[i];
    if (rec.step != step) continue;
    const bool ok =
        rec.done >= 0 && rec.response.code == unidetect::wire::WireCode::kOk;
    latency.push_back(ok ? (rec.done - rec.due) * 1000.0 : 1e9);
  }
  return latency;
}

// Highest completed-tables rate over the steps that ran: the offered rate
// below capacity, the capacity itself once a step overloads.
double PeakTablesPerSecond(const Phase& phase) {
  double best = 0.0;
  for (uint32_t k = 0; k < phase.ladder.size(); ++k) {
    double first_due = 1e18, last_done = -1e18;
    double tables = 0;
    for (size_t i = 0; i < phase.sent; ++i) {
      const Record& rec = phase.records[i];
      if (rec.step != k) continue;
      first_due = std::min(first_due, rec.due);
      if (rec.done >= 0 &&
          rec.response.code == unidetect::wire::WireCode::kOk) {
        last_done = std::max(last_done, rec.done);
        tables += static_cast<double>(rec.response.per_table.size());
      }
    }
    if (tables > 0 && last_done > first_due) {
      best = std::max(best, tables / (last_done - first_due));
    }
  }
  return best;
}

uint64_t CounterDelta(const Phase& phase, unidetect::ServerMetric m) {
  const size_t i = static_cast<size_t>(m);
  return phase.counters_after[i] - phase.counters_before[i];
}

// The server, client, coalescer, serving and findings-cache layers, from
// a phase and its check. Returns the dominant-layer line for `name`.
std::string ReportServingLayers(const Phase& phase, const CheckResult& check,
                                const std::vector<double>& publish_us,
                                const char* name, Report* report) {
  std::vector<double> overhead_us, lag_ms, detect_us;
  double busy_us = 0.0;
  for (size_t i = 0; i < phase.sent; ++i) {
    const Record& rec = phase.records[i];
    lag_ms.push_back((rec.sent - rec.due) * 1000.0);
    if (check.first_detect_us[i] >= 0 && rec.done >= 0) {
      detect_us.push_back(check.first_detect_us[i]);
      busy_us += check.first_detect_us[i];
      overhead_us.push_back((rec.done - rec.sent) * 1e6 -
                            check.first_detect_us[i]);
    }
  }
  using unidetect::ServerMetric;
  auto delta = [&](ServerMetric m) {
    return static_cast<double>(CounterDelta(phase, m));
  };
  auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double requests = delta(ServerMetric::kRequests);
  report->Set("server.overhead_p50_us", Median(overhead_us));
  report->Set("server.bytes_per_request",
              per(delta(ServerMetric::kBytesRead) +
                      delta(ServerMetric::kBytesWritten),
                  requests));
  report->Set("client.send_lag_p99_ms", Percentile(lag_ms, 0.99));
  unidetect::LatencyBuckets queue{};
  uint64_t queued = 0;
  for (size_t b = 0; b < queue.size(); ++b) {
    queue[b] = phase.queue_after[b] - phase.queue_before[b];
    queued += queue[b];
  }
  auto queue_pct = [&](double q) {
    return queued ? unidetect::LatencyPercentileUpperBound(queue, queued, q)
                  : 0.0;
  };
  const double queue_us = queue_pct(0.5);
  report->Set("coalescer.queue_wait_p50_us", queue_us);
  report->Set("coalescer.queue_wait_p99_us", queue_pct(0.99));
  report->Set("coalescer.tables_per_batch",
              per(delta(ServerMetric::kBatchedTables),
                  delta(ServerMetric::kBatches)));
  report->Set("coalescer.coalesced_share",
              per(delta(ServerMetric::kCoalescedRequests), requests));
  report->Set("coalescer.worker_busy_share", per(busy_us, phase.wall_s * 1e6));
  report->Set("coalescer.shed", delta(ServerMetric::kShedOverload) +
                                    delta(ServerMetric::kShedConnectionCap) +
                                    delta(ServerMetric::kExpiredDeadline));
  const double detect = Mean(detect_us);
  report->Set("serving.detect_batch_us", detect);
  report->Set("serving.publish_us", Mean(publish_us));
  report->Set("serving.delta_layers_mean", check.delta_layers_mean);
  const double hits = static_cast<double>(phase.stats_after.cache_hits -
                                          phase.stats_before.cache_hits);
  const double misses = static_cast<double>(phase.stats_after.cache_misses -
                                            phase.stats_before.cache_misses);
  report->Set("findings_cache.hit_rate", per(hits, hits + misses));
  report->Set("findings_cache.evictions",
              static_cast<double>(phase.stats_after.cache_evictions -
                                  phase.stats_before.cache_evictions));
  report->Set("findings_cache.repeat_share", check.repeat_share);

  // Which layer dominates the median request.
  const double overhead = Median(overhead_us);
  const double front = overhead - queue_us;
  std::string layer = "server front end (event loop, wire, client)";
  double share = front;
  if (queue_us > share) {
    layer = "coalescer admission and batching wait";
    share = queue_us;
  }
  if (detect > share) {
    layer = "detection (serving DetectBatch)";
    share = detect;
  }
  return StrCat(name, ": ", layer, " dominates the median request (~",
                static_cast<int64_t>(share), " us of ~",
                static_cast<int64_t>(overhead + detect),
                " us round trip; queue-wait bucket bound ",
                static_cast<int64_t>(queue_us), " us, detect ",
                static_cast<int64_t>(detect), " us)");
}

}  // namespace

bool ServeProbe(const RunConfig& config, Serving* serving,
                const unidetect::AnnotatedCorpus& corpus,
                const unidetect::GroundTruth& truth, double rps,
                Tracer* tracer, Report* report, RunOutcome* outcome) {
  State state;
  state.pool = corpus;
  state.truth = truth;
  Step step;
  step.rps = rps;
  step.due = ArrivalSchedule(0.0, rps, corpus.corpus.tables.size(),
                             DeriveSeed(config.seed, 300));
  for (uint32_t t = 0; t < step.due.size(); ++t) step.table.push_back(t);
  state.steps.push_back(std::move(step));
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = unidetect::AsyncUdwireClient::Connect(
        "127.0.0.1", serving->server->port());
    if (!client.ok()) {
      outcome->fatal = client.status().ToString();
      return false;
    }
    state.clients.push_back(std::move(*client));
  }
  state.serving = serving;
  const Phase phase = RunPhase(&state, SpecFor(false), 1e9, tracer);
  const CheckResult check = CheckPhase(state, phase, 100);
  outcome->attempted += check.attempted;
  outcome->failed += check.failed;
  if (outcome->first_error.empty()) outcome->first_error = check.first_error;
  std::vector<double> publish_us;
  ReportServingLayers(phase, check, publish_us, "serve probe", report);
  return true;
}

RunOutcome RunOnline(const RunConfig& config, bool churn, Report* report) {
  const OnlineSpec spec = SpecFor(churn);
  RunOutcome outcome;
  outcome.host_json =
      HostFactsJson(config, /*threads=*/kConnections + 1,
                    kConnections);
  const std::string dir = config.work_dir + "/online";
  std::filesystem::create_directories(dir);

  // Set-up, repeated; the last repetition is the one measured.
  std::vector<double> setup_s;
  std::vector<SetupTimes> times;
  unidetect::Result<State> state = unidetect::Status::Internal("no setup");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state = unidetect::Status::Internal("torn down");  // stops the old server
    state = Setup(config, spec, dir);
    if (!state.ok()) {
      outcome.fatal = state.status().ToString();
      return outcome;
    }
    setup_s.push_back(state->setup_s);
    times.push_back(state->times);
  }

  if (churn) {
    std::fprintf(stderr,
                 "udbench: Zipf exponent %.4f for a repeat share of %.2f; "
                 "a publish tick every %.3f s\n",
                 state->zipf_s, spec.repeat_share, state->publish_every_s);
  }
  Tracer untraced(false);
  const Phase phase = RunPhase(&*state, spec, spec.limit_ms, &untraced);
  const CheckResult check = CheckPhase(*state, phase, spec.precision_k);
  outcome.attempted = check.attempted;
  outcome.failed = check.failed + phase.publish_failures;
  outcome.first_error =
      !check.first_error.empty() ? check.first_error : phase.publish_error;
  const std::vector<double> ref_latency = StepLatencies(phase, 0);
  const double p50 = Median(ref_latency);

  if (!config.trace) {
    report->Set("setup_s", Median(setup_s));
    report->Set("p50_ms", p50);
    report->Set("max_rate_rps", MaxRateRps(phase.ladder, spec.limit_ms));
    report->Set("tables_per_s", PeakTablesPerSecond(phase));
    report->Set("precision_at_k", check.precision);
    report->Set("publish_p50_ms",
                MedianOfMedians(churn ? phase.publish_ms
                                      : SetupPublishByDepth(times)));
    report->Set("peak_rss_mb", PeakRssMb());
    return outcome;
  }

  // Traced run: the same phase again on a fresh set-up, with spans.
  state = unidetect::Status::Internal("torn down");
  state = Setup(config, spec, dir);
  if (!state.ok()) {
    outcome.fatal = state.status().ToString();
    return outcome;
  }
  Tracer tracer(true);
  const Phase traced = RunPhase(&*state, spec, spec.limit_ms, &tracer);
  const CheckResult tcheck = CheckPhase(*state, traced, spec.precision_k);
  outcome.attempted += tcheck.attempted;
  outcome.failed += tcheck.failed + traced.publish_failures;
  if (outcome.first_error.empty()) {
    outcome.first_error =
        !tcheck.first_error.empty() ? tcheck.first_error : traced.publish_error;
  }
  const std::vector<double> traced_ref = StepLatencies(traced, 0);
  const double traced_p50 = Median(traced_ref);
  report->Set("client.p99_ms", WindowedP99(traced_ref));

  std::vector<double> publish_us;
  for (const auto& depth : churn ? traced.publish_ms
                                 : SetupPublishByDepth({state->times})) {
    for (double ms : depth) publish_us.push_back(ms * 1000.0);
  }
  outcome.dominant_layer =
      ReportServingLayers(traced, tcheck, publish_us, spec.name, report);

  // Compaction: the churn phase's folds; elsewhere one fold of the served
  // chain after the phase.
  std::vector<double> compact_ms = traced.compact_ms;
  if (!churn) {
    const double ms = CompactionProbe(state->serving->service.get(),
                                      dir + "/compacted.udsnap", &tracer);
    if (ms < 0) {
      ++outcome.failed;
      if (outcome.first_error.empty()) outcome.first_error = "compaction probe";
    }
    compact_ms.push_back(ms);
  }
  report->Set("compactor.compact_ms", Mean(compact_ms));
  report->Set("compactor.compactions", static_cast<double>(compact_ms.size()));
  ReportSetupLayers(times, report);

  // The detection layers, on a sample of the tables this workload served.
  WalkInputs walk;
  walk.threads = config.nproc;
  walk.served_depth = kChainDepth;
  walk.chain = {state->chain.bases[0]};
  walk.chain.insert(walk.chain.end(), state->chain.deltas[0].begin(),
                    state->chain.deltas[0].end());
  std::vector<char> picked(state->pool.corpus.tables.size(), 0);
  const size_t sample = churn ? 300 : 600;
  for (size_t i = 0; i < traced.sent && walk.tables.size() < sample; ++i) {
    const uint32_t t = traced.records[i].table;
    if (picked[t]) continue;
    picked[t] = 1;
    walk.tables.push_back(&state->pool.corpus.tables[t]);
  }
  std::string error;
  if (!LayerWalk(walk, &tracer, report, &error)) {
    outcome.fatal = error;
    return outcome;
  }
  report->Set("trace.untraced_p50_ms", p50);
  report->Set("trace.overhead_pct",
              p50 > 0 ? (traced_p50 - p50) / p50 * 100.0 : 0.0);
  report->Set("trace.spans", static_cast<double>(tracer.size()));
  WriteTrace(config, tracer, outcome);
  return outcome;
}

}  // namespace udbench
