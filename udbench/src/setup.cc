#include "setup.h"

#include <filesystem>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "learn/trainer.h"
#include "model_format/model_view.h"
#include "offline/compactor.h"
#include "offline/delta_build.h"
#include "trace.h"
#include "workloads.h"
#include "bench_stats.h"
#include "util/json.h"
#include "util/random.h"
#include "util/string_util.h"

namespace udbench {

using unidetect::Result;
using unidetect::Status;

namespace {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Folds `base` + `deltas` into `out` with Compactor::CompactOnce on a
// scratch service, so the result is byte for byte the base the serving
// compactor will produce from the same chain.
Status FoldChain(const std::string& base, const std::vector<std::string>& deltas,
                 const std::string& out) {
  UNIDETECT_ASSIGN_OR_RETURN(auto service,
                             unidetect::DetectionService::Create(base));
  for (const std::string& delta : deltas) {
    UNIDETECT_RETURN_NOT_OK(service->ApplyDelta(delta));
  }
  unidetect::CompactorOptions options;
  options.output_path = out;
  UNIDETECT_ASSIGN_OR_RETURN(
      const bool folded,
      unidetect::Compactor(service.get(), options).CompactOnce());
  return folded ? Status::OK() : Status::Internal("fold did not swap");
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return unidetect::SplitMix64(state);
}

Result<ChainFiles> BuildChain(const std::string& dir, size_t cycles,
                              size_t threads, SetupTimes* times) {
  constexpr uint64_t kModelSeed = 1131;
  ChainFiles files;
  Clock::time_point t0 = Clock::now();
  const unidetect::Corpus base_corpus =
      unidetect::GenerateCorpus(
          unidetect::WebCorpusSpec(kBaseTables, kModelSeed))
          .corpus;
  Clock::time_point t1 = Clock::now();
  times->generate_s += SecondsBetween(t0, t1);
  unidetect::TrainerOptions trainer_options;
  trainer_options.num_threads = threads;
  const unidetect::Model base =
      unidetect::Trainer(trainer_options).Train(base_corpus);
  Clock::time_point t2 = Clock::now();
  times->train_s += SecondsBetween(t1, t2);
  files.bases.push_back(dir + "/base0.udsnap");
  UNIDETECT_RETURN_NOT_OK(base.Save(files.bases[0]));
  times->save_s += SecondsBetween(t2, Clock::now());

  t0 = Clock::now();
  for (size_t c = 0; c < cycles; ++c) {
    if (c > 0) {
      files.bases.push_back(unidetect::StrCat(dir, "/base", c, ".udsnap"));
      UNIDETECT_RETURN_NOT_OK(
          FoldChain(files.bases[c - 1], files.deltas[c - 1], files.bases[c]));
    }
    files.deltas.emplace_back();
    std::string parent;
    for (size_t i = 0; i < kChainDepth; ++i) {
      const std::string shard = unidetect::StrCat(dir, "/shard", c, "_", i);
      std::filesystem::remove_all(shard);
      UNIDETECT_RETURN_NOT_OK(unidetect::SaveCorpusToDirectory(
          unidetect::GenerateCorpus(
              unidetect::WebCorpusSpec(
                  kDeltaTables, kModelSeed + 1 + c * kChainDepth + i))
              .corpus,
          shard));
      unidetect::DeltaBuildSpec spec;
      spec.base_path = files.bases[c];
      spec.parent_path = parent;
      spec.input_dirs = {shard};
      spec.out_path = unidetect::StrCat(dir, "/delta", c, "_", i, ".udsnap");
      spec.num_threads = threads;
      UNIDETECT_RETURN_NOT_OK(unidetect::BuildDeltaSnapshot(spec).status());
      parent = spec.out_path;
      files.deltas.back().push_back(spec.out_path);
    }
  }
  times->delta_build_s += SecondsBetween(t0, Clock::now());

  // Open cost of the artifacts, as the serving tier opens them.
  for (const std::string& path : {files.bases[0], files.deltas[0][0]}) {
    const Clock::time_point start = Clock::now();
    UNIDETECT_RETURN_NOT_OK(unidetect::ModelView::Open(path).status());
    const double us = Micros(Clock::now() - start);
    (path == files.bases[0] ? times->open_base_us : times->open_delta_us)
        .push_back(us);
  }
  return files;
}

std::vector<std::vector<double>> SetupPublishByDepth(
    const std::vector<SetupTimes>& reps) {
  std::vector<std::vector<double>> by_depth(kChainDepth);
  for (const SetupTimes& t : reps) {
    for (size_t d = 0; d < t.publish_ms.size() && d < kChainDepth; ++d) {
      by_depth[d].push_back(t.publish_ms[d]);
    }
  }
  return by_depth;
}

Serving::~Serving() {
  if (server != nullptr) server->Stop();
}

unidetect::UniDetectOptions ServeOptions() { return {}; }

Result<std::unique_ptr<Serving>> StartServing(
    const std::string& base, const std::vector<std::string>& publish,
    SetupTimes* times) {
  auto serving = std::make_unique<Serving>();
  UNIDETECT_ASSIGN_OR_RETURN(
      serving->service,
      unidetect::DetectionService::Create(base, ServeOptions(),
                                          kServeCacheBytes));
  for (const std::string& delta : publish) {
    const Clock::time_point start = Clock::now();
    UNIDETECT_RETURN_NOT_OK(serving->service->ApplyDelta(delta));
    times->publish_ms.push_back(Micros(Clock::now() - start) / 1000.0);
  }
  const Clock::time_point start = Clock::now();
  serving->server = std::make_unique<unidetect::DetectionServer>(
      serving->service.get(), unidetect::ServerOptions{});
  UNIDETECT_RETURN_NOT_OK(serving->server->Start());
  times->server_start_ms += Micros(Clock::now() - start) / 1000.0;
  return serving;
}

void ReportSetupLayers(const std::vector<SetupTimes>& reps, Report* report) {
  auto median = [&](auto member) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) v.push_back(t.*member);
    return Median(v);
  };
  auto pooled = [&](auto member) {
    std::vector<double> v;
    for (const SetupTimes& t : reps) {
      v.insert(v.end(), (t.*member).begin(), (t.*member).end());
    }
    return Median(v);
  };
  report->Set("setup.generate_s", median(&SetupTimes::generate_s));
  report->Set("setup.train_s", median(&SetupTimes::train_s));
  report->Set("setup.save_s", median(&SetupTimes::save_s));
  report->Set("setup.delta_build_s", median(&SetupTimes::delta_build_s));
  report->Set("setup.server_start_ms", median(&SetupTimes::server_start_ms));
  report->Set("model_format.open_us", pooled(&SetupTimes::open_base_us));
  report->Set("model_format.open_delta_us", pooled(&SetupTimes::open_delta_us));
}

double CompactionProbe(unidetect::DetectionService* service,
                       const std::string& out_path, Tracer* tracer) {
  unidetect::CompactorOptions options;
  options.output_path = out_path;
  unidetect::Compactor compactor(service, options);
  const Clock::time_point start = Clock::now();
  const auto folded = compactor.CompactOnce();
  const Clock::time_point end = Clock::now();
  tracer->Record("compactor.compact", start, end);
  if (!folded.ok() || !*folded) return -1.0;
  return Micros(end - start) / 1000.0;
}

void WriteTrace(const RunConfig& config, const Tracer& tracer,
                const RunOutcome& outcome) {
  if (config.trace_out.empty()) return;
  tracer.WriteJson(config.trace_out,
                   unidetect::StrCat(
                       "{\"host\": ", outcome.host_json,
                       ", \"dominant_layer\": ",
                       unidetect::JsonString(outcome.dominant_layer), "}"));
}

}  // namespace udbench
