// serve_demo: the serving tier end to end — load a model snapshot into a
// DetectionService with the findings cache enabled, answer batched
// detection requests (the repeated batch is served from the cache),
// hot-swap the model with Reload() while requests keep flowing, rebuild
// the model through the sharded offline pipeline (plan -> build ->
// merge) and hot-swap the merged snapshot in, publish an incremental
// delta with ApplyDelta() and fold it away with the compactor, and
// print the service counters including the cache hit/miss/eviction
// numbers and the delta-chain gauges.
// Without a model path it trains a small model first (and saves it as a
// binary snapshot) so the demo is self-contained.
//
//   $ ./build/examples/serve_demo [model_path] [num_request_tables]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "eval/injection.h"
#include "learn/trainer.h"
#include "offline/compactor.h"
#include "offline/delta_build.h"
#include "offline/offline_build.h"
#include "server/client.h"
#include "server/server.h"
#include "serving/detection_service.h"
#include "util/logging.h"

using namespace unidetect;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::string path = argc > 1 ? argv[1] : "serve_demo.model";
  const size_t num_tables =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 64;

  // Ensure a model snapshot exists at `path` (train one if not).
  if (!Model::Load(path).ok()) {
    std::printf("No model at %s; training a small one...\n", path.c_str());
    Trainer trainer;
    const Model model =
        trainer.Train(GenerateCorpus(WebCorpusSpec(2000, 7)).corpus);
    const Status st = model.Save(path);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Stand up the service with the findings cache enabled: repeated
  // batches over unchanged tables are answered from the per-column
  // fingerprint -> findings LRU instead of re-running detection.
  auto service = DetectionService::Create(path, UniDetectOptions{},
                                          /*findings_cache_bytes=*/8u << 20);
  if (!service.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  std::printf("Serving model %s (generation %llu)\n", path.c_str(),
              static_cast<unsigned long long>((*service)->generation()));

  // A batch of "request" tables with injected errors.
  AnnotatedCorpus requests = GenerateCorpus(WebCorpusSpec(num_tables, 11));
  InjectErrors(&requests, InjectionSpec{});

  const DetectionService::BatchResult batch =
      (*service)->DetectBatch(requests.corpus.tables);
  size_t total = 0;
  for (const auto& findings : batch.per_table) total += findings.size();
  std::printf("Batch of %zu tables -> %zu findings (generation %llu)\n",
              batch.per_table.size(), total,
              static_cast<unsigned long long>(batch.generation));

  // The same batch again: every table fingerprint hits the findings
  // cache, so the responses skip detection entirely.
  const DetectionService::BatchResult warm =
      (*service)->DetectBatch(requests.corpus.tables);
  size_t warm_total = 0;
  for (const auto& findings : warm.per_table) warm_total += findings.size();
  std::printf("Same batch again (warm cache) -> %zu findings\n", warm_total);

  // Per-request override: stricter alpha, fewer findings.
  UniDetectOptions strict;
  strict.alpha = 1e-4;
  const DetectionService::BatchResult strict_batch =
      (*service)->DetectBatch(requests.corpus.tables, &strict);
  size_t strict_total = 0;
  for (const auto& findings : strict_batch.per_table) {
    strict_total += findings.size();
  }
  std::printf("Same batch at alpha=1e-4 -> %zu findings\n", strict_total);

  // Hot swap: reload the same file; generation advances, service keeps
  // serving throughout (see DetectionServiceTest for the racing proof).
  const Status reload = (*service)->Reload(path);
  if (!reload.ok()) {
    std::fprintf(stderr, "reload: %s\n", reload.ToString().c_str());
    return 1;
  }
  std::printf("Reloaded -> generation %llu\n",
              static_cast<unsigned long long>((*service)->generation()));

  // Production retrain path: the sharded offline pipeline (DESIGN.md
  // section 11) crunches a corpus directory into per-shard partials,
  // merges them into a snapshot, and the service hot-swaps it in. In
  // deployment plan/build/merge run out-of-process (tools/offline_build
  // plan|build|merge); the service only ever sees the merged file.
  const std::string corpus_dir = path + ".corpus";
  const std::string build_dir = path + ".offline";
  std::filesystem::remove_all(corpus_dir);
  std::filesystem::remove_all(build_dir);
  Status offline = SaveCorpusToDirectory(
      GenerateCorpus(WebCorpusSpec(200, 19)).corpus, corpus_dir);
  if (offline.ok()) {
    offline = PlanOfflineBuild({corpus_dir}, TrainerOptions{},
                               /*num_shards=*/4, build_dir);
  }
  if (offline.ok()) {
    OfflineBuildOptions build_options;
    build_options.num_threads = 4;
    offline = RunOfflineBuild(build_dir, build_options).status();
  }
  if (offline.ok()) offline = MergeOfflineBuildToFile(build_dir, path);
  if (offline.ok()) offline = (*service)->Reload(path);
  if (!offline.ok()) {
    std::fprintf(stderr, "offline rebuild: %s\n",
                 offline.ToString().c_str());
    return 1;
  }
  std::printf(
      "Offline rebuild (4 shards) merged and reloaded -> generation %llu\n",
      static_cast<unsigned long long>((*service)->generation()));

  // Incremental learning (DESIGN.md section 15): when new shards arrive,
  // train a small delta over only them, publish it with ApplyDelta (a
  // chain-hash check plus a pointer swap — microseconds, not a rebuild),
  // then fold the chain back into a fresh base with the compactor.
  const std::string delta_dir = path + ".delta_corpus";
  const std::string delta_path = path + ".delta1.udsnap";
  std::filesystem::remove_all(delta_dir);
  Status delta_status = SaveCorpusToDirectory(
      GenerateCorpus(WebCorpusSpec(40, 23)).corpus, delta_dir);
  if (delta_status.ok()) {
    DeltaBuildSpec spec;
    spec.base_path = path;
    spec.input_dirs = {delta_dir};
    spec.out_path = delta_path;
    delta_status = BuildDeltaSnapshot(spec).status();
  }
  if (delta_status.ok()) delta_status = (*service)->ApplyDelta(delta_path);
  if (!delta_status.ok()) {
    std::fprintf(stderr, "delta: %s\n", delta_status.ToString().c_str());
    return 1;
  }
  std::printf("Delta trained over 40 new tables and applied -> "
              "generation %llu, %zu layers\n",
              static_cast<unsigned long long>((*service)->generation()),
              (*service)->Layers().paths.size());

  // The layered service answers byte-identically to the merged fold;
  // the warm cache entries from the pre-delta generation self-invalidate
  // (the generation is part of the cache key), so this batch re-detects.
  const DetectionService::BatchResult layered =
      (*service)->DetectBatch(requests.corpus.tables);
  size_t layered_total = 0;
  for (const auto& findings : layered.per_table) {
    layered_total += findings.size();
  }
  std::printf("Batch over base+delta -> %zu findings (generation %llu)\n",
              layered_total,
              static_cast<unsigned long long>(layered.generation));

  // Compact: fold base+delta into a fresh base (bit-identical to the
  // offline Model::Merge fold) and swap it in via the generation CAS.
  // In deployment Compactor::Start() runs this loop in the background.
  CompactorOptions compact_options;
  compact_options.output_path = path + ".compacted.udsnap";
  Compactor compactor(service->get(), compact_options);
  const auto compacted = compactor.CompactOnce();
  if (!compacted.ok()) {
    std::fprintf(stderr, "compact: %s\n",
                 compacted.status().ToString().c_str());
    return 1;
  }
  std::printf("Compacted %s -> generation %llu, back to %zu layer(s)\n",
              compact_options.output_path.c_str(),
              static_cast<unsigned long long>((*service)->generation()),
              (*service)->Layers().paths.size());

  // Network front end (DESIGN.md section 16): the same service behind a
  // real socket. Port 0 picks an ephemeral port; one server thread
  // multiplexes UDWIRE and HTTP on it and runs each request's
  // DetectBatch inline. The loopback client's findings are
  // byte-identical to a direct DetectBatch call — the wire encodes
  // cells exactly.
  ServerOptions server_options;
  server_options.port = 0;
  DetectionServer server(service->get(), server_options);
  const Status served = server.Start();
  if (!served.ok()) {
    std::fprintf(stderr, "server: %s\n", served.ToString().c_str());
    return 1;
  }
  std::printf("\nServing on 127.0.0.1:%u (UDWIRE + HTTP)\n", server.port());

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }
  wire::DetectRequest net_request;
  net_request.deadline_ms = 30000;
  net_request.tables.assign(requests.corpus.tables.begin(),
                            requests.corpus.tables.begin() +
                                std::min<size_t>(8, num_tables));
  const wire::DetectResponse net_response =
      (*client)->DetectSync(std::move(net_request));
  if (net_response.code != wire::WireCode::kOk) {
    std::fprintf(stderr, "detect over wire failed: %s\n",
                 net_response.error.c_str());
    return 1;
  }
  size_t net_total = 0;
  for (const auto& findings : net_response.per_table) {
    net_total += findings.size();
  }
  std::printf("UDWIRE round trip: %zu tables -> %zu findings "
              "(generation %llu)\n",
              net_response.per_table.size(), net_total,
              static_cast<unsigned long long>(net_response.generation));

  // The HTTP adapter answers operational probes on the same port.
  const auto healthz = HttpFetch("127.0.0.1", server.port(), "GET",
                                 "/healthz");
  std::printf("GET /healthz -> %s", healthz.ok()
                                        ? healthz->substr(0, healthz->find(
                                                                 "\r\n"))
                                              .c_str()
                                        : "error");
  std::printf("\n");
  server.Stop();
  std::printf("Server drained and stopped; %llu requests served over "
              "the wire\n\n",
              static_cast<unsigned long long>(
                  server.metrics().Count(ServerMetric::kRequests)));

  const ServiceStats stats = (*service)->Stats();
  std::printf("Stats: %llu requests, %llu tables, %llu findings, "
              "%llu reloads, p50 < %.0fus, p99 < %.0fus\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.tables),
              static_cast<unsigned long long>(stats.findings),
              static_cast<unsigned long long>(stats.reloads),
              stats.latency_p50_us, stats.latency_p99_us);
  std::printf("Reload latency: p50 < %.0fus, p99 < %.0fus\n",
              stats.reload_latency_p50_us, stats.reload_latency_p99_us);
  std::printf("Model storage: %llu resident bytes, %llu mapped bytes%s\n",
              static_cast<unsigned long long>(stats.model_resident_bytes),
              static_cast<unsigned long long>(stats.model_mapped_bytes),
              stats.model_mapped_bytes > 0 ? " (zero-copy snapshot)" : "");
  std::printf("Findings cache: %llu hits / %llu misses (%.0f%% hit rate), "
              "%llu entries, %llu resident bytes, %llu evictions\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses),
              100.0 * stats.cache_hit_rate,
              static_cast<unsigned long long>(stats.cache_entries),
              static_cast<unsigned long long>(stats.cache_resident_bytes),
              static_cast<unsigned long long>(stats.cache_evictions));
  std::printf("Delta chain: %llu resident delta layers, %llu delta bytes, "
              "%llu deltas applied, %llu compactions\n",
              static_cast<unsigned long long>(stats.delta_layers),
              static_cast<unsigned long long>(stats.delta_resident_bytes),
              static_cast<unsigned long long>(stats.applied_deltas),
              static_cast<unsigned long long>(stats.compactions));
  return 0;
}
