// Microbenchmarks (google-benchmark) for the "interactive speed" claim
// of Section 2.2.3: online detection is a metric computation plus a
// model lookup. Covers the hot paths: edit distance, metric profiles,
// LR lookups, per-table detection, and offline training throughput.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "corpus/corpus_io.h"
#include "corpus/data_pools.h"
#include "corpus/generator.h"
#include "detect/unidetect.h"
#include "learn/candidates.h"
#include "learn/model_stack.h"
#include "learn/subset_stats.h"
#include "learn/table_columns.h"
#include "learn/trainer.h"
#include "metrics/edit_distance.h"
#include "metrics/metric_functions.h"
#include "model_format/delta_snapshot.h"
#include "model_format/model_snapshot.h"
#include "model_format/model_view.h"
#include "model_format/snapshot_v2.h"
#include "offline/compactor.h"
#include "offline/offline_build.h"
#include "reference/mpd_reference.h"
#include "reference/subset_stats_reference.h"
#include "serving/detection_service.h"
#include "util/binary_io.h"
#include "util/logging.h"
#include "util/random.h"

namespace unidetect {
namespace {

const Model& SharedModel() {
  static const Model* model = [] {
    SetLogLevel(LogLevel::kWarning);
    Trainer trainer;
    return new Model(
        trainer.Train(GenerateCorpus(WebCorpusSpec(5000, 31)).corpus));
  }();
  return *model;
}

void BM_EditDistance(benchmark::State& state) {
  const std::string a = "Keane, Mr. Andrew Jackson";
  const std::string b = "Keane, Mr. Andrew Jakcson";
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance);

void BM_BoundedEditDistance(benchmark::State& state) {
  const std::string a = "Keane, Mr. Andrew Jackson";
  const std::string b = "Katavelos, Mr. Vassilios G.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BoundedEditDistance(a, b, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_BoundedEditDistance)->Arg(2)->Arg(20);

Column MakeNameColumn(int64_t n) {
  Rng rng(7);
  std::vector<std::string> cells;
  for (int64_t i = 0; i < n; ++i) {
    cells.push_back(rng.Pick(FirstNames()) + " " + rng.Pick(LastNames()));
  }
  return Column("names", cells);
}

void BM_MpdProfile(benchmark::State& state) {
  const Column column = MakeNameColumn(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMpdProfile(column));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MpdProfile)->Arg(20)->Arg(50)->Arg(200)->Arg(400)->Complexity();

// Seed three-scan algorithm, kept as the baseline the optimized single
// pass is measured against (the test-only oracle in
// tests/reference/mpd_reference.h).
void BM_MpdProfileReference(benchmark::State& state) {
  const Column column = MakeNameColumn(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMpdProfileReference(column));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MpdProfileReference)
    ->Arg(20)
    ->Arg(50)
    ->Arg(200)
    ->Arg(400)
    ->Complexity();

void BM_UrProfile(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::string> cells;
  for (int64_t i = 0; i < state.range(0); ++i) {
    cells.push_back(rng.AlphaString(8));
  }
  const Column column("ids", cells);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeUrProfile(column));
  }
}
BENCHMARK(BM_UrProfile)->Arg(50)->Arg(500);

void BM_FrProfile(benchmark::State& state) {
  Rng rng(11);
  std::vector<std::string> lhs_cells;
  std::vector<std::string> rhs_cells;
  for (int64_t i = 0; i < state.range(0); ++i) {
    const CityEntry& entry = rng.Pick(Cities());
    lhs_cells.push_back(entry.city);
    rhs_cells.push_back(entry.country);
  }
  const Column lhs("city", lhs_cells);
  const Column rhs("country", rhs_cells);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeFrProfile(lhs, rhs));
  }
}
BENCHMARK(BM_FrProfile)->Arg(50)->Arg(500);

// The per-table column encoding (DESIGN.md section 17): EncodeColumn
// alone, and Prev(C) over the codes on a fresh EncodedColumn (encode +
// prevalence, as a detector pays it), on an Enterprise-shaped
// categorical column of city names against a 1000-table WEB index.
Column CityColumn(int64_t rows) {
  Rng rng(44);
  std::vector<std::string> cells;
  for (int64_t i = 0; i < rows; ++i) cells.push_back(rng.Pick(Cities()).city);
  return Column("city", std::move(cells));
}

const TokenIndex& SharedTokenIndex() {
  static const TokenIndex* index = [] {
    auto* out = new TokenIndex;
    for (const Table& table :
         GenerateCorpus(WebCorpusSpec(1000, 45)).corpus.tables) {
      out->AddTable(table);
    }
    return out;
  }();
  return *index;
}

void BM_EncodeColumn(benchmark::State& state) {
  const Column column = CityColumn(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeColumn(column));
  }
}
BENCHMARK(BM_EncodeColumn)->Arg(150)->Arg(900);

void BM_ColumnPrevalence(benchmark::State& state) {
  const Column column = CityColumn(state.range(0));
  const TokenPrevalence prevalence(SharedTokenIndex());
  for (auto _ : state) {
    const EncodedColumn encoded(column, prevalence);
    benchmark::DoNotOptimize(encoded.prevalence());
  }
}
BENCHMARK(BM_ColumnPrevalence)->Arg(150)->Arg(900);

void BM_LikelihoodRatioLookup(benchmark::State& state) {
  const Model& model = SharedModel();
  const Column probe("Hometown",
                     {"London", "Paris", "Paris", "Berlin", "Madrid", "Rome",
                      "Tokyo", "Delhi", "Oslo", "Cairo", "Lima", "Quito"});
  const UniquenessCandidate cand = ExtractUniquenessCandidate(
      probe, 0, model.token_index(), model.options());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.LikelihoodRatio(
        ErrorClass::kUniqueness, cand.key, cand.theta1, cand.theta2));
  }
}
BENCHMARK(BM_LikelihoodRatioLookup);

// Raw CountSurprising query against one large subset: merge-sort tree
// (BM_LrQuery) vs the linear reference scan (BM_LrQueryLinear). Thetas
// cycle through a precomputed pool so the query point varies per
// iteration without timing the RNG.
const SubsetStats& SharedLargeSubset() {
  static const SubsetStats* stats = [] {
    Rng rng(41);
    auto* s = new SubsetStats();
    for (int i = 0; i < 100000; ++i) {
      s->Add(rng.Uniform(0, 1000), rng.Uniform(0, 1000));
    }
    s->Finalize();
    return s;
  }();
  return *stats;
}

void BM_LrQuery(benchmark::State& state) {
  const SubsetStats& stats = SharedLargeSubset();
  Rng rng(43);
  std::vector<double> thetas(256);
  for (auto& t : thetas) t = rng.Uniform(0, 1000);
  size_t i = 0;
  for (auto _ : state) {
    const double t1 = thetas[i % thetas.size()];
    const double t2 = thetas[(i + 1) % thetas.size()];
    ++i;
    benchmark::DoNotOptimize(stats.CountSurprising(
        SurpriseDirection::kLowerMoreSurprising, t1, t2));
  }
}
BENCHMARK(BM_LrQuery)->Arg(100000);

void BM_LrQueryLinear(benchmark::State& state) {
  const SubsetStats& stats = SharedLargeSubset();
  Rng rng(43);
  std::vector<double> thetas(256);
  for (auto& t : thetas) t = rng.Uniform(0, 1000);
  size_t i = 0;
  for (auto _ : state) {
    const double t1 = thetas[i % thetas.size()];
    const double t2 = thetas[(i + 1) % thetas.size()];
    ++i;
    benchmark::DoNotOptimize(CountSurprisingLinear(
        stats, SurpriseDirection::kLowerMoreSurprising, t1, t2));
  }
}
BENCHMARK(BM_LrQueryLinear)->Arg(100000);

// CountSurprising over one theta stream, at two shapes. n=96 is
// leaf-dominated (every post swept by the linear leaf scan, no block
// above kLeafBlock fits), n=100000 is tree-dominated (binary searches do
// the bulk, the sweep covers only the sub-block leftover).
// SubsetStatsTest.CountSurprisingMatchesLinear pins the counts to the
// linear oracle.
const SubsetStats& BenchSubset(size_t n) {
  static auto* const cache = new std::map<size_t, const SubsetStats*>();
  auto it = cache->find(n);
  if (it != cache->end()) return *it->second;
  Rng rng(41);
  auto* s = new SubsetStats();
  for (size_t i = 0; i < n; ++i) {
    s->Add(rng.Uniform(0, 1000), rng.Uniform(0, 1000));
  }
  s->Finalize();
  return *cache->emplace(n, s).first->second;
}

void BM_CountSurprising(benchmark::State& state) {
  const SubsetStats& stats = BenchSubset(static_cast<size_t>(state.range(0)));
  Rng rng(43);
  std::vector<double> thetas(256);
  for (auto& t : thetas) t = rng.Uniform(0, 1000);
  size_t i = 0;
  for (auto _ : state) {
    const double t1 = thetas[i % thetas.size()];
    const double t2 = thetas[(i + 1) % thetas.size()];
    ++i;
    benchmark::DoNotOptimize(stats.CountSurprising(
        SurpriseDirection::kLowerMoreSurprising, t1, t2));
  }
}
BENCHMARK(BM_CountSurprising)->ArgName("n")->Arg(96)->Arg(100000);

void BM_DetectTable(benchmark::State& state) {
  const Model& model = SharedModel();
  Rng rng(13);
  AnnotatedTable t = GenerateTable(Archetype::kPartsInventory,
                                   static_cast<size_t>(state.range(0)), rng);
  UniDetectOptions options;
  options.alpha = 1.0;
  UniDetect detector(&model, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.DetectTable(t.table));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetectTable)->Arg(20)->Arg(100)->Arg(500);

void BM_TrainThroughput(benchmark::State& state) {
  const AnnotatedCorpus corpus =
      GenerateCorpus(WebCorpusSpec(static_cast<size_t>(state.range(0)), 17));
  for (auto _ : state) {
    Trainer trainer;
    benchmark::DoNotOptimize(trainer.Train(corpus.corpus));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrainThroughput)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateCorpus(WebCorpusSpec(static_cast<size_t>(state.range(0)), 19)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CorpusGeneration)->Arg(500)->Unit(benchmark::kMillisecond);

// Cold model load of the trained model's snapshot: a service restart
// pays file size + checksum. Writes once in setup and times Model::Load
// end to end (map, validate, decode).
void BM_ModelLoadBinary(benchmark::State& state) {
  const std::string path = "/tmp/unidetect_bench_binary.model";
  if (!SharedModel().Save(path).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    auto loaded = Model::Load(path);
    if (!loaded.ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(ReadFileToString(path)->size()));
}
BENCHMARK(BM_ModelLoadBinary)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// UDSNAP load and reload (DESIGN.md section 12). Synthetic models with
// a fixed subset count and a swept observation count, written once per
// size: open and reload stay O(#subsets) because the mapped flat layout
// is queried in place and deferred validation never reads the bulk
// payloads.

Model BuildSyntheticModel(uint64_t total_obs) {
  ModelOptions options;
  options.min_support = 1;
  Model model(options);
  Rng rng(97);
  constexpr uint64_t kSubsets = 16;
  const uint64_t per_subset = total_obs / kSubsets;
  for (uint64_t s = 0; s < kSubsets; ++s) {
    const FeatureKey key{s};
    for (uint64_t i = 0; i < per_subset; ++i) {
      const double pre = rng.Uniform(0.0, 1000.0);
      model.AddObservation(key, pre, rng.Uniform(0.0, pre));
    }
  }
  model.Finalize();
  return model;
}

const std::string& BenchSnapshotPath(int64_t total_obs) {
  static auto* const cache = new std::map<int64_t, std::string>();
  auto it = cache->find(total_obs);
  if (it != cache->end()) return it->second;
  const Model model = BuildSyntheticModel(static_cast<uint64_t>(total_obs));
  std::string path = std::filesystem::temp_directory_path().string() +
                     "/unidetect_bench_v2_" + std::to_string(total_obs) +
                     ".model";
  UNIDETECT_CHECK(WriteStringToFile(path, EncodeModelSnapshotV2(model)).ok());
  return cache->emplace(total_obs, std::move(path)).first->second;
}

// Cold open through the serving read handle (ModelView::Open, deferred
// validation — the DetectionService::Reload path). range(0) = total
// observations.
void BM_ModelLoadV2(benchmark::State& state) {
  const std::string& path = BenchSnapshotPath(state.range(0));
  for (auto _ : state) {
    auto view = ModelView::Open(path);
    if (!view.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    benchmark::DoNotOptimize(view->model().num_subsets());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(ReadFileToString(path)->size()));
}
BENCHMARK(BM_ModelLoadV2)
    ->ArgName("obs")
    ->Arg(100000)
    ->Arg(400000)
    ->Arg(1600000)
    ->Unit(benchmark::kMicrosecond);

// Full hot-swap latency: DetectionService::Reload end to end (open,
// engine construction, pointer swap); sub-linear in the observation
// count.
void BM_ReloadLatency(benchmark::State& state) {
  const std::string& path = BenchSnapshotPath(state.range(0));
  auto service = DetectionService::Create(path);
  if (!service.ok()) {
    state.SkipWithError("create failed");
    return;
  }
  for (auto _ : state) {
    UNIDETECT_CHECK((*service)->Reload(path).ok());
  }
}
BENCHMARK(BM_ReloadLatency)
    ->ArgName("obs")
    ->Arg(100000)
    ->Arg(400000)
    ->Arg(1600000)
    ->Unit(benchmark::kMicrosecond);

// LR lookup through a loaded model, queried in place over the mapped
// spans: the binary-searched sorted index and the SubsetStats query code
// are the same ones a freshly trained model answers through.
void BM_LrQueryLoadedModel(benchmark::State& state) {
  const std::string& path = BenchSnapshotPath(state.range(0));
  auto view = ModelView::Open(path);
  if (!view.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  const Model& model = view->model();
  Rng rng(43);
  std::vector<double> thetas(256);
  for (auto& t : thetas) t = rng.Uniform(0, 1000);
  size_t i = 0;
  for (auto _ : state) {
    const double t2 = thetas[i % thetas.size()];
    const double t1 = t2 / 2;
    const FeatureKey key{static_cast<uint64_t>(i % 16)};
    ++i;
    benchmark::DoNotOptimize(
        model.LikelihoodRatio(ErrorClass::kSpelling, key, t1, t2));
  }
}
BENCHMARK(BM_LrQueryLoadedModel)->ArgName("obs")->Arg(1600000);

// Serving-tier batch throughput: tables/second through DetectionService
// (one calling thread; UniDetect::DetectCorpus is the parallel path).
void BM_DetectBatch(benchmark::State& state) {
  static const Corpus* const batch = [] {
    return new Corpus(GenerateCorpus(WebCorpusSpec(64, 53)).corpus);
  }();
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(
      std::shared_ptr<const Model>(&SharedModel(), [](const Model*) {}),
      options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.DetectBatch(batch->tables));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch->tables.size()));
}
BENCHMARK(BM_DetectBatch)->Unit(benchmark::kMillisecond);

// The same batch through a service with the findings cache enabled: a
// setup pass warms it, so every timed iteration is fingerprint + LRU
// hit per table. Compare against the cold BM_DetectBatch numbers above
// for the memoization win (acceptance bound: >= 10x).
void BM_DetectBatchWarmCache(benchmark::State& state) {
  static const Corpus* const batch = [] {
    return new Corpus(GenerateCorpus(WebCorpusSpec(64, 53)).corpus);
  }();
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(
      std::shared_ptr<const Model>(&SharedModel(), [](const Model*) {}),
      options, /*findings_cache_bytes=*/64ull << 20);
  benchmark::DoNotOptimize(service.DetectBatch(batch->tables));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.DetectBatch(batch->tables));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch->tables.size()));
}
BENCHMARK(BM_DetectBatchWarmCache)->Unit(benchmark::kMillisecond);

// Offline build pipeline (DESIGN.md section 11): end-to-end sharded
// build at 1/2/4/8 shards (worker count matches shard count, so the
// argument sweep measures scaling), plus the cost of the final
// merge-all-partials fold on its own.
const std::string& OfflineBenchCorpusDir() {
  static const std::string* const dir = [] {
    auto* d = new std::string(std::filesystem::temp_directory_path().string() +
                              "/unidetect_bench_offline_corpus");
    std::filesystem::remove_all(*d);
    const Corpus corpus = GenerateCorpus(WebCorpusSpec(128, 41)).corpus;
    UNIDETECT_CHECK(SaveCorpusToDirectory(corpus, *d).ok());
    return d;
  }();
  return *dir;
}

void BM_OfflineBuild(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const std::string build_dir =
      std::filesystem::temp_directory_path().string() +
      "/unidetect_bench_offline_build";
  OfflineBuildOptions options;
  options.num_threads = shards;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(build_dir);
    UNIDETECT_CHECK(PlanOfflineBuild({OfflineBenchCorpusDir()},
                                     TrainerOptions{}, shards, build_dir)
                        .ok());
    state.ResumeTiming();
    auto report = RunOfflineBuild(build_dir, options);
    UNIDETECT_CHECK(report.ok() && report->completed);
  }
}
BENCHMARK(BM_OfflineBuild)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_OfflineMerge(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const std::string build_dir =
      std::filesystem::temp_directory_path().string() +
      "/unidetect_bench_offline_merge_" + std::to_string(shards);
  std::filesystem::remove_all(build_dir);
  UNIDETECT_CHECK(PlanOfflineBuild({OfflineBenchCorpusDir()}, TrainerOptions{},
                                   shards, build_dir)
                      .ok());
  OfflineBuildOptions options;
  options.num_threads = 4;
  UNIDETECT_CHECK(RunOfflineBuild(build_dir, options).ok());
  for (auto _ : state) {
    auto merged = MergeOfflineBuild(build_dir);
    UNIDETECT_CHECK(merged.ok());
    benchmark::DoNotOptimize(merged->num_subsets());
  }
}
BENCHMARK(BM_OfflineMerge)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Layered base+delta serving (DESIGN.md section 15). Fixtures: one
// synthetic base and a chain of small deltas linked by artifact id, so
// the benches exercise exactly the manifest checks ApplyDelta runs in
// production.

struct DeltaChainFixture {
  std::string base_path;
  std::vector<std::string> delta_paths;
};

const DeltaChainFixture& BenchDeltaChain(size_t num_deltas) {
  static auto* const cache = new std::map<size_t, DeltaChainFixture>();
  auto it = cache->find(num_deltas);
  if (it != cache->end()) return it->second;
  const std::string tmp = std::filesystem::temp_directory_path().string();
  DeltaChainFixture f;
  const std::string base_bytes =
      EncodeModelSnapshotV2(BuildSyntheticModel(400000));
  f.base_path = tmp + "/unidetect_bench_delta_base.udsnap";
  UNIDETECT_CHECK(WriteStringToFile(f.base_path, base_bytes).ok());
  const uint64_t base_id = *SnapshotArtifactId(base_bytes);
  uint64_t parent_id = base_id;
  const Model delta_model = BuildSyntheticModel(20000);
  for (size_t i = 0; i < num_deltas; ++i) {
    DeltaManifest manifest;
    manifest.base_id = base_id;
    manifest.parent_id = parent_id;
    manifest.depth = i + 1;
    const std::string bytes = EncodeModelSnapshotV2(delta_model, &manifest);
    const std::string path = tmp + "/unidetect_bench_delta_" +
                             std::to_string(num_deltas) + "_" +
                             std::to_string(i) + ".udsnap";
    UNIDETECT_CHECK(WriteStringToFile(path, bytes).ok());
    parent_id = *SnapshotArtifactId(bytes);
    f.delta_paths.push_back(path);
  }
  return cache->emplace(num_deltas, std::move(f)).first->second;
}

// Incremental publish latency: DetectionService::ApplyDelta end to end
// (identity read, manifest chain validation, mmap open, engine
// construction, pointer swap). The acceptance bound: within ~10x of the
// BM_ReloadLatency floor — a delta publish is a Reload plus one
// chain check, never a full-model decode.
void BM_ApplyDelta(benchmark::State& state) {
  const DeltaChainFixture& f = BenchDeltaChain(1);
  for (auto _ : state) {
    state.PauseTiming();
    auto service = DetectionService::Create(f.base_path);
    UNIDETECT_CHECK(service.ok());
    state.ResumeTiming();
    UNIDETECT_CHECK((*service)->ApplyDelta(f.delta_paths[0]).ok());
  }
}
BENCHMARK(BM_ApplyDelta)->Unit(benchmark::kMicrosecond);

// LR query through a K-layer stack: the read-side overlay sums counts
// across layers, so cost should grow linearly in resident layers and
// K=0 must match the flat-model numbers (the stack adds one indirection,
// not a merge).
void BM_LrQueryLayered(benchmark::State& state) {
  static auto* const layer_cache =
      new std::map<int64_t, std::shared_ptr<const ModelStack>>();
  auto it = layer_cache->find(state.range(0));
  if (it == layer_cache->end()) {
    std::vector<std::shared_ptr<const Model>> layers;
    layers.push_back(
        std::make_shared<const Model>(BuildSyntheticModel(400000)));
    for (int64_t i = 0; i < state.range(0); ++i) {
      layers.push_back(
          std::make_shared<const Model>(BuildSyntheticModel(20000)));
    }
    it = layer_cache
             ->emplace(state.range(0),
                       std::make_shared<const ModelStack>(std::move(layers)))
             .first;
  }
  const ModelStack& stack = *it->second;
  Rng rng(43);
  std::vector<double> thetas(256);
  for (auto& t : thetas) t = rng.Uniform(0, 1000);
  size_t i = 0;
  for (auto _ : state) {
    const double t2 = thetas[i % thetas.size()];
    const double t1 = t2 / 2;
    const FeatureKey key{static_cast<uint64_t>(i % 16)};
    ++i;
    benchmark::DoNotOptimize(
        stack.LikelihoodRatio(ErrorClass::kSpelling, key, t1, t2));
  }
}
BENCHMARK(BM_LrQueryLayered)
    ->ArgName("K")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(5)
    ->Unit(benchmark::kMicrosecond);

// Full compaction cycle: fold base+deltas with Model::Merge, encode,
// write, CAS-swap the service onto the fresh base (Compactor::
// CompactOnce). Dominated by the fold + encode, so it amortizes across
// however many deltas accumulated since the last cycle.
void BM_Compact(benchmark::State& state) {
  const DeltaChainFixture& f =
      BenchDeltaChain(static_cast<size_t>(state.range(0)));
  CompactorOptions options;
  options.output_path = std::filesystem::temp_directory_path().string() +
                        "/unidetect_bench_compacted.udsnap";
  for (auto _ : state) {
    state.PauseTiming();
    auto service = DetectionService::Create(f.base_path);
    UNIDETECT_CHECK(service.ok());
    for (const std::string& path : f.delta_paths) {
      UNIDETECT_CHECK((*service)->ApplyDelta(path).ok());
    }
    Compactor compactor(service->get(), options);
    state.ResumeTiming();
    auto compacted = compactor.CompactOnce();
    UNIDETECT_CHECK(compacted.ok() && *compacted);
  }
}
BENCHMARK(BM_Compact)->ArgName("K")->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace unidetect

BENCHMARK_MAIN();
