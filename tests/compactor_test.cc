// Background compactor (offline/compactor.h): folding a served chain
// into a fresh base must be bit-identical to the Model::Merge fold,
// swap in atomically via the generation CAS, and leave detection
// results byte-identical. The tsan preset runs this suite (Compactor is
// in the CMakePresets.json tsan test filter).

#include "offline/compactor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "learn/trainer.h"
#include "model_format/model_snapshot.h"
#include "model_format/snapshot_v2.h"
#include "offline/delta_build.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace unidetect {
namespace {

// A fresh on-disk chain per test (compaction swaps services around, so
// no sharing with other suites).
struct Fixture {
  std::string dir;
  std::string base_path;
  std::vector<std::string> delta_paths;
};

Fixture BuildChain(const std::string& name, size_t num_deltas,
                   uint64_t seed) {
  SetLogLevel(LogLevel::kWarning);
  Fixture f;
  f.dir = testing::TempDir() + "/" + name;
  std::filesystem::create_directories(f.dir);
  f.base_path = f.dir + "/base.udsnap";
  Trainer trainer;
  const Model base =
      trainer.Train(GenerateCorpus(WebCorpusSpec(200, seed)).corpus);
  UNIDETECT_CHECK(base.Save(f.base_path).ok());
  std::string parent;
  for (size_t i = 0; i < num_deltas; ++i) {
    const std::string shard = f.dir + "/shard" + std::to_string(i);
    UNIDETECT_CHECK(
        SaveCorpusToDirectory(
            GenerateCorpus(WebCorpusSpec(40, seed + 1 + i)).corpus, shard)
            .ok());
    DeltaBuildSpec spec;
    spec.base_path = f.base_path;
    spec.parent_path = parent;
    spec.input_dirs = {shard};
    spec.out_path = f.dir + "/delta" + std::to_string(i) + ".udsnap";
    UNIDETECT_CHECK(BuildDeltaSnapshot(spec).ok());
    parent = spec.out_path;
    f.delta_paths.push_back(spec.out_path);
  }
  return f;
}

std::string AllFindingsJson(const DetectionService::BatchResult& result) {
  std::string out;
  for (const auto& findings : result.per_table) {
    out += FindingsToJson(findings);
    out += '\n';
  }
  return out;
}

UniDetectOptions LooseOptions() {
  UniDetectOptions options;
  options.alpha = 1.0;
  return options;
}

TEST(CompactorTest, FoldIsBitIdenticalToMergeAndSwapsIn) {
  const Fixture f = BuildChain("compactor_fold", 2, 9001);
  auto service = DetectionService::Create(f.base_path, LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  for (const std::string& path : f.delta_paths) {
    ASSERT_TRUE((*service)->ApplyDelta(path).ok());
  }
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(15, 9005));
  const std::string before =
      AllFindingsJson((*service)->DetectBatch(test.corpus.tables));

  CompactorOptions options;
  options.output_path = f.dir + "/compacted.udsnap";
  Compactor compactor(service->get(), options);
  const auto compacted = compactor.CompactOnce();
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  EXPECT_TRUE(*compacted);

  // The correctness oracle: the written base must be bit-identical to
  // the in-process Model::Merge fold of the same three artifacts.
  auto base = LoadModelFromFile(f.base_path, SnapshotValidation::kFull);
  ASSERT_TRUE(base.ok());
  Model merged(base->options());
  merged.Merge(*base);
  for (const std::string& path : f.delta_paths) {
    auto delta = LoadModelFromFile(path, SnapshotValidation::kFull);
    ASSERT_TRUE(delta.ok());
    merged.Merge(*delta);
  }
  merged.Finalize();
  auto written = ReadFileToString(options.output_path);
  ASSERT_TRUE(written.ok()) << written.status();
  EXPECT_EQ(*written, EncodeModelSnapshotV2(merged));

  // Serving moved to the compacted single layer, results unchanged.
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.delta_layers, 0u);
  EXPECT_EQ(stats.compactions, 1u);
  const DetectionService::LayerSet layers = (*service)->Layers();
  ASSERT_EQ(layers.paths.size(), 1u);
  EXPECT_EQ(layers.paths[0], options.output_path);
  EXPECT_EQ(before,
            AllFindingsJson((*service)->DetectBatch(test.corpus.tables)));

  const CompactorStats cstats = compactor.stats();
  EXPECT_EQ(cstats.attempts, 1u);
  EXPECT_EQ(cstats.compactions, 1u);
  EXPECT_EQ(cstats.lost_races, 0u);
  EXPECT_EQ(cstats.failures, 0u);
}

TEST(CompactorTest, NothingToDoBelowTrigger) {
  const Fixture f = BuildChain("compactor_trigger", 1, 9101);
  auto service = DetectionService::Create(f.base_path, LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();

  CompactorOptions options;
  options.output_path = f.dir + "/compacted.udsnap";
  options.trigger_delta_layers = 2;
  Compactor compactor(service->get(), options);

  // Bare base: nothing to fold.
  auto idle = compactor.CompactOnce();
  ASSERT_TRUE(idle.ok()) << idle.status();
  EXPECT_FALSE(*idle);

  // One delta, trigger at two: still nothing.
  ASSERT_TRUE((*service)->ApplyDelta(f.delta_paths[0]).ok());
  auto below = compactor.CompactOnce();
  ASSERT_TRUE(below.ok()) << below.status();
  EXPECT_FALSE(*below);
  EXPECT_EQ(compactor.stats().attempts, 0u);
  EXPECT_EQ((*service)->Stats().delta_layers, 1u);
}

TEST(CompactorTest, InMemoryChainIsRefused) {
  Trainer trainer;
  auto model = std::make_shared<const Model>(
      trainer.Train(GenerateCorpus(WebCorpusSpec(60, 9201)).corpus));
  DetectionService service(model, LooseOptions());
  CompactorOptions options;
  options.output_path = testing::TempDir() + "/compactor_mem.udsnap";
  options.trigger_delta_layers = 0;
  Compactor compactor(&service, options);
  // trigger 0 would fold even a bare base, but a memory-backed layer
  // has no file to re-read.
  const auto result = compactor.CompactOnce();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(*result);  // single layer: nothing stacked, nothing to do
}

// Background mode under concurrent serving: deltas land, the poll loop
// folds them away, batches stream throughout. tsan proves the absence
// of data races; the assertions prove the chain converges to one layer
// with results intact.
TEST(CompactorTest, BackgroundLoopCompactsWhileServing) {
  const Fixture f = BuildChain("compactor_bg", 2, 9301);
  auto service = DetectionService::Create(f.base_path, LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(5, 9305));
  const std::string expected_gen1 =
      AllFindingsJson((*service)->DetectBatch(test.corpus.tables));

  CompactorOptions options;
  options.output_path = f.dir + "/compacted.udsnap";
  options.poll_interval = std::chrono::milliseconds(5);
  Compactor compactor(service->get(), options);
  compactor.Start();
  compactor.Start();  // idempotent

  std::thread client([&] {
    for (int i = 0; i < 10; ++i) {
      (void)(*service)->DetectBatch(test.corpus.tables);
    }
  });
  for (const std::string& path : f.delta_paths) {
    ASSERT_TRUE((*service)->ApplyDelta(path).ok());
  }
  client.join();

  // Wait (bounded) for the loop to fold both deltas away.
  for (int i = 0; i < 1000 && (*service)->Stats().delta_layers > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  compactor.Stop();
  compactor.Stop();  // idempotent

  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.delta_layers, 0u);
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_GE(compactor.stats().compactions, 1u);
  // The compacted chain serves the full fold (base + both deltas) —
  // different from generation 1, identical to the layered answer.
  const std::string after =
      AllFindingsJson((*service)->DetectBatch(test.corpus.tables));
  auto probe = DetectionService::Create(f.base_path, LooseOptions());
  ASSERT_TRUE(probe.ok());
  for (const std::string& path : f.delta_paths) {
    ASSERT_TRUE((*probe)->ApplyDelta(path).ok());
  }
  EXPECT_EQ(after,
            AllFindingsJson((*probe)->DetectBatch(test.corpus.tables)));
  (void)expected_gen1;
}

}  // namespace
}  // namespace unidetect
