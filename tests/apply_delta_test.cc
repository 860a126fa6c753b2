// DetectionService::ApplyDelta: chain-hash validation, atomic layer
// swaps, findings-cache self-invalidation across delta application, and
// the ApplyDelta-while-DetectBatch race. The tsan preset runs this
// suite (ApplyDelta is in the CMakePresets.json tsan test filter).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include <unistd.h>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "learn/trainer.h"
#include "model_format/delta_snapshot.h"
#include "model_format/model_snapshot.h"
#include "offline/delta_build.h"
#include "serving/detection_service.h"
#include "snapshot_sections.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace unidetect {
namespace {

// One on-disk chain shared by the whole suite: a base snapshot trained
// over corpus A and two deltas trained over corpora B and C, built
// through the real delta builder.
struct Chain {
  std::string base_path;
  std::string delta1_path;
  std::string delta2_path;
};

const Chain& SharedChain() {
  static const Chain* chain = [] {
    SetLogLevel(LogLevel::kWarning);
    auto* c = new Chain();
    // ctest runs each case as its own process, concurrently — the
    // fixture directory must be per-process or parallel cases clobber
    // each other's artifacts mid-build.
    const std::string dir = testing::TempDir() + "/apply_delta_chain." +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    c->base_path = dir + "/base.udsnap";
    c->delta1_path = dir + "/delta1.udsnap";
    c->delta2_path = dir + "/delta2.udsnap";

    Trainer trainer;
    const Model base =
        trainer.Train(GenerateCorpus(WebCorpusSpec(300, 8101)).corpus);
    UNIDETECT_CHECK(base.Save(c->base_path).ok());

    const std::string shard1 = dir + "/shard1";
    const std::string shard2 = dir + "/shard2";
    UNIDETECT_CHECK(SaveCorpusToDirectory(
              GenerateCorpus(WebCorpusSpec(60, 8102)).corpus, shard1)
              .ok());
    UNIDETECT_CHECK(SaveCorpusToDirectory(
              GenerateCorpus(WebCorpusSpec(60, 8103)).corpus, shard2)
              .ok());

    DeltaBuildSpec spec1;
    spec1.base_path = c->base_path;
    spec1.input_dirs = {shard1};
    spec1.out_path = c->delta1_path;
    UNIDETECT_CHECK(BuildDeltaSnapshot(spec1).ok());

    DeltaBuildSpec spec2;
    spec2.base_path = c->base_path;
    spec2.parent_path = c->delta1_path;
    spec2.input_dirs = {shard2};
    spec2.out_path = c->delta2_path;
    UNIDETECT_CHECK(BuildDeltaSnapshot(spec2).ok());
    return c;
  }();
  return *chain;
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

TEST(ApplyDeltaTest, StacksLayersAndMatchesMergedFold) {
  const Chain& chain = SharedChain();
  auto service = DetectionService::Create(chain.base_path, LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_EQ((*service)->generation(), 1u);

  ASSERT_TRUE((*service)->ApplyDelta(chain.delta1_path).ok());
  ASSERT_TRUE((*service)->ApplyDelta(chain.delta2_path).ok());
  EXPECT_EQ((*service)->generation(), 3u);
  {
    const ServiceStats stats = (*service)->Stats();
    EXPECT_EQ(stats.applied_deltas, 2u);
    EXPECT_EQ(stats.delta_layers, 2u);
    EXPECT_GT(stats.delta_resident_bytes, 0u);
    EXPECT_EQ(stats.compactions, 0u);
  }
  const DetectionService::LayerSet layers = (*service)->Layers();
  ASSERT_EQ(layers.paths.size(), 3u);
  EXPECT_EQ(layers.paths[0], chain.base_path);
  EXPECT_EQ(layers.paths[2], chain.delta2_path);

  // Keystone, through the serving surface: the layered response is
  // byte-identical to a service over the Model::Merge fold of the same
  // three artifacts, serial and parallel.
  auto base = LoadModelFromFile(chain.base_path, SnapshotValidation::kFull);
  ASSERT_TRUE(base.ok());
  Model merged(base->options());
  merged.Merge(*base);
  for (const std::string& path : {chain.delta1_path, chain.delta2_path}) {
    auto delta = LoadModelFromFile(path, SnapshotValidation::kFull);
    ASSERT_TRUE(delta.ok());
    merged.Merge(*delta);
  }
  merged.Finalize();
  DetectionService folded(std::make_shared<const Model>(std::move(merged)),
                          LooseOptions());
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(25, 8110));
  EXPECT_EQ(AllFindingsJson((*service)->DetectBatch(test.corpus.tables)),
            AllFindingsJson(folded.DetectBatch(test.corpus.tables)));
}

TEST(ApplyDeltaTest, RefusesBrokenChains) {
  const Chain& chain = SharedChain();
  auto service = DetectionService::Create(chain.base_path, LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();

  // Out of order: delta2 expects delta1 below it.
  EXPECT_TRUE(
      (*service)->ApplyDelta(chain.delta2_path).IsInvalidArgument());
  // A base is not a delta.
  EXPECT_TRUE((*service)->ApplyDelta(chain.base_path).IsInvalidArgument());
  // Correct order works...
  ASSERT_TRUE((*service)->ApplyDelta(chain.delta1_path).ok());
  // ...and double-apply is rejected (parent is now delta1, not base).
  EXPECT_TRUE(
      (*service)->ApplyDelta(chain.delta1_path).IsInvalidArgument());
  // A delta is not a base: full Reload refuses it.
  const Status reload = (*service)->Reload(chain.delta1_path);
  EXPECT_TRUE(reload.IsInvalidArgument());
  EXPECT_EQ((*service)->generation(), 2u);

  // Wrong chain entirely: a delta built against a different base.
  const std::string other_dir = testing::TempDir() + "/apply_delta_other." +
                                std::to_string(::getpid());
  std::filesystem::create_directories(other_dir);
  const std::string other_base = other_dir + "/base.udsnap";
  Trainer trainer;
  const Model other =
      trainer.Train(GenerateCorpus(WebCorpusSpec(60, 8120)).corpus);
  ASSERT_TRUE(other.Save(other_base).ok());
  const std::string shard = other_dir + "/shard";
  ASSERT_TRUE(SaveCorpusToDirectory(
                  GenerateCorpus(WebCorpusSpec(20, 8121)).corpus, shard)
                  .ok());
  DeltaBuildSpec spec;
  spec.base_path = other_base;
  spec.input_dirs = {shard};
  spec.out_path = other_dir + "/delta.udsnap";
  ASSERT_TRUE(BuildDeltaSnapshot(spec).ok());
  EXPECT_TRUE((*service)->ApplyDelta(spec.out_path).IsInvalidArgument());
}

// The ids the service reports are the artifact ids of the bytes it
// serves, after every kind of publish.
TEST(ApplyDeltaTest, LayerIdsAreTheArtifactIdsOfTheServedBytes) {
  const Chain& chain = SharedChain();
  const auto id_of = [](const std::string& path) {
    auto bytes = ReadFileToString(path);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    auto id = SnapshotArtifactId(bytes.ok() ? *bytes : std::string());
    EXPECT_TRUE(id.ok()) << id.status();
    return id.ok() ? *id : 0;
  };
  const uint64_t base = id_of(chain.base_path);
  const uint64_t delta1 = id_of(chain.delta1_path);
  const uint64_t delta2 = id_of(chain.delta2_path);

  auto service = DetectionService::Create(chain.base_path, LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_EQ((*service)->Layers().ids, std::vector<uint64_t>({base}));
  ASSERT_TRUE((*service)->ApplyDelta(chain.delta1_path).ok());
  EXPECT_EQ((*service)->Layers().ids, std::vector<uint64_t>({base, delta1}));
  ASSERT_TRUE((*service)->ApplyDelta(chain.delta2_path).ok());
  EXPECT_EQ((*service)->Layers().ids,
            std::vector<uint64_t>({base, delta1, delta2}));
  ASSERT_TRUE((*service)->Reload(chain.base_path).ok());
  EXPECT_EQ((*service)->Layers().ids, std::vector<uint64_t>({base}));
}

// The artifact kind is checked before the model is decoded: a base
// whose token section would fail decode is still refused by ApplyDelta
// as a base, and such a delta is refused by Reload as a delta.
TEST(ApplyDeltaTest, WrongKindIsRefusedBeforeDecode) {
  const Chain& chain = SharedChain();
  const auto break_tokens = [](const std::string& path) {
    auto bytes = ReadFileToString(path);
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    auto sections = testing_snapshot::SplitSections(*bytes);
    std::string* tokens = testing_snapshot::FindPayload(
        &sections, static_cast<uint32_t>(SnapshotSection::kTokenTable));
    EXPECT_NE(tokens, nullptr);
    // num_tokens one above the entries present: a size mismatch.
    if (tokens != nullptr) (*tokens)[8] = static_cast<char>((*tokens)[8] + 1);
    const std::string out = path + ".broken";
    EXPECT_TRUE(
        WriteStringToFile(out, testing_snapshot::PackSections(
                                   kSnapshotVersion, sections))
            .ok());
    return out;
  };
  const std::string broken_base = break_tokens(chain.base_path);
  const std::string broken_delta = break_tokens(chain.delta1_path);
  EXPECT_TRUE(Model::Load(broken_base).status().IsCorruption());
  EXPECT_TRUE(Model::Load(broken_delta).status().IsCorruption());

  auto service = DetectionService::Create(chain.base_path, LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_TRUE((*service)->ApplyDelta(broken_base).IsInvalidArgument());
  EXPECT_TRUE((*service)->Reload(broken_delta).IsInvalidArgument());
  EXPECT_TRUE(
      DetectionService::Create(broken_delta, LooseOptions())
          .status()
          .IsInvalidArgument());
  EXPECT_EQ((*service)->generation(), 1u);
}

TEST(ApplyDeltaTest, InMemoryBaseAcceptsNoDeltas) {
  const Chain& chain = SharedChain();
  Trainer trainer;
  auto model = std::make_shared<const Model>(
      trainer.Train(GenerateCorpus(WebCorpusSpec(60, 8130)).corpus));
  DetectionService service(model, LooseOptions());
  EXPECT_TRUE(service.ApplyDelta(chain.delta1_path).IsInvalidArgument());
}

TEST(ApplyDeltaTest, CacheSelfInvalidatesAcrossDelta) {
  const Chain& chain = SharedChain();
  auto service = DetectionService::Create(chain.base_path, LooseOptions(),
                                          /*findings_cache_bytes=*/8 << 20);
  ASSERT_TRUE(service.ok()) << service.status();
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(10, 8140));

  // Warm the cache, prove it hits.
  (void)(*service)->DetectBatch(test.corpus.tables);
  (void)(*service)->DetectBatch(test.corpus.tables);
  {
    const ServiceStats stats = (*service)->Stats();
    EXPECT_EQ(stats.cache_hits, test.corpus.tables.size());
    EXPECT_EQ(stats.cache_misses, test.corpus.tables.size());
  }

  // The delta lands: keys embed the generation, so the warm batch must
  // miss (stale entries linger until evicted but can never be served).
  ASSERT_TRUE((*service)->ApplyDelta(chain.delta1_path).ok());
  const auto after = (*service)->DetectBatch(test.corpus.tables);
  {
    const ServiceStats stats = (*service)->Stats();
    EXPECT_EQ(stats.cache_hits, test.corpus.tables.size());
    EXPECT_EQ(stats.cache_misses, 2 * test.corpus.tables.size());
  }
  // Re-warmed: the new generation's entries hit again, identically.
  const auto rewarmed = (*service)->DetectBatch(test.corpus.tables);
  EXPECT_EQ(AllFindingsJson(after), AllFindingsJson(rewarmed));
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.cache_hits, 2 * test.corpus.tables.size());
}

TEST(ApplyDeltaTest, ReloadIfGenerationIsCompareAndSwap) {
  const Chain& chain = SharedChain();
  auto service = DetectionService::Create(chain.base_path, LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE((*service)->ApplyDelta(chain.delta1_path).ok());
  const uint64_t captured = (*service)->generation();

  // The chain moves after capture...
  ASSERT_TRUE((*service)->ApplyDelta(chain.delta2_path).ok());
  // ...so the conditional swap must refuse, leaving layers intact.
  const Status stale =
      (*service)->ReloadIfGeneration(chain.base_path, captured);
  EXPECT_TRUE(stale.IsAlreadyExists());
  EXPECT_EQ((*service)->Layers().ids.size(), 3u);
  {
    const ServiceStats stats = (*service)->Stats();
    EXPECT_EQ(stats.failed_reloads, 0u);  // a lost race is not a failure
    EXPECT_EQ(stats.compactions, 0u);
  }

  // With the right generation it swaps, and retiring two delta layers
  // counts as a compaction.
  ASSERT_TRUE(
      (*service)
          ->ReloadIfGeneration(chain.base_path, (*service)->generation())
          .ok());
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.delta_layers, 0u);
}

// The race the layered design must survive: deltas keep landing while
// batches stream on other threads. Each batch pins one engine, so every
// response equals the response of whichever layer chain served it.
TEST(ApplyDeltaTest, ApplyDeltaRacesDetectBatchSafely) {
  const Chain& chain = SharedChain();
  auto created = DetectionService::Create(chain.base_path, LooseOptions());
  ASSERT_TRUE(created.ok()) << created.status();
  DetectionService& service = **created;
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(6, 8150));

  // Pre-compute the only three possible responses (gen 1, 2, 3).
  std::vector<std::string> valid;
  valid.push_back(AllFindingsJson(service.DetectBatch(test.corpus.tables)));
  {
    auto probe = DetectionService::Create(chain.base_path, LooseOptions());
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE((*probe)->ApplyDelta(chain.delta1_path).ok());
    valid.push_back(
        AllFindingsJson((*probe)->DetectBatch(test.corpus.tables)));
    ASSERT_TRUE((*probe)->ApplyDelta(chain.delta2_path).ok());
    valid.push_back(
        AllFindingsJson((*probe)->DetectBatch(test.corpus.tables)));
  }

  std::thread applier([&] {
    ASSERT_TRUE(service.ApplyDelta(chain.delta1_path).ok());
    ASSERT_TRUE(service.ApplyDelta(chain.delta2_path).ok());
  });
  std::vector<std::thread> clients;
  // One flag per client; vector<bool> would bit-pack the flags into a
  // shared word and the concurrent writes would themselves be a race.
  std::array<std::atomic<bool>, 3> all_valid{};
  for (size_t c = 0; c < all_valid.size(); ++c) {
    clients.emplace_back([&, c] {
      bool ok = true;
      for (int i = 0; i < 6; ++i) {
        const std::string got =
            AllFindingsJson(service.DetectBatch(test.corpus.tables));
        bool matched = false;
        for (const std::string& expected : valid) {
          matched |= got == expected;
        }
        ok &= matched;
      }
      all_valid[c] = ok;
    });
  }
  applier.join();
  for (auto& client : clients) client.join();
  for (size_t c = 0; c < all_valid.size(); ++c) {
    EXPECT_TRUE(all_valid[c]) << "client " << c;
  }
  EXPECT_EQ(service.Stats().delta_layers, 2u);
}

}  // namespace
}  // namespace unidetect
