// DetectionService: snapshot-swap correctness, batch determinism, and
// the Reload-while-DetectBatch race (the tsan preset runs this suite —
// its name is in the CMakePresets.json tsan test filter).

#include "serving/detection_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "learn/trainer.h"
#include "util/logging.h"

namespace unidetect {

class DetectionServiceTestPeer {
 public:
  // The served engine's +Dict dictionary, or null if no request built it.
  static std::shared_ptr<const Dictionary> BuiltDictionary(
      const DetectionService& service) {
    const auto engine = service.Snapshot();
    MutexLock lock(&engine->dictionary_mu);
    return engine->dictionary;
  }
};

namespace {

std::shared_ptr<const Model> TrainSharedModel(size_t tables, uint64_t seed) {
  SetLogLevel(LogLevel::kWarning);
  Trainer trainer;
  return std::make_shared<const Model>(
      trainer.Train(GenerateCorpus(WebCorpusSpec(tables, seed)).corpus));
}

std::string AllFindingsJson(const DetectionService::BatchResult& result) {
  std::string out;
  for (const auto& findings : result.per_table) {
    out += FindingsToJson(findings);
    out += '\n';
  }
  return out;
}

TEST(DetectionServiceTest, BatchMatchesDirectDetection) {
  auto model = TrainSharedModel(200, 41);
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(20, 42));

  const auto batch = service.DetectBatch(test.corpus.tables);
  ASSERT_EQ(batch.per_table.size(), test.corpus.tables.size());
  EXPECT_EQ(batch.generation, 1u);

  const UniDetect direct(model.get(), options);
  for (size_t i = 0; i < test.corpus.tables.size(); ++i) {
    EXPECT_EQ(FindingsToJson(batch.per_table[i]),
              FindingsToJson(direct.DetectTable(test.corpus.tables[i])))
        << "table " << i;
  }
}

TEST(DetectionServiceTest, PerRequestOverrideDoesNotStick) {
  auto model = TrainSharedModel(200, 45);
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(20, 46));

  const auto before = service.DetectBatch(test.corpus.tables);
  UniDetectOptions strict;
  strict.alpha = 1e-12;
  const auto overridden = service.DetectBatch(test.corpus.tables, &strict);
  const auto after = service.DetectBatch(test.corpus.tables);

  size_t base_count = 0;
  size_t strict_count = 0;
  for (const auto& f : before.per_table) base_count += f.size();
  for (const auto& f : overridden.per_table) strict_count += f.size();
  EXPECT_LT(strict_count, base_count);
  EXPECT_EQ(AllFindingsJson(before), AllFindingsJson(after));
}

TEST(DetectionServiceTest, ReloadSwapsGenerationAndFailureLeavesService) {
  auto model = TrainSharedModel(120, 47);
  DetectionService service(model);
  EXPECT_EQ(service.generation(), 1u);

  const std::string path = testing::TempDir() + "/service_reload.model";
  ASSERT_TRUE(model->Save(path).ok());
  ASSERT_TRUE(service.Reload(path).ok());
  EXPECT_EQ(service.generation(), 2u);

  // A bad path must fail typed and leave the service serving gen 2.
  const Status bad = service.Reload("/nonexistent/model.bin");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsIOError());
  EXPECT_EQ(service.generation(), 2u);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.failed_reloads, 1u);
  EXPECT_EQ(stats.generation, 2u);
}

TEST(DetectionServiceTest, ReloadHistogramAndStorageGauges) {
  auto model = TrainSharedModel(120, 53);
  const std::string path = testing::TempDir() + "/service_gauges.model";
  ASSERT_TRUE(model->Save(path).ok());

  auto service = DetectionService::Create(path);
  ASSERT_TRUE(service.ok()) << service.status();
  {
    const ServiceStats stats = (*service)->Stats();
    // Save() wrote a UDSNAP snapshot, so Create mapped it zero-copy: the
    // gauges must show file-backed bytes and a small private footprint.
    EXPECT_GT(stats.model_mapped_bytes, 0u);
    EXPECT_LT(stats.model_resident_bytes, stats.model_mapped_bytes);
    // No reloads yet: the reload percentiles stay at their zero state.
    EXPECT_EQ(stats.reloads, 0u);
    EXPECT_EQ(stats.reload_latency_p50_us, 0.0);
    EXPECT_EQ(stats.reload_latency_p99_us, 0.0);
  }

  for (int i = 0; i < 3; ++i) ASSERT_TRUE((*service)->Reload(path).ok());
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.reloads, 3u);
  EXPECT_GT(stats.reload_latency_p50_us, 0.0);
  EXPECT_GE(stats.reload_latency_p99_us, stats.reload_latency_p50_us);
  EXPECT_GT(stats.model_mapped_bytes, 0u);
}

TEST(DetectionServiceTest, StatsCountRequestsTablesAndFindings) {
  auto model = TrainSharedModel(120, 48);
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(10, 49));

  const auto batch = service.DetectBatch(test.corpus.tables);
  size_t found = 0;
  for (const auto& findings : batch.per_table) found += findings.size();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.tables, test.corpus.tables.size());
  EXPECT_EQ(stats.findings, found);
  EXPECT_GT(stats.latency_p50_us, 0.0);
  EXPECT_GE(stats.latency_p99_us, stats.latency_p50_us);
}

// The serving-tier race the design exists for: Reload keeps swapping
// snapshots while DetectBatch requests stream in on other threads. Each
// request must see one coherent snapshot (tsan proves the absence of
// data races; the JSON comparison proves responses stay well-formed and
// deterministic for whichever generation served them).
TEST(DetectionServiceTest, ReloadRacesDetectBatchSafely) {
  auto model = TrainSharedModel(120, 50);
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(8, 51));

  const std::string path = testing::TempDir() + "/service_race.model";
  ASSERT_TRUE(model->Save(path).ok());
  const std::string expected = AllFindingsJson(service.DetectBatch(
      test.corpus.tables));

  std::thread reloader([&] {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(service.Reload(path).ok());
    }
  });
  std::vector<std::thread> clients;
  std::vector<std::string> responses(3);
  for (size_t c = 0; c < responses.size(); ++c) {
    clients.emplace_back([&, c] {
      std::string all;
      for (int i = 0; i < 4; ++i) {
        all += AllFindingsJson(service.DetectBatch(test.corpus.tables));
      }
      responses[c] = std::move(all);
    });
  }
  reloader.join();
  for (auto& client : clients) client.join();

  // Every generation serves the same model bytes here, so every batch
  // must equal the pre-race response, swap or no swap.
  for (size_t c = 0; c < responses.size(); ++c) {
    std::string expected_all;
    for (int i = 0; i < 4; ++i) expected_all += expected;
    EXPECT_EQ(responses[c], expected_all) << "client " << c;
  }
  EXPECT_EQ(service.generation(), 9u);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 1u + 12u);
  EXPECT_EQ(stats.reloads, 8u);
}

// A facade's findings over `corpus`, laid out as AllFindingsJson lays
// out a batch.
std::string FacadeFindingsJson(const UniDetect& facade, const Corpus& corpus) {
  std::string out;
  for (const Table& table : corpus.tables) {
    out += FindingsToJson(facade.DetectTable(table));
    out += '\n';
  }
  return out;
}

// Options under which the +Dict dictionary refutes spelling findings in
// the small test models: a low token threshold fills it.
UniDetectOptions DictionaryOptions() {
  UniDetectOptions options;
  options.alpha = 1.0;
  options.dictionary_min_table_count = 2;
  return options;
}

// A request that turns +Dict on gets the findings of a +Dict facade over
// the same model, though the service's own defaults leave it off.
TEST(DetectionServiceTest, DictionaryOverrideMatchesDictFacade) {
  auto model = TrainSharedModel(200, 53);
  const UniDetectOptions options = DictionaryOptions();
  DetectionService service(model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(60, 54));

  UniDetectOptions with_dict = options;
  with_dict.use_dictionary = true;
  const std::string expected =
      FacadeFindingsJson(UniDetect(model.get(), with_dict), test.corpus);
  // Twice: the second request reuses the dictionary the first built.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(AllFindingsJson(service.DetectBatch(test.corpus.tables,
                                                  &with_dict)),
              expected)
        << "request " << i;
  }
  // The dictionary must refute something here, or the override could
  // be ignored unseen.
  EXPECT_NE(AllFindingsJson(service.DetectBatch(test.corpus.tables)),
            expected);
}

// The served generation builds the +Dict dictionary once, on the first
// request that asks for it, and every later one gets that same object;
// a reload's new generation starts without one.
TEST(DetectionServiceTest, DictionaryBuiltOncePerGeneration) {
  auto model = TrainSharedModel(120, 57);
  const UniDetectOptions options = DictionaryOptions();
  DetectionService service(model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(4, 58));
  UniDetectOptions with_dict = options;
  with_dict.use_dictionary = true;

  service.DetectBatch(test.corpus.tables);
  EXPECT_EQ(DetectionServiceTestPeer::BuiltDictionary(service), nullptr)
      << "a request without +Dict built the dictionary";

  service.DetectBatch(test.corpus.tables, &with_dict);
  const std::shared_ptr<const Dictionary> first =
      DetectionServiceTestPeer::BuiltDictionary(service);
  ASSERT_NE(first, nullptr);
  service.DetectBatch(test.corpus.tables, &with_dict);
  EXPECT_EQ(DetectionServiceTestPeer::BuiltDictionary(service), first);

  // Another token threshold gets its own dictionary, not the engine's.
  UniDetectOptions other_threshold = with_dict;
  other_threshold.dictionary_min_table_count = 3;
  service.DetectBatch(test.corpus.tables, &other_threshold);
  EXPECT_EQ(DetectionServiceTestPeer::BuiltDictionary(service), first);

  const std::string path = testing::TempDir() + "/service_dict_once.model";
  ASSERT_TRUE(model->Save(path).ok());
  ASSERT_TRUE(service.Reload(path).ok());
  EXPECT_EQ(DetectionServiceTestPeer::BuiltDictionary(service), nullptr);
}

// Concurrent +Dict overrides race for the engine's one dictionary while
// reloads swap the engine (and so the dictionary) underneath them. The
// tsan preset runs this case.
TEST(DetectionServiceTest, ConcurrentDictionaryOverridesRaceReloads) {
  auto model = TrainSharedModel(120, 55);
  const UniDetectOptions options = DictionaryOptions();
  DetectionService service(model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(8, 56));
  UniDetectOptions with_dict = options;
  with_dict.use_dictionary = true;

  const std::string path = testing::TempDir() + "/service_dict_race.model";
  ASSERT_TRUE(model->Save(path).ok());
  const std::string expected =
      FacadeFindingsJson(UniDetect(model.get(), with_dict), test.corpus);

  std::thread reloader([&] {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(service.Reload(path).ok());
    }
  });
  std::vector<std::thread> clients;
  std::vector<std::string> responses(3);
  for (size_t c = 0; c < responses.size(); ++c) {
    clients.emplace_back([&, c] {
      std::string all;
      for (int i = 0; i < 3; ++i) {
        all += AllFindingsJson(
            service.DetectBatch(test.corpus.tables, &with_dict));
      }
      responses[c] = std::move(all);
    });
  }
  reloader.join();
  for (auto& client : clients) client.join();

  for (size_t c = 0; c < responses.size(); ++c) {
    EXPECT_EQ(responses[c], expected + expected + expected) << "client " << c;
  }
}

// ---------------------------------------------------------------------------
// Findings cache (serving/findings_cache.h). The tsan preset runs these
// too — cache probe/insert happen on the DetectBatch path under races.

TEST(DetectionServiceCacheTest, WarmHitsReturnIdenticalFindings) {
  auto model = TrainSharedModel(200, 61);
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(model, options, /*findings_cache_bytes=*/8 << 20);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(20, 62));

  const auto cold = service.DetectBatch(test.corpus.tables);
  {
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, test.corpus.tables.size());
    EXPECT_EQ(stats.cache_entries, test.corpus.tables.size());
    EXPECT_GT(stats.cache_resident_bytes, 0u);
    EXPECT_EQ(stats.cache_hit_rate, 0.0);
  }

  // Second pass: every table is answered from the cache, bit-identically.
  const auto warm = service.DetectBatch(test.corpus.tables);
  EXPECT_EQ(AllFindingsJson(cold), AllFindingsJson(warm));
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, test.corpus.tables.size());
  EXPECT_EQ(stats.cache_misses, test.corpus.tables.size());
  EXPECT_NEAR(stats.cache_hit_rate, 0.5, 1e-12);
}

TEST(DetectionServiceCacheTest, OverrideOptionsKeySeparately) {
  auto model = TrainSharedModel(200, 63);
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(model, options, /*findings_cache_bytes=*/8 << 20);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(12, 64));

  const auto base = service.DetectBatch(test.corpus.tables);
  UniDetectOptions strict;
  strict.alpha = 1e-12;
  // The override batch must not hit the default-key entries (different
  // effective options -> different fingerprints), nor poison them.
  const auto overridden = service.DetectBatch(test.corpus.tables, &strict);
  EXPECT_NE(AllFindingsJson(base), AllFindingsJson(overridden));
  const auto base_again = service.DetectBatch(test.corpus.tables);
  EXPECT_EQ(AllFindingsJson(base), AllFindingsJson(base_again));
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, test.corpus.tables.size());
  EXPECT_EQ(stats.cache_misses, 2 * test.corpus.tables.size());
}

TEST(DetectionServiceCacheTest, ReloadInvalidates) {
  auto model = TrainSharedModel(120, 65);
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(model, options, /*findings_cache_bytes=*/8 << 20);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(10, 66));
  const std::string path = testing::TempDir() + "/service_cache.model";
  ASSERT_TRUE(model->Save(path).ok());

  const auto before = service.DetectBatch(test.corpus.tables);
  ASSERT_TRUE(service.Reload(path).ok());
  EXPECT_EQ(service.Stats().cache_entries, 0u);

  // Same model bytes, new generation: everything re-detects (all misses)
  // and the findings come out identical.
  const auto after = service.DetectBatch(test.corpus.tables);
  EXPECT_EQ(AllFindingsJson(before), AllFindingsJson(after));
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2 * test.corpus.tables.size());
}

TEST(DetectionServiceCacheTest, ByteBoundEvictsDeterministically) {
  auto model = TrainSharedModel(120, 67);
  UniDetectOptions options;
  options.alpha = 1.0;
  // A bound small enough that the batch must evict: each entry costs at
  // least 128 bookkeeping bytes.
  DetectionService service(model, options, /*findings_cache_bytes=*/1024);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(30, 68));

  const auto first = service.DetectBatch(test.corpus.tables);
  {
    const ServiceStats stats = service.Stats();
    EXPECT_LE(stats.cache_resident_bytes, 1024u);
    // Either entries were evicted to fit or were too large to insert at
    // all; both ways the population stays under the table count. (The
    // exact LRU eviction order is pinned by findings_cache_test.cc.)
    EXPECT_LT(stats.cache_entries, test.corpus.tables.size());
  }
  // Capacity pressure changes hit rates, never results.
  const auto second = service.DetectBatch(test.corpus.tables);
  EXPECT_EQ(AllFindingsJson(first), AllFindingsJson(second));
}

TEST(DetectionServiceCacheTest, DisabledByDefault) {
  auto model = TrainSharedModel(120, 69);
  UniDetectOptions options;
  options.alpha = 1.0;
  DetectionService service(model, options);
  const AnnotatedCorpus test = GenerateCorpus(WebCorpusSpec(5, 70));
  (void)service.DetectBatch(test.corpus.tables);
  (void)service.DetectBatch(test.corpus.tables);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
  EXPECT_EQ(stats.cache_resident_bytes, 0u);
}

}  // namespace
}  // namespace unidetect
