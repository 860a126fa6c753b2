// End-to-end properties of the sharded offline build pipeline: the
// acceptance criteria of DESIGN.md section 11. Everything here compares
// EncodeModelSnapshot() bytes — "equivalent" always means bit-identical.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "learn/trainer.h"
#include "model_format/model_snapshot.h"
#include "offline/offline_build.h"
#include "offline/shard_builder.h"
#include "util/binary_io.h"
#include "util/random.h"

namespace unidetect {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string WriteCorpusDir(const std::string& name, size_t num_tables,
                           uint64_t seed) {
  const std::string dir = FreshDir(name);
  const Corpus corpus = GenerateCorpus(WebCorpusSpec(num_tables, seed)).corpus;
  EXPECT_TRUE(SaveCorpusToDirectory(corpus, dir).ok());
  return dir;
}

/// The reference the pipeline must reproduce bit-for-bit: load the same
/// directory the plan covers and train in one shot.
std::string SingleShotBytes(const std::vector<std::string>& dirs) {
  Corpus corpus;
  for (const std::string& dir : dirs) {
    auto loaded = LoadCorpusFromDirectory(dir);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    for (Table& table : loaded->tables) {
      corpus.tables.push_back(std::move(table));
    }
  }
  const Model model = Trainer().Train(corpus);
  return EncodeModelSnapshot(model);
}

std::string MergedBytes(const std::string& build_dir) {
  auto merged = MergeOfflineBuild(build_dir);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
  return EncodeModelSnapshot(*merged);
}

TEST(OfflinePipelineTest, ShardedBuildMatchesSingleShotBitForBit) {
  const std::string dir = WriteCorpusDir("offline_eq_corpus", 30, 5);
  const std::string want = SingleShotBytes({dir});
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{7}}) {
    const std::string build_dir =
        FreshDir("offline_eq_build_" + std::to_string(shards));
    ASSERT_TRUE(
        PlanOfflineBuild({dir}, TrainerOptions{}, shards, build_dir).ok());
    OfflineBuildOptions options;
    options.num_threads = shards % 3 + 1;
    auto report = RunOfflineBuild(build_dir, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->completed);
    EXPECT_EQ(report->built, 2 * std::min(shards, size_t{30}));
    EXPECT_EQ(MergedBytes(build_dir), want)
        << shards << "-shard build diverged from single-shot training";
  }
}

TEST(OfflinePipelineTest, ThreadCountDoesNotChangeOutput) {
  const std::string dir = WriteCorpusDir("offline_threads_corpus", 24, 11);
  std::string first;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    const std::string build_dir =
        FreshDir("offline_threads_build_" + std::to_string(threads));
    ASSERT_TRUE(PlanOfflineBuild({dir}, TrainerOptions{}, 6, build_dir).ok());
    OfflineBuildOptions options;
    options.num_threads = threads;
    auto report = RunOfflineBuild(build_dir, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const std::string bytes = MergedBytes(build_dir);
    if (first.empty()) {
      first = bytes;
    } else {
      EXPECT_EQ(bytes, first) << threads << " threads diverged";
    }
  }
}

TEST(OfflinePipelineTest, MergeIsOrderInsensitiveAndAssociative) {
  const std::string dir = WriteCorpusDir("offline_order_corpus", 21, 13);
  const std::string build_dir = FreshDir("offline_order_build");
  ASSERT_TRUE(PlanOfflineBuild({dir}, TrainerOptions{}, 5, build_dir).ok());
  ASSERT_TRUE(RunOfflineBuild(build_dir).ok());
  auto plan = LoadShardPlan(OfflineManifestPath(build_dir));
  ASSERT_TRUE(plan.ok());

  // Every (stage, shard) partial, reloadable in any order.
  std::vector<std::string> paths;
  for (BuildStage stage : {BuildStage::kIndex, BuildStage::kObservations}) {
    for (size_t i = 0; i < plan->shards.size(); ++i) {
      paths.push_back(OfflinePartialPath(build_dir, stage, i));
    }
  }
  const auto fold = [&](const std::vector<std::string>& ordered) {
    Model merged(plan->trainer.model);
    for (const std::string& path : ordered) {
      auto bytes = ReadFileToString(path);
      EXPECT_TRUE(bytes.ok());
      auto partial = DecodeModelSnapshot(*bytes);
      EXPECT_TRUE(partial.ok()) << partial.status().ToString();
      merged.Merge(*partial);
    }
    merged.Finalize();
    return EncodeModelSnapshot(merged);
  };

  // Commutativity: random permutations of the fold order.
  const std::string want = fold(paths);
  Rng rng(99);
  for (int round = 0; round < 6; ++round) {
    std::vector<std::string> shuffled = paths;
    rng.Shuffle(shuffled);
    EXPECT_EQ(fold(shuffled), want) << "fold order " << round << " diverged";
  }

  // Associativity: pairwise tree reduction == the linear fold. Leaves
  // merge into intermediate models that merge into the root, exercising
  // partial-into-partial grouping instead of partial-into-accumulator.
  std::vector<Model> level;
  for (const std::string& path : paths) {
    auto bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    auto partial = DecodeModelSnapshot(*bytes);
    ASSERT_TRUE(partial.ok());
    Model wrapper(plan->trainer.model);
    wrapper.Merge(*partial);
    level.push_back(std::move(wrapper));
  }
  while (level.size() > 1) {
    std::vector<Model> next;
    for (size_t i = 0; i < level.size(); i += 2) {
      if (i + 1 < level.size()) {
        level[i].Finalize();
        level[i + 1].Finalize();
        Model pair(plan->trainer.model);
        pair.Merge(level[i]);
        pair.Merge(level[i + 1]);
        next.push_back(std::move(pair));
      } else {
        next.push_back(std::move(level[i]));
      }
    }
    level = std::move(next);
  }
  level[0].Finalize();
  EXPECT_EQ(EncodeModelSnapshot(level[0]), want);
}

TEST(OfflinePipelineTest, KilledBuildResumesToIdenticalBytes) {
  const std::string dir = WriteCorpusDir("offline_resume_corpus", 18, 17);
  const std::string want = SingleShotBytes({dir});
  const std::string build_dir = FreshDir("offline_resume_build");
  ASSERT_TRUE(PlanOfflineBuild({dir}, TrainerOptions{}, 6, build_dir).ok());

  // "Kill" the build after three shard-stages.
  size_t started = 0;
  OfflineBuildOptions options;
  options.keep_going = [&](BuildStage, size_t) { return started++ < 3; };
  auto report = RunOfflineBuild(build_dir, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->completed);
  EXPECT_EQ(report->built, 3u);
  // An interrupted build must not merge.
  EXPECT_FALSE(MergeOfflineBuild(build_dir).ok());

  // Resume: the three journaled shards are skipped, the rest built.
  auto resumed = RunOfflineBuild(build_dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->completed);
  EXPECT_EQ(resumed->skipped, 3u);
  EXPECT_EQ(resumed->built, 9u);
  EXPECT_EQ(MergedBytes(build_dir), want);
}

TEST(OfflinePipelineTest, CorruptPartialIsRebuiltOnResume) {
  const std::string dir = WriteCorpusDir("offline_corrupt_corpus", 12, 19);
  const std::string want = SingleShotBytes({dir});
  const std::string build_dir = FreshDir("offline_corrupt_build");
  ASSERT_TRUE(PlanOfflineBuild({dir}, TrainerOptions{}, 4, build_dir).ok());
  ASSERT_TRUE(RunOfflineBuild(build_dir).ok());

  // Flip one byte of a journaled partial: the journal still vouches for
  // it, but the re-hash on resume must not.
  const std::string victim =
      OfflinePartialPath(build_dir, BuildStage::kIndex, 2);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(64);
    f.put('\x5a');
  }
  EXPECT_FALSE(MergeOfflineBuild(build_dir).ok());
  EXPECT_FALSE(VerifyOfflineBuild(build_dir).ok());

  auto resumed = RunOfflineBuild(build_dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->rebuilt, 1u);
  EXPECT_EQ(resumed->built, 1u);
  EXPECT_EQ(resumed->skipped, 7u);
  EXPECT_EQ(MergedBytes(build_dir), want);

  auto verify = VerifyOfflineBuild(build_dir, /*check_inputs=*/true);
  ASSERT_TRUE(verify.ok()) << verify.status().ToString();
  EXPECT_TRUE(verify->mergeable());
  EXPECT_EQ(verify->inputs_checked, 12u);
}

}  // namespace
}  // namespace unidetect
