#include "offline/shard_plan.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/corpus_io.h"
#include "offline/build_journal.h"
#include "offline/offline_build.h"
#include "offline/streaming_reader.h"
#include "table/table.h"
#include "util/string_util.h"

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

TEST(ShardPlanTest, SerializeParseRoundTrip) {
  const std::string dir = WriteCorpusDir("offline_plan_rt", 9, 3);
  TrainerOptions options;
  options.model.pseudocount = 0.12345678901234567;
  options.max_fd_pairs_per_table = 11;
  auto plan = PlanShards({dir}, options, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->shards.size(), 4u);
  ASSERT_EQ(plan->num_files(), 9u);

  const std::string text = SerializeShardPlan(*plan);
  auto reparsed = ParseShardPlan(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  // Exact round-trip, doubles included: the re-serialized manifest is
  // byte-identical, so options can never drift across resumes.
  EXPECT_EQ(SerializeShardPlan(*reparsed), text);
  EXPECT_EQ(reparsed->trainer.model.pseudocount, options.model.pseudocount);
  EXPECT_EQ(reparsed->trainer.max_fd_pairs_per_table, 11u);
}

TEST(ShardPlanTest, ShardsAreContiguousAndBalanced) {
  const std::string dir = WriteCorpusDir("offline_plan_bal", 10, 7);
  auto plan = PlanShards({dir}, TrainerOptions{}, 3);
  ASSERT_TRUE(plan.ok());
  // 10 files over 3 shards: first 10 % 3 = 1 shard gets the extra file.
  ASSERT_EQ(plan->shards.size(), 3u);
  EXPECT_EQ(plan->shards[0].files.size(), 4u);
  EXPECT_EQ(plan->shards[1].files.size(), 3u);
  EXPECT_EQ(plan->shards[2].files.size(), 3u);

  // Concatenated shard files == the sorted directory listing.
  auto listed = ListCsvFiles(dir);
  ASSERT_TRUE(listed.ok());
  std::vector<std::string> planned;
  for (const Shard& shard : plan->shards) {
    for (const ShardFile& file : shard.files) planned.push_back(file.path);
  }
  EXPECT_EQ(planned, *listed);
}

TEST(ShardPlanTest, ClampsShardCountToFileCount) {
  const std::string dir = WriteCorpusDir("offline_plan_clamp", 2, 1);
  auto plan = PlanShards({dir}, TrainerOptions{}, 50);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->shards.size(), 2u);
}

TEST(ShardPlanTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseShardPlan("not a manifest").ok());
  EXPECT_FALSE(ParseShardPlan("UDPLAN v2\n").ok());
}

TEST(ShardPlanTest, ParseRejectsCountsLargerThanManifest) {
  // Declared entry counts drive reserve() calls; a crafted manifest
  // claiming billions of shards must fail typed before the allocation,
  // not with std::bad_alloc. Every entry needs at least one line of
  // text, so any count beyond the manifest size is a lie.
  const std::string dir = WriteCorpusDir("offline_plan_huge", 2, 9);
  auto plan = PlanShards({dir}, TrainerOptions{}, 2);
  ASSERT_TRUE(plan.ok());
  const std::string text = SerializeShardPlan(*plan);
  for (const char* field : {"inputs ", "shards "}) {
    const size_t pos = text.find(field);
    ASSERT_NE(pos, std::string::npos) << field;
    std::string mutated = text;
    const size_t value_pos = pos + std::string(field).size();
    mutated.replace(value_pos, mutated.find('\n', value_pos) - value_pos,
                    "99999999999999999");
    auto parsed = ParseShardPlan(mutated);
    ASSERT_FALSE(parsed.ok()) << field;
    EXPECT_TRUE(parsed.status().IsCorruption()) << parsed.status();
  }
}

TEST(BuildJournalTest, RecordLookupReopen) {
  const std::string path = FreshDir("offline_journal") + "/journal.txt";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  {
    auto journal = BuildJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Record(BuildStage::kIndex, 0, 0xAAAA).ok());
    ASSERT_TRUE(journal->Record(BuildStage::kObservations, 0, 0xBBBB).ok());
    // A rebuild supersedes the earlier entry.
    ASSERT_TRUE(journal->Record(BuildStage::kIndex, 0, 0xCCCC).ok());
  }
  auto reopened = BuildJournal::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_entries(), 2u);
  uint32_t crc = 0;
  ASSERT_TRUE(reopened->Lookup(BuildStage::kIndex, 0, &crc));
  EXPECT_EQ(crc, 0xCCCCu);
  ASSERT_TRUE(reopened->Lookup(BuildStage::kObservations, 0, &crc));
  EXPECT_EQ(crc, 0xBBBBu);
  EXPECT_FALSE(reopened->Lookup(BuildStage::kIndex, 1, &crc));
}

TEST(BuildJournalTest, ToleratesTornTrailingLine) {
  const std::string path = FreshDir("offline_journal_torn") + "/journal.txt";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  {
    auto journal = BuildJournal::Open(path);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal->Record(BuildStage::kIndex, 3, 42).ok());
  }
  {
    // Simulate a crash mid-append: a truncated entry with no newline.
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << "obs 4";
  }
  auto reopened = BuildJournal::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->num_entries(), 1u);
  uint32_t crc = 0;
  EXPECT_TRUE(reopened->Lookup(BuildStage::kIndex, 3, &crc));
  EXPECT_EQ(crc, 42u);
  // And the next Record appends cleanly after the torn bytes.
  ASSERT_TRUE(reopened->Record(BuildStage::kObservations, 5, 7).ok());
  auto again = BuildJournal::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_entries(), 2u);
}

TEST(StreamingReaderTest, VisitsPlannedTablesInOrder) {
  const std::string dir = WriteCorpusDir("offline_stream", 5, 6);
  auto plan = PlanShards({dir}, TrainerOptions{}, 1);
  ASSERT_TRUE(plan.ok());
  std::vector<std::string> names;
  ASSERT_TRUE(StreamShardTables(plan->shards[0], [&](Table&& table) {
                names.push_back(table.name());
              }).ok());
  ASSERT_EQ(names.size(), 5u);
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i],
              std::filesystem::path(plan->shards[0].files[i].path)
                  .stem()
                  .string());
  }
}

TEST(StreamingReaderTest, AbortsWhenInputDriftsFromPlan) {
  const std::string dir = WriteCorpusDir("offline_stream_drift", 3, 8);
  auto plan = PlanShards({dir}, TrainerOptions{}, 1);
  ASSERT_TRUE(plan.ok());
  {
    std::ofstream edit(plan->shards[0].files[1].path, std::ios::app);
    edit << "tampered,row,after,planning\n";
  }
  const Status status =
      StreamShardTables(plan->shards[0], [](Table&&) {});
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(OfflinePlanTest, PartialPathKeepsEveryDigitOfTheShardIndex) {
  EXPECT_TRUE(EndsWith(OfflinePartialPath("b", BuildStage::kIndex, 7),
                       "-00007.udsnap"));
  // 20 and 19 digits: a 16-byte buffer cut both to the same 15.
  const size_t max = std::numeric_limits<size_t>::max();
  const std::string a = OfflinePartialPath("b", BuildStage::kIndex, max);
  const std::string b = OfflinePartialPath("b", BuildStage::kIndex, max / 10);
  EXPECT_NE(a, b);
  EXPECT_TRUE(EndsWith(a, StrCat("-", max, ".udsnap"))) << a;
  EXPECT_TRUE(EndsWith(b, StrCat("-", max / 10, ".udsnap"))) << b;
}

TEST(OfflineBuildTest, PlanRefusesToOverwriteManifest) {
  const std::string dir = WriteCorpusDir("offline_replan_corpus", 4, 9);
  const std::string build_dir = FreshDir("offline_replan_build");
  ASSERT_TRUE(PlanOfflineBuild({dir}, TrainerOptions{}, 2, build_dir).ok());
  const Status again = PlanOfflineBuild({dir}, TrainerOptions{}, 2, build_dir);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists) << again.ToString();
}

}  // namespace
}  // namespace unidetect
