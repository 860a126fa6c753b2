#include "corpus/token_index.h"

#include <gtest/gtest.h>

#include "learn/model.h"
#include "model_format/model_snapshot.h"
#include "snapshot_sections.h"

namespace unidetect {
namespace {

Table MakeTable(const std::string& name,
                std::vector<std::vector<std::string>> columns) {
  Table table(name);
  for (size_t i = 0; i < columns.size(); ++i) {
    EXPECT_TRUE(
        table.AddColumn(Column("c" + std::to_string(i), columns[i])).ok());
  }
  return table;
}

TEST(TokenIndexTest, CountsTablesNotOccurrences) {
  TokenIndex index;
  // "london" appears twice in one table: counts once.
  index.AddTable(MakeTable("t1", {{"London", "London", "Paris"}}));
  index.AddTable(MakeTable("t2", {{"London"}}));
  EXPECT_EQ(index.num_tables(), 2u);
  EXPECT_EQ(index.TableCount("london"), 2u);
  EXPECT_EQ(index.TableCount("paris"), 1u);
  EXPECT_EQ(index.TableCount("berlin"), 0u);
}

TEST(TokenIndexTest, CaseFolded) {
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"LONDON"}}));
  EXPECT_EQ(index.TableCount("London"), 1u);
  EXPECT_EQ(index.TableCount("london"), 1u);
}

TEST(TokenIndexTest, MultiTokenCells) {
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"Keane, Mr. Andrew"}}));
  EXPECT_EQ(index.TableCount("keane"), 1u);
  EXPECT_EQ(index.TableCount("mr."), 1u);
  EXPECT_EQ(index.TableCount("andrew"), 1u);
}

TEST(TokenIndexTest, AveragePrevalence) {
  TokenIndex index;
  for (int i = 0; i < 10; ++i) {
    index.AddTable(MakeTable("t", {{"common"}}));
  }
  index.AddTable(MakeTable("t", {{"rare"}}));
  // A column of one "common" (11 occurrences... 10 tables) and one "rare".
  Column col("c", {"common", "rare"});
  // common counts 10, rare counts 1 -> average (10 + 1) / 2.
  EXPECT_NEAR(index.AveragePrevalence(col), 5.5, 1e-12);
  // Empty columns yield zero.
  Column empty("c", {"", " "});
  EXPECT_DOUBLE_EQ(index.AveragePrevalence(empty), 0.0);
}

TEST(TokenIndexTest, MergeAddsCounts) {
  TokenIndex a;
  TokenIndex b;
  a.AddTable(MakeTable("t", {{"x"}}));
  b.AddTable(MakeTable("t", {{"x", "y"}}));
  a.Merge(b);
  EXPECT_EQ(a.num_tables(), 2u);
  EXPECT_EQ(a.TableCount("x"), 2u);
  EXPECT_EQ(a.TableCount("y"), 1u);
}

// The token index persists as the snapshot's kTokenIndex2 section.
std::string EncodeWithIndex(const TokenIndex& index) {
  Model model;
  *model.mutable_token_index() = index;
  model.Finalize();
  return EncodeModelSnapshot(model);
}

TEST(TokenIndexTest, SerializationRoundTrip) {
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"alpha beta", "gamma"}}));
  index.AddTable(MakeTable("t", {{"alpha"}}));
  auto restored = DecodeModelSnapshot(EncodeWithIndex(index));
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->token_index().num_tables(), 2u);
  EXPECT_EQ(restored->token_index().TableCount("alpha"), 2u);
  EXPECT_EQ(restored->token_index().TableCount("beta"), 1u);
  EXPECT_EQ(restored->token_index().num_tokens(), index.num_tokens());
}

TEST(TokenIndexTest, DeserializeRejectsGarbage) {
  // Section payload: u64 num_tables, u64 num_tokens, then one
  // {u32 pool_off, u32 pool_len, u64 count} entry per token. Each edit
  // is repacked with a valid CRC, so only the token decoder can object.
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"alpha beta", "gamma"}}));
  const std::string pristine = EncodeWithIndex(index);
  constexpr uint32_t kTokenSection =
      static_cast<uint32_t>(SnapshotSection::kTokenIndex2);
  const auto decode_edited = [&](auto edit) {
    auto sections = testing_snapshot::SplitSections(pristine);
    std::string* payload =
        testing_snapshot::FindPayload(&sections, kTokenSection);
    EXPECT_NE(payload, nullptr);
    if (payload != nullptr) edit(payload);
    return DecodeModelSnapshot(testing_snapshot::PackSections(2, sections));
  };
  const auto out_of_pool = decode_edited([](std::string* payload) {
    payload->replace(16 + 4, 4, std::string(4, '\xff'));  // pool_len
  });
  const auto duplicate = decode_edited([](std::string* payload) {
    payload->replace(32, 16, payload->substr(16, 16));  // entry 1 = entry 0
  });
  const auto truncated = decode_edited(
      [](std::string* payload) { payload->resize(payload->size() - 16); });
  for (const auto* result : {&out_of_pool, &duplicate, &truncated}) {
    ASSERT_FALSE(result->ok());
    EXPECT_TRUE(result->status().IsCorruption()) << result->status();
  }
}

TEST(TokenIndexTest, ForEachTokenVisitsAll) {
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"a b c"}}));
  size_t visited = 0;
  index.ForEachToken([&](std::string_view, uint64_t count) {
    ++visited;
    EXPECT_EQ(count, 1u);
  });
  EXPECT_EQ(visited, 3u);
}

}  // namespace
}  // namespace unidetect
