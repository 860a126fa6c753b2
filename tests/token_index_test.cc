#include "corpus/token_index.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "learn/model.h"
#include "learn/table_columns.h"
#include "model_format/delta_snapshot.h"
#include "model_format/model_snapshot.h"
#include "model_format/model_view.h"
#include "model_format/snapshot_v2.h"
#include "reference/prevalence_reference.h"
#include "serving/detection_service.h"
#include "snapshot_sections.h"
#include "util/binary_io.h"
#include "util/random.h"
#include "util/string_util.h"

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
  const PrevalenceReference reference(index);
  EXPECT_NEAR(reference.AveragePrevalence(col), 5.5, 1e-12);
  // The library computes it over the column's codes.
  const TokenPrevalence prevalence(index);
  EXPECT_EQ(EncodedColumn(col, prevalence).prevalence(), 5.5);
  // Empty columns yield zero.
  Column empty("c", {"", " "});
  EXPECT_DOUBLE_EQ(reference.AveragePrevalence(empty), 0.0);
  EXPECT_EQ(EncodedColumn(empty, prevalence).prevalence(), 0.0);
}

std::vector<std::pair<std::string, uint64_t>> Entries(const TokenIndex& index) {
  std::vector<std::pair<std::string, uint64_t>> out;
  index.ForEachToken([&](std::string_view token, uint64_t count) {
    out.emplace_back(std::string(token), count);
  });
  return out;
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
  // Tokens new to `a` are appended in `b`'s order.
  TokenIndex c;
  c.AddTable(MakeTable("t", {{"z Y"}}));
  c.AddTable(MakeTable("t", {{"w"}}));
  a.Merge(c);
  const std::vector<std::pair<std::string, uint64_t>> expected = {
      {"x", 2}, {"y", 2}, {"z", 1}, {"w", 1}};
  EXPECT_EQ(Entries(a), expected);
  EXPECT_EQ(a.num_tables(), 4u);
}

// Many partial indexes folded by Merge agree with a std::map oracle of
// per-table distinct ToLower tokens, through the folded lookup too.
TEST(TokenIndexTest, MergeOfManyPartialsMatchesMapOracle) {
  Rng rng(407);
  const std::string alphabet = "abXY z,;\v\xc3\xa9";
  TokenIndex merged;
  std::map<std::string, uint64_t> oracle;
  for (int part = 0; part < 8; ++part) {
    TokenIndex partial;
    for (int t = 0; t < 20; ++t) {
      std::vector<std::string> cells;
      for (int i = 0; i < 5; ++i) {
        std::string cell(rng.NextBounded(12), ' ');
        for (char& c : cell) c = alphabet[rng.NextBounded(alphabet.size())];
        cells.push_back(cell);
      }
      partial.AddTable(MakeTable("t", {cells}));
      std::set<std::string> distinct;
      for (const std::string& cell : cells) {
        for (const std::string& token : TokenizeCell(cell)) {
          distinct.insert(ToLower(token));
        }
      }
      for (const std::string& token : distinct) ++oracle[token];
    }
    merged.Merge(partial);
  }
  ASSERT_GT(oracle.size(), 100u);
  size_t visits = 0;
  merged.ForEachToken([&](std::string_view token, uint64_t count) {
    ++visits;
    EXPECT_EQ(oracle.at(std::string(token)), count) << token;
  });
  EXPECT_EQ(visits, oracle.size());
  for (const auto& [token, count] : oracle) {
    EXPECT_EQ(merged.TableCount(ToUpper(token)), count) << token;
  }
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

// Rewrites the token section of a UDSNAP container with `edit` and
// repacks it with valid CRCs, so only the token decoder can object. The
// edit also gets the byte count of the container's string pool.
using TokenEdit = std::function<void(std::string* payload, uint64_t pool)>;

std::string EditTokenSection(const std::string& pristine,
                             const TokenEdit& edit) {
  auto sections = testing_snapshot::SplitSections(pristine);
  const std::string* pool = testing_snapshot::FindPayload(
      &sections, static_cast<uint32_t>(SnapshotSection::kStringPool));
  std::string* payload = testing_snapshot::FindPayload(
      &sections, static_cast<uint32_t>(SnapshotSection::kTokenIndex2));
  EXPECT_NE(pool, nullptr);
  EXPECT_NE(payload, nullptr);
  if (pool != nullptr && payload != nullptr) edit(payload, pool->size() - 8);
  return testing_snapshot::PackSections(kSnapshotVersion, sections);
}

void PutU32(std::string* payload, size_t at, uint32_t v) {
  std::string bytes;
  AppendU32(&bytes, v);
  payload->replace(at, bytes.size(), bytes);
}

void PutU64(std::string* payload, size_t at, uint64_t v) {
  std::string bytes;
  AppendU64(&bytes, v);
  payload->replace(at, bytes.size(), bytes);
}

// Token section layout: u64 num_tables at 0, u64 num_tokens at 8, then
// {u32 pool_off, u32 pool_len, u64 count} entries from byte 16.
constexpr size_t kNumTokens = 8;
constexpr size_t kEntry0Off = 16;
constexpr size_t kEntry0Len = 16 + 4;
constexpr size_t kEntry0Count = 16 + 8;

struct HostileTokenEdit {
  const char* name;
  TokenEdit edit;
};

// One fault each: every check of the token decode's single pass, and
// the size check that runs before it reserves anything.
std::vector<HostileTokenEdit> HostileTokenEdits() {
  return {
      {"pool offset out of bounds",
       [](std::string* p, uint64_t pool) {
         PutU32(p, kEntry0Off, static_cast<uint32_t>(pool + 1));
       }},
      {"pool length out of bounds",
       [](std::string* p, uint64_t) {
         PutU32(p, kEntry0Len, std::numeric_limits<uint32_t>::max());
       }},
      {"zero count",
       [](std::string* p, uint64_t) { PutU64(p, kEntry0Count, 0); }},
      {"count above num_tables",
       [](std::string* p, uint64_t) {
         BinaryReader reader(*p);
         uint64_t num_tables = 0;
         reader.ReadU64(&num_tables);
         PutU64(p, kEntry0Count, num_tables + 1);
       }},
      {"max count",
       [](std::string* p, uint64_t) {
         PutU64(p, kEntry0Count, std::numeric_limits<uint64_t>::max());
       }},
      {"empty token",
       [](std::string* p, uint64_t) { PutU32(p, kEntry0Len, 0); }},
      {"duplicate token",
       [](std::string* p, uint64_t) { p->replace(32, 16, p->substr(16, 16)); }},
      // Distinct, in-bounds, non-empty prefixes of the whole pool: each
      // entry alone is valid, but together they hold more token bytes
      // than the pool.
      {"token bytes past the pool",
       [](std::string* p, uint64_t pool) {
         for (size_t at = 16, i = 0; at < p->size(); at += 16, ++i) {
           PutU32(p, at, 0);
           PutU32(p, at + 4, static_cast<uint32_t>(pool - i));
         }
       }},
      // A count the section cannot hold fails its size check before the
      // decoder reserves anything by it.
      {"num_tokens near 2^32",
       [](std::string* p, uint64_t) {
         PutU64(p, kNumTokens, (uint64_t{1} << 32) - 2);
       }},
      {"num_tokens max",
       [](std::string* p, uint64_t) {
         PutU64(p, kNumTokens, std::numeric_limits<uint64_t>::max());
       }},
  };
}

// Hostile token entries (a count the table total does not bound, which
// would wrap the layer sums in TokenPrevalence::TableCount and
// TokenIndex::Merge; an empty token; a duplicate) are Corruption through
// the in-memory decoder, the mmap loader, Model::Load, and ApplyDelta,
// and a refused delta leaves the served chain where it was.
TEST(TokenIndexTest, HostileEntriesFailTypedThroughEveryLoader) {
  const std::string dir = testing::TempDir() + "/hostile_tokens." +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  Model base;
  base.mutable_token_index()->AddTable(
      MakeTable("t", {{"alpha beta", "gamma"}}));
  base.mutable_token_index()->AddTable(MakeTable("t", {{"alpha"}}));
  base.Finalize();
  const std::string base_path = dir + "/base.udsnap";
  ASSERT_TRUE(base.Save(base_path).ok());
  auto service = DetectionService::Create(base_path);
  ASSERT_TRUE(service.ok()) << service.status();
  auto identity = ReadSnapshotIdentity(base_path);
  ASSERT_TRUE(identity.ok()) << identity.status();
  const DeltaManifest manifest{identity->artifact_id, identity->artifact_id,
                               1};

  Model delta;
  delta.mutable_token_index()->AddTable(MakeTable("t", {{"delta alpha"}}));
  delta.mutable_token_index()->AddTable(MakeTable("t", {{"epsilon"}}));
  delta.Finalize();
  const std::string pristine_base = EncodeModelSnapshot(base);
  const std::string pristine_delta = EncodeModelSnapshotV2(delta, &manifest);
  ASSERT_TRUE(DecodeModelSnapshot(pristine_delta).ok());
  const uint64_t generation = (*service)->generation();

  for (const HostileTokenEdit& hostile : HostileTokenEdits()) {
    SCOPED_TRACE(hostile.name);
    const std::string bytes = EditTokenSection(pristine_base, hostile.edit);
    const std::string path = dir + "/hostile.udsnap";
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
    for (const SnapshotValidation validation :
         {SnapshotValidation::kFull, SnapshotValidation::kDeferPayload}) {
      auto decoded = DecodeModelSnapshot(bytes, validation);
      ASSERT_FALSE(decoded.ok());
      EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
      auto view = ModelView::Open(path, validation);
      ASSERT_FALSE(view.ok());
      EXPECT_TRUE(view.status().IsCorruption()) << view.status();
    }
    auto loaded = Model::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();

    const std::string delta_path = dir + "/hostile_delta.udsnap";
    ASSERT_TRUE(WriteStringToFile(
                    delta_path, EditTokenSection(pristine_delta, hostile.edit))
                    .ok());
    const Status applied = (*service)->ApplyDelta(delta_path);
    EXPECT_TRUE(applied.IsCorruption()) << applied;
    EXPECT_EQ((*service)->generation(), generation);
  }

  // Each layer's counts are in range, but the chain's table counts
  // would overflow u64 when summed: refused at ApplyDelta.
  const std::string huge =
      EditTokenSection(pristine_delta, [](std::string* p, uint64_t) {
        PutU64(p, 0, std::numeric_limits<uint64_t>::max());
      });
  ASSERT_TRUE(DecodeModelSnapshot(huge).ok());
  const std::string huge_path = dir + "/huge_delta.udsnap";
  ASSERT_TRUE(WriteStringToFile(huge_path, huge).ok());
  const Status applied = (*service)->ApplyDelta(huge_path);
  EXPECT_TRUE(applied.IsCorruption()) << applied;
  EXPECT_EQ((*service)->generation(), generation);

  // The untouched delta still applies.
  const std::string good_path = dir + "/good_delta.udsnap";
  ASSERT_TRUE(WriteStringToFile(good_path, pristine_delta).ok());
  EXPECT_TRUE((*service)->ApplyDelta(good_path).ok());
  std::filesystem::remove_all(dir);
}

TEST(TokenIndexTest, ForEachTokenVisitsAll) {
  // Each token once, in insertion order.
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"Beta alpha", "BETA", "gamma"}}));
  index.AddTable(MakeTable("t", {{"delta", "Alpha"}}));
  const std::vector<std::pair<std::string, uint64_t>> expected = {
      {"beta", 1}, {"alpha", 2}, {"gamma", 1}, {"delta", 1}};
  EXPECT_EQ(Entries(index), expected);
  EXPECT_EQ(index.num_tokens(), 4u);
}

}  // namespace
}  // namespace unidetect
