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

// The token index persists as the snapshot's kTokenTable section.
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
  // A decoded index has ids in sorted order, in a canonical table.
  const std::vector<std::pair<std::string, uint64_t>> sorted = {
      {"alpha", 2}, {"beta", 1}, {"gamma", 1}};
  EXPECT_EQ(Entries(restored->token_index()), sorted);
  EXPECT_EQ(restored->token_index().table().capacity(),
            FlatStringTable::CapacityFor(3));
}

// Token section layout: u64 num_tables, num_tokens, capacity and
// arena_bytes, then slots[capacity] of {u32 tag, u32 id}, u64 counts[n],
// u32 ends[n] and the token bytes.
struct TokenLayout {
  uint64_t num_tables = 0;
  uint64_t n = 0;
  uint64_t capacity = 0;
  uint64_t arena_bytes = 0;

  explicit TokenLayout(const std::string& payload) {
    BinaryReader reader(payload);
    EXPECT_TRUE(reader.ReadU64(&num_tables) && reader.ReadU64(&n) &&
                reader.ReadU64(&capacity) && reader.ReadU64(&arena_bytes));
  }
  static constexpr size_t kNumTokens = 8;
  static constexpr size_t kCapacity = 16;
  static constexpr size_t kArenaBytes = 24;
  size_t slot(uint64_t i) const { return 32 + 8 * i; }
  size_t tag(uint64_t i) const { return slot(i); }
  size_t id(uint64_t i) const { return slot(i) + 4; }
  size_t count(uint64_t id) const { return slot(capacity) + 8 * id; }
  size_t end(uint64_t id) const { return count(n) + 4 * id; }
  size_t arena() const { return end(n); }
};

uint32_t GetU32(const std::string& payload, size_t at) {
  BinaryReader reader(std::string_view(payload).substr(at));
  uint32_t v = 0;
  EXPECT_TRUE(reader.ReadU32(&v));
  return v;
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

constexpr uint32_t kEmpty = FlatStringTable::kAbsent;

// The first slot index (from `from`) whose occupancy is `occupied`.
uint64_t FindSlot(const std::string& p, const TokenLayout& l, bool occupied,
                  uint64_t from = 0) {
  for (uint64_t i = from; i < l.capacity; ++i) {
    if ((GetU32(p, l.id(i)) != kEmpty) == occupied) return i;
  }
  ADD_FAILURE() << "no " << (occupied ? "occupied" : "empty") << " slot";
  return 0;
}

// Rewrites the token section of a UDSNAP container with `edit` and
// repacks it with valid CRCs, so only the token decoder can object —
// unless `keep_crc` is false, which leaves the section's old CRC in
// the table.
using TokenEdit = std::function<void(std::string* payload)>;

struct HostileTokenEdit {
  const char* name;
  TokenEdit edit;
  bool reseal_crc = true;
};

std::string EditTokenSection(const std::string& pristine,
                             const HostileTokenEdit& hostile) {
  auto sections = testing_snapshot::SplitSections(pristine);
  std::string* payload = testing_snapshot::FindPayload(
      &sections, static_cast<uint32_t>(SnapshotSection::kTokenTable));
  EXPECT_NE(payload, nullptr);
  if (payload == nullptr) return pristine;
  const uint32_t old_crc = Crc32(*payload);
  hostile.edit(payload);
  std::string bytes =
      testing_snapshot::PackSections(kSnapshotVersion, sections);
  if (!hostile.reseal_crc) {
    // Section table entries follow the 16-byte header, 24 bytes each:
    // {u32 id, u32 crc, u64 offset, u64 length}.
    for (size_t at = 16; at < 16 + 24 * sections.size(); at += 24) {
      if (GetU32(bytes, at) ==
          static_cast<uint32_t>(SnapshotSection::kTokenTable)) {
        PutU32(&bytes, at + 4, old_crc);
      }
    }
  }
  return bytes;
}

TEST(TokenIndexTest, DeserializeRejectsGarbage) {
  // A slot naming a token that does not exist, two equal tokens, and a
  // section cut short: each repacked with a valid CRC, so only the
  // token decoder can object.
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"alpha bravo", "gamma"}}));
  const std::string pristine = EncodeWithIndex(index);
  const auto decode_edited = [&](TokenEdit edit) {
    return DecodeModelSnapshot(EditTokenSection(pristine, {"", edit}));
  };
  const auto bad_id = decode_edited([](std::string* p) {
    TokenLayout l(*p);
    PutU32(p, l.id(FindSlot(*p, l, true)), 1000);
  });
  const auto duplicate = decode_edited([](std::string* p) {
    TokenLayout l(*p);
    p->replace(l.arena() + 5, 5, p->substr(l.arena(), 5));
  });
  const auto truncated =
      decode_edited([](std::string* p) { p->resize(p->size() - 16); });
  for (const auto* result : {&bad_id, &duplicate, &truncated}) {
    ASSERT_FALSE(result->ok());
    EXPECT_TRUE(result->status().IsCorruption()) << result->status();
  }
}

// One fault per check of the token section: its CRC and size, then
// every rule FlatStringTable::CheckSortedLower and TokenIndex::Borrow
// apply on each open. The test models' first two tokens have the same
// length, so one edit can make them equal.
std::vector<HostileTokenEdit> HostileTokenEdits() {
  return {
      {"checksum",
       [](std::string* p) {
         TokenLayout l(*p);
         (*p)[l.arena()] ^= 0x01;
       },
       /*reseal_crc=*/false},
      {"truncated", [](std::string* p) { p->resize(p->size() - 8); }},
      {"num_tokens near 2^32",
       [](std::string* p) {
         PutU64(p, TokenLayout::kNumTokens, (uint64_t{1} << 32) - 2);
       }},
      {"num_tokens max",
       [](std::string* p) {
         PutU64(p, TokenLayout::kNumTokens,
                std::numeric_limits<uint64_t>::max());
       }},
      {"capacity max",
       [](std::string* p) {
         PutU64(p, TokenLayout::kCapacity,
                std::numeric_limits<uint64_t>::max());
       }},
      {"arena_bytes max",
       [](std::string* p) {
         PutU64(p, TokenLayout::kArenaBytes,
                std::numeric_limits<uint64_t>::max());
       }},
      // One more (empty) slot: a consistent size, a capacity that is
      // not a power of two.
      {"capacity not a power of two",
       [](std::string* p) {
         TokenLayout l(*p);
         std::string empty;
         AppendU32(&empty, 0);
         AppendU32(&empty, kEmpty);
         p->insert(l.slot(l.capacity), empty);
         PutU64(p, TokenLayout::kCapacity, l.capacity + 1);
       }},
      // Half the slots, with every key moved into them: a power of two
      // below the canonical capacity.
      {"capacity below canonical",
       [](std::string* p) {
         TokenLayout l(*p);
         const uint64_t half = l.capacity / 2;
         std::string slots;
         for (uint64_t i = 0; i < half; ++i) {
           AppendU32(&slots, 0);
           AppendU32(&slots, kEmpty);
         }
         for (uint64_t id = 0; id < l.n; ++id) {
           PutU32(&slots, 8 * id, 1);
           PutU32(&slots, 8 * id + 4, static_cast<uint32_t>(id));
         }
         p->replace(l.slot(0), 8 * l.capacity, slots);
         PutU64(p, TokenLayout::kCapacity, half);
       }},
      {"slot id out of range",
       [](std::string* p) {
         TokenLayout l(*p);
         PutU32(p, l.id(FindSlot(*p, l, true)),
                static_cast<uint32_t>(l.n));
       }},
      {"id held by two slots",
       [](std::string* p) {
         TokenLayout l(*p);
         const uint64_t occupied = FindSlot(*p, l, true);
         p->replace(l.slot(FindSlot(*p, l, false)), 8,
                    p->substr(l.slot(occupied), 8));
       }},
      // Every slot occupied: a probe for an absent key would never end.
      {"no empty slot",
       [](std::string* p) {
         TokenLayout l(*p);
         const std::string copy = p->substr(l.slot(FindSlot(*p, l, true)), 8);
         for (uint64_t i = 0; i < l.capacity; ++i) {
           if (GetU32(*p, l.id(i)) == kEmpty) p->replace(l.slot(i), 8, copy);
         }
       }},
      {"fewer occupied slots than tokens",
       [](std::string* p) {
         TokenLayout l(*p);
         const uint64_t i = FindSlot(*p, l, true);
         PutU32(p, l.tag(i), 0);
         PutU32(p, l.id(i), kEmpty);
       }},
      {"empty slot with a tag",
       [](std::string* p) {
         TokenLayout l(*p);
         PutU32(p, l.tag(FindSlot(*p, l, false)), 7);
       }},
      {"empty first token", [](std::string* p) {
         TokenLayout l(*p);
         PutU32(p, l.end(0), 0);
       }},
      {"ends do not rise",
       [](std::string* p) {
         TokenLayout l(*p);
         PutU32(p, l.end(1), GetU32(*p, l.end(0)));
       }},
      {"ends past the arena",
       [](std::string* p) {
         TokenLayout l(*p);
         PutU32(p, l.end(l.n - 1), static_cast<uint32_t>(l.arena_bytes + 1));
       }},
      {"ends short of the arena",
       [](std::string* p) {
         TokenLayout l(*p);
         PutU32(p, l.end(l.n - 1), static_cast<uint32_t>(l.arena_bytes - 1));
       }},
      {"uppercase token",
       [](std::string* p) {
         TokenLayout l(*p);
         (*p)[l.arena()] = 'A';
       }},
      {"duplicate token",
       [](std::string* p) {
         TokenLayout l(*p);
         const uint32_t len0 = GetU32(*p, l.end(0));
         ASSERT_EQ(GetU32(*p, l.end(1)) - len0, len0);
         p->replace(l.arena() + len0, len0, p->substr(l.arena(), len0));
       }},
      {"tokens out of order",
       [](std::string* p) {
         TokenLayout l(*p);
         const uint32_t len0 = GetU32(*p, l.end(0));
         const std::string first = p->substr(l.arena(), len0);
         p->replace(l.arena(), len0, p->substr(l.arena() + len0, len0));
         p->replace(l.arena() + len0, len0, first);
       }},
      {"zero count", [](std::string* p) {
         TokenLayout l(*p);
         PutU64(p, l.count(0), 0);
       }},
      {"count above num_tables",
       [](std::string* p) {
         TokenLayout l(*p);
         PutU64(p, l.count(0), l.num_tables + 1);
       }},
      {"max count",
       [](std::string* p) {
         TokenLayout l(*p);
         PutU64(p, l.count(0), std::numeric_limits<uint64_t>::max());
       }},
  };
}

// A base and a delta whose first two sorted tokens ("alpha" and
// "bravo", "alpha" and "delta") have the same length.
struct TokenChain {
  std::string dir;
  std::string base_path;
  std::string pristine_base;
  std::string pristine_delta;
};

TokenChain MakeTokenChain(const std::string& name) {
  TokenChain chain;
  chain.dir =
      testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
  std::filesystem::create_directories(chain.dir);
  Model base;
  base.mutable_token_index()->AddTable(
      MakeTable("t", {{"alpha bravo", "gamma"}}));
  base.mutable_token_index()->AddTable(MakeTable("t", {{"alpha"}}));
  base.Finalize();
  chain.base_path = chain.dir + "/base.udsnap";
  EXPECT_TRUE(base.Save(chain.base_path).ok());
  auto identity = ReadSnapshotIdentity(chain.base_path);
  EXPECT_TRUE(identity.ok()) << identity.status();
  const DeltaManifest manifest{identity->artifact_id, identity->artifact_id,
                               1};
  Model delta;
  delta.mutable_token_index()->AddTable(MakeTable("t", {{"delta alpha"}}));
  delta.mutable_token_index()->AddTable(MakeTable("t", {{"epsilon"}}));
  delta.Finalize();
  chain.pristine_base = EncodeModelSnapshot(base);
  chain.pristine_delta = EncodeModelSnapshotV2(delta, &manifest);
  return chain;
}

// Every hostile token section is Corruption through the in-memory
// decoder, the mmap loader, Model::Load, DetectionService::Create and
// ApplyDelta, in both validation modes, and a refused delta leaves the
// served chain where it was. None may crash or hang: the table without
// an empty slot would spin a probe forever if a lookup reached it.
TEST(TokenIndexTest, HostileEntriesFailTypedThroughEveryLoader) {
  const TokenChain chain = MakeTokenChain("hostile_tokens");
  ASSERT_TRUE(DecodeModelSnapshot(chain.pristine_delta).ok());
  auto service = DetectionService::Create(chain.base_path);
  ASSERT_TRUE(service.ok()) << service.status();
  const uint64_t generation = (*service)->generation();

  for (const HostileTokenEdit& hostile : HostileTokenEdits()) {
    SCOPED_TRACE(hostile.name);
    const std::string bytes = EditTokenSection(chain.pristine_base, hostile);
    const std::string path = chain.dir + "/hostile.udsnap";
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
    auto created = DetectionService::Create(path);
    ASSERT_FALSE(created.ok());
    EXPECT_TRUE(created.status().IsCorruption()) << created.status();

    const std::string delta_path = chain.dir + "/hostile_delta.udsnap";
    ASSERT_TRUE(WriteStringToFile(
                    delta_path, EditTokenSection(chain.pristine_delta, hostile))
                    .ok());
    const Status applied = (*service)->ApplyDelta(delta_path);
    EXPECT_TRUE(applied.IsCorruption()) << applied;
    EXPECT_EQ((*service)->generation(), generation);
    EXPECT_EQ((*service)->Layers().ids.size(), 1u);
  }

  // Each layer's counts are in range, but the chain's table counts
  // would overflow u64 when summed: refused at ApplyDelta.
  const std::string huge = EditTokenSection(
      chain.pristine_delta, {"huge num_tables", [](std::string* p) {
                               PutU64(p, 0,
                                      std::numeric_limits<uint64_t>::max());
                             }});
  ASSERT_TRUE(DecodeModelSnapshot(huge).ok());
  const std::string huge_path = chain.dir + "/huge_delta.udsnap";
  ASSERT_TRUE(WriteStringToFile(huge_path, huge).ok());
  const Status applied = (*service)->ApplyDelta(huge_path);
  EXPECT_TRUE(applied.IsCorruption()) << applied;
  EXPECT_EQ((*service)->generation(), generation);

  // The untouched delta still applies.
  const std::string good_path = chain.dir + "/good_delta.udsnap";
  ASSERT_TRUE(WriteStringToFile(good_path, chain.pristine_delta).ok());
  EXPECT_TRUE((*service)->ApplyDelta(good_path).ok());
  std::filesystem::remove_all(chain.dir);
}

// A slot that every-open checks accept but whose token its probe cannot
// reach: moved to an empty slot before its probe run, or carrying the
// wrong tag. Full validation (the compactor, the tools, Model::Load)
// re-hashes every token and rejects both; the deferred open serves the
// token as unseen, which is wrong but safe.
TEST(TokenIndexTest, MisplacedSlotFailsFullValidationOnly) {
  const TokenChain chain = MakeTokenChain("misplaced_tokens");
  const std::vector<HostileTokenEdit> edits = {
      {"slot moved before its probe run",
       [](std::string* p) {
         TokenLayout l(*p);
         const uint64_t i = FindSlot(*p, l, true);
         uint64_t j = (i + l.capacity - 1) % l.capacity;
         while (GetU32(*p, l.id(j)) != kEmpty) {
           j = (j + l.capacity - 1) % l.capacity;
         }
         p->replace(l.slot(j), 8, p->substr(l.slot(i), 8));
         PutU32(p, l.tag(i), 0);
         PutU32(p, l.id(i), kEmpty);
       }},
      {"wrong tag",
       [](std::string* p) {
         TokenLayout l(*p);
         const uint64_t i = FindSlot(*p, l, true);
         PutU32(p, l.tag(i), GetU32(*p, l.tag(i)) ^ 1);
       }},
  };
  for (const HostileTokenEdit& hostile : edits) {
    SCOPED_TRACE(hostile.name);
    const std::string bytes = EditTokenSection(chain.pristine_base, hostile);
    const std::string path = chain.dir + "/misplaced.udsnap";
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
    auto full = DecodeModelSnapshot(bytes, SnapshotValidation::kFull);
    ASSERT_FALSE(full.ok());
    EXPECT_TRUE(full.status().IsCorruption()) << full.status();
    auto view = ModelView::Open(path, SnapshotValidation::kFull);
    ASSERT_FALSE(view.ok());
    EXPECT_TRUE(view.status().IsCorruption()) << view.status();
    auto loaded = Model::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();

    auto deferred = ModelView::Open(path, SnapshotValidation::kDeferPayload);
    ASSERT_TRUE(deferred.ok()) << deferred.status();
    size_t unseen = 0;
    for (const char* token : {"alpha", "bravo", "gamma"}) {
      unseen += deferred->model().token_index().TableCount(token) == 0;
    }
    EXPECT_GE(unseen, 1u);
  }
  std::filesystem::remove_all(chain.dir);
}

// Random tables over a small alphabet, so tokens repeat within and
// across layers.
Table RandomTable(Rng* rng) {
  static constexpr std::string_view kAlphabet = "abXY z,;\v\xc3\xa9";
  std::vector<std::string> cells;
  for (int i = 0; i < 5; ++i) {
    std::string cell(rng->NextBounded(12), ' ');
    for (char& c : cell) c = kAlphabet[rng->NextBounded(kAlphabet.size())];
    cells.push_back(cell);
  }
  return MakeTable("t", {cells});
}

// Every token's TableCount agrees through the trained index, the owned
// decode and the mapped file; a base plus four deltas, layered, agree
// with their Model::Merge fold; and decoding then re-encoding every
// file gives back its bytes.
TEST(TokenIndexTest, CountsAgreeAcrossTrainedDecodedMappedAndLayered) {
  const std::string dir = testing::TempDir() + "/token_layers." +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  Rng rng(408);
  std::vector<Model> trained;
  for (int layer = 0; layer < 5; ++layer) {
    Model model;
    for (int t = 0; t < 40 + 20 * layer; ++t) {
      model.mutable_token_index()->AddTable(RandomTable(&rng));
    }
    model.Finalize();
    trained.push_back(std::move(model));
  }
  Model fold;
  for (const Model& model : trained) fold.Merge(model);
  fold.Finalize();

  // Probes: every token of the fold, upper-cased, plus absent ones.
  std::vector<std::string> probes = {"", "absent", "ZZZ", "\xc3\xa9\xc3"};
  fold.token_index().ForEachToken([&](std::string_view token, uint64_t) {
    probes.emplace_back(token);
    probes.push_back(ToUpper(token));
  });
  ASSERT_GT(probes.size(), 200u);

  std::vector<ModelView> mapped;
  for (size_t i = 0; i <= trained.size(); ++i) {
    const Model& model = i < trained.size() ? trained[i] : fold;
    SCOPED_TRACE(i);
    const std::string bytes = EncodeModelSnapshot(model);
    const std::string path = dir + "/layer" + std::to_string(i) + ".udsnap";
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
    auto decoded = DecodeModelSnapshot(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    auto view = ModelView::Open(path, SnapshotValidation::kFull);
    ASSERT_TRUE(view.ok()) << view.status();
    EXPECT_TRUE(view->model().token_index().table().borrowed());
    EXPECT_FALSE(decoded->token_index().table().borrowed());
    for (const std::string& probe : probes) {
      const uint64_t want = model.token_index().TableCount(probe);
      EXPECT_EQ(decoded->token_index().TableCount(probe), want) << probe;
      EXPECT_EQ(view->model().token_index().TableCount(probe), want) << probe;
    }
    EXPECT_EQ(EncodeModelSnapshot(*decoded), bytes);
    EXPECT_EQ(EncodeModelSnapshot(view->model()), bytes);
    if (i < trained.size()) mapped.push_back(std::move(view).ValueOrDie());
  }

  std::vector<const TokenIndex*> layers;
  for (const ModelView& view : mapped) {
    layers.push_back(&view.model().token_index());
  }
  const TokenPrevalence layered(layers);
  for (const std::string& probe : probes) {
    EXPECT_EQ(layered.TableCount(probe), fold.token_index().TableCount(probe))
        << probe;
  }
  // Mapped layers fold to the same bytes as the trained layers.
  Model mapped_fold;
  for (const ModelView& view : mapped) mapped_fold.Merge(view.model());
  mapped_fold.Finalize();
  EXPECT_EQ(EncodeModelSnapshot(mapped_fold), EncodeModelSnapshot(fold));
  std::filesystem::remove_all(dir);
}

// ApproxResidentBytes counts an owned token table and leaves a mapped
// one to mapped_bytes().
TEST(TokenIndexTest, ResidentBytesCountTheOwnedTableOnly) {
  Model model;
  for (int t = 0; t < 200; ++t) {
    model.mutable_token_index()->AddTable(
        MakeTable("t", {{"token" + std::to_string(t), "shared"}}));
  }
  model.Finalize();
  const uint64_t table_bytes = model.token_index().OwnedBytes();
  EXPECT_GE(table_bytes,
            model.token_index().table().capacity() *
                    sizeof(FlatStringTable::Slot) +
                model.token_index().num_tokens() *
                    (sizeof(uint64_t) + sizeof(uint32_t)));
  EXPECT_GE(model.ApproxResidentBytes(), table_bytes);

  const std::string path = testing::TempDir() + "/resident_tokens." +
                           std::to_string(::getpid()) + ".udsnap";
  ASSERT_TRUE(model.Save(path).ok());
  auto view = ModelView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status();
  EXPECT_EQ(view->model().token_index().OwnedBytes(), 0u);
  EXPECT_LT(view->resident_bytes(), table_bytes);
  EXPECT_GT(view->mapped_bytes(), table_bytes / 2);
  auto decoded = DecodeModelSnapshot(*ReadFileToString(path));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_GT(decoded->token_index().OwnedBytes(), table_bytes / 2);
  EXPECT_GE(decoded->ApproxResidentBytes(),
            decoded->token_index().OwnedBytes());
  std::filesystem::remove(path);
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
