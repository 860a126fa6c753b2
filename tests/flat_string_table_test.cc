// FlatStringTable (util/flat_string_table.h): ids in first-insertion
// order across growth, byte-exact keys, rejected duplicates, and the
// allocation-free case-folded lookup against ToLower, and the borrowed
// form a mapped snapshot lends its arrays to. The TokenIndex
// built on it (Merge, one visit per token in insertion order) is tested
// in token_index_test.cc.

#include "util/flat_string_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/random.h"
#include "util/string_util.h"

namespace unidetect {
namespace {

// Keys of assorted lengths (0..40 bytes, so both the 8-byte word loop
// and the zero-padded tail are hit), mixed case and high bytes.
std::string RandomKey(Rng* rng) {
  static constexpr std::string_view kAlphabet =
      "abcXYZ019 .-_\v\f\x80\xc3\xa9\xff";
  std::string key(rng->NextBounded(41), ' ');
  for (char& c : key) c = kAlphabet[rng->NextBounded(kAlphabet.size())];
  return key;
}

TEST(FlatStringTableTest, IdsFollowFirstInsertionAcrossGrowth) {
  FlatStringTable table;
  Rng rng(404);
  std::map<std::string, uint32_t> expected;  // the oracle
  std::vector<std::string> order;
  for (int i = 0; i < 20000; ++i) {
    const std::string key = RandomKey(&rng);
    const auto [id, inserted] = table.Insert(key);
    const auto [it, fresh] = expected.emplace(key, order.size());
    EXPECT_EQ(inserted, fresh) << i;
    EXPECT_EQ(id, it->second) << i;
    if (fresh) order.push_back(key);
  }
  ASSERT_EQ(table.size(), order.size());
  ASSERT_GT(table.size(), 1000u);  // grew many times past its 16 slots
  for (uint32_t id = 0; id < order.size(); ++id) {
    EXPECT_EQ(table.key(id), order[id]);
    EXPECT_EQ(table.Insert(order[id]), std::make_pair(id, false));
  }
}

TEST(FlatStringTableTest, KeysCompareByBytes) {
  FlatStringTable table;
  const std::vector<std::string> keys = {
      "",  "a",   "A", "a\v", "a\f", " a", std::string("a\0", 2),
      "abcdefgh", "abcdefgH", "abcdefghi", "\xc3\xa9", "\xc3\x89"};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Insert(keys[i]), std::make_pair(uint32_t(i), true));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.Insert(keys[i]), std::make_pair(uint32_t(i), false));
    EXPECT_EQ(table.key(static_cast<uint32_t>(i)), keys[i]);
  }
}

TEST(FlatStringTableTest, AsciiLowerMatchesToLower) {
  FlatStringTable table;
  Rng rng(405);
  std::vector<std::string> raw;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 3000; ++i) {
    raw.push_back(RandomKey(&rng));
    ids.push_back(table.InsertAsciiLower(raw.back()).first);
    EXPECT_EQ(table.key(ids.back()), ToLower(raw.back()));
  }
  // Stored keys are the ToLower forms; a folded probe of any casing of a
  // raw key finds the key's id, bytes >= 0x80 untouched.
  for (size_t i = 0; i < raw.size(); ++i) {
    for (const std::string& probe :
         {raw[i], ToUpper(raw[i]), ToLower(raw[i])}) {
      EXPECT_EQ(table.FindAsciiLower(probe,
                                     FlatStringTable::HashAsciiLower(probe)),
                ids[i])
          << probe;
    }
  }
  const std::string absent = "Q\xc3\x89Q";
  const auto find = [](const FlatStringTable& t, std::string_view key) {
    return t.FindAsciiLower(key, FlatStringTable::HashAsciiLower(key));
  };
  EXPECT_EQ(find(table, absent), FlatStringTable::kAbsent);
  // The fold is ASCII only: 0xC9 is not 0xE9's uppercase here.
  FlatStringTable high;
  high.InsertAsciiLower("\xe9");
  EXPECT_EQ(find(high, "\xc9"), FlatStringTable::kAbsent);
  EXPECT_EQ(find(FlatStringTable(), "x"), FlatStringTable::kAbsent);
}

TEST(FlatStringTableTest, ReserveKeepsIdsAndKeys) {
  FlatStringTable reserved;
  reserved.Reserve(5000, 5000 * 20);
  FlatStringTable grown;
  Rng rng(406);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = RandomKey(&rng);
    EXPECT_EQ(reserved.Insert(key), grown.Insert(key));
  }
  ASSERT_EQ(reserved.size(), grown.size());
  for (uint32_t id = 0; id < grown.size(); ++id) {
    EXPECT_EQ(reserved.key(id), grown.key(id));
  }
}

// The canonical sorted form a snapshot stores: keys inserted in sorted
// order into a table reserved for them.
FlatStringTable SortedLowerTable(std::vector<std::string> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  FlatStringTable table;
  table.Reserve(keys.size());
  for (const std::string& key : keys) table.Insert(key);
  return table;
}

// A borrowed view of a table's arrays answers every lookup as the table
// does and passes the canonical checks.
TEST(FlatStringTableTest, BorrowedTableAnswersLikeOwned) {
  Rng rng(409);
  std::vector<std::string> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(ToLower(RandomKey(&rng)));
  keys.erase(std::remove(keys.begin(), keys.end(), ""), keys.end());
  const FlatStringTable owned = SortedLowerTable(keys);
  EXPECT_EQ(owned.capacity(), FlatStringTable::CapacityFor(owned.size()));
  ASSERT_TRUE(owned.CheckSortedLower(/*verify_probes=*/true).ok());
  const FlatStringTable borrowed =
      FlatStringTable::Borrow(owned.slots(), owned.arena(), owned.ends());
  EXPECT_TRUE(borrowed.borrowed());
  EXPECT_EQ(borrowed.OwnedBytes(), 0u);
  ASSERT_TRUE(borrowed.CheckSortedLower(/*verify_probes=*/true).ok());
  const auto find = [](const FlatStringTable& t, std::string_view key) {
    return t.FindAsciiLower(key, FlatStringTable::HashAsciiLower(key));
  };
  for (int i = 0; i < 3000; ++i) {
    const std::string probe = i % 2 == 0 ? ToUpper(keys[i % keys.size()])
                                         : RandomKey(&rng);
    EXPECT_EQ(find(borrowed, probe), find(owned, probe)) << probe;
  }
}

// A trained table (ids in first-insertion order) is not in the sorted
// form, and one with an uppercase key is not lowercase.
TEST(FlatStringTableTest, CheckSortedLowerRejectsUnsortedAndUppercase) {
  FlatStringTable unsorted;
  unsorted.Insert("b");
  unsorted.Insert("a");
  EXPECT_TRUE(unsorted.CheckSortedLower(false).IsCorruption());
  FlatStringTable upper = SortedLowerTable({"A", "b"});
  EXPECT_TRUE(upper.CheckSortedLower(false).IsCorruption());
  EXPECT_TRUE(SortedLowerTable({}).CheckSortedLower(true).ok());
  EXPECT_TRUE(SortedLowerTable({"a", "b"}).CheckSortedLower(true).ok());
}

}  // namespace
}  // namespace unidetect
