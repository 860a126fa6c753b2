// Prev(C) over the column codes (EncodedColumn::prevalence) against the
// per-row string oracle (tests/reference/prevalence_reference.h), as
// bit-identical doubles, over 1 to 5 index layers.
//
// The adversarial cells target the one place the codes and the tokens
// disagree: Trim strips '\v' and '\f' but TokenizeCell does not split on
// them, so "a\v", "a" and " a" share a code while "a\v" tokenizes to a
// different token, and "\f" is blank (code 0) yet has a token. Also:
// separator-only cells (a non-empty code without tokens), case variants
// of one token, bytes >= 0x80 (never case-folded), and empty or
// all-blank columns.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/token_index.h"
#include "learn/table_columns.h"
#include "reference/prevalence_reference.h"
#include "util/random.h"

namespace unidetect {
namespace {

// Cells drawn from a small vocabulary so codes repeat and tokens hit the
// index. Every entry is a whole cell.
const std::vector<std::string>& Vocabulary() {
  static const auto* vocabulary = new std::vector<std::string>{
      "a", "a\v", " a", "a ", "\va", "a\f", "\f", "\v", "\v\f", "A",
      "acme", "ACME", "Acme", "aCmE corp", "Acme\v", "acme,corp",
      ",", ";;", "()", "\"'", " , ", "[]/:",
      "\xc3\xa9t\xc3\xa9", "\xc3\x89T\xc3\x89", "\xff", "caf\xc3\xa9",
      "", " ", "\t", "\n\r", "x y z", "X Y", "rare1", "rare2 A",
  };
  return *vocabulary;
}

Table RandomTable(Rng* rng, size_t rows) {
  std::vector<std::string> cells;
  for (size_t i = 0; i < rows; ++i) {
    cells.push_back(Vocabulary()[rng->NextBounded(Vocabulary().size())]);
  }
  Table table("t");
  EXPECT_TRUE(table.AddColumn(Column("c", std::move(cells))).ok());
  return table;
}

// `num_layers` indexes over disjoint random tables, plus their merge.
struct Layers {
  std::vector<std::unique_ptr<TokenIndex>> indexes;
  TokenIndex merged;

  std::vector<const TokenIndex*> pointers() const {
    std::vector<const TokenIndex*> out;
    for (const auto& index : indexes) out.push_back(index.get());
    return out;
  }
};

Layers MakeLayers(Rng* rng, size_t num_layers) {
  Layers layers;
  for (size_t l = 0; l < num_layers; ++l) {
    auto index = std::make_unique<TokenIndex>();
    const size_t tables = 1 + rng->NextBounded(12);
    for (size_t t = 0; t < tables; ++t) {
      index->AddTable(RandomTable(rng, 1 + rng->NextBounded(6)));
    }
    layers.merged.Merge(*index);
    layers.indexes.push_back(std::move(index));
  }
  return layers;
}

void ExpectSamePrevalence(const Column& column, const TokenPrevalence& layered,
                          const TokenPrevalence& merged,
                          const std::string& context) {
  const double expected =
      PrevalenceReference(layered).AveragePrevalence(column);
  const double coded = EncodedColumn(column, layered).prevalence();
  EXPECT_EQ(std::bit_cast<uint64_t>(coded), std::bit_cast<uint64_t>(expected))
      << context << ": " << coded << " vs " << expected;
  const double folded = EncodedColumn(column, merged).prevalence();
  EXPECT_EQ(std::bit_cast<uint64_t>(folded), std::bit_cast<uint64_t>(expected))
      << context << " (merged index)";
}

TEST(CodedPrevalenceTest, RandomColumnsMatchOracleAtOneToFiveLayers) {
  Rng rng(9001);
  for (size_t num_layers = 1; num_layers <= 5; ++num_layers) {
    const Layers layers = MakeLayers(&rng, num_layers);
    const TokenPrevalence layered(layers.pointers());
    const TokenPrevalence merged(layers.merged);
    for (int trial = 0; trial < 60; ++trial) {
      const Table table = RandomTable(&rng, rng.NextBounded(40));
      ExpectSamePrevalence(table.column(0), layered, merged,
                           "layers=" + std::to_string(num_layers) +
                               " trial=" + std::to_string(trial));
    }
  }
}

TEST(CodedPrevalenceTest, AdversarialColumns) {
  Rng rng(9002);
  const Layers layers = MakeLayers(&rng, 3);
  // A layer that surely knows the trim-equal variants' tokens, with
  // different counts for "a" and "a\v", so reusing one's term for the
  // other would show.
  auto known = std::make_unique<TokenIndex>();
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> cells = {"a", "\f", "acme",
                                      "\xc3\xa9t\xc3\xa9"};
    if (i == 0) cells.push_back("a\v");
    Table table("t");
    ASSERT_TRUE(table.AddColumn(Column("c", std::move(cells))).ok());
    known->AddTable(table);
  }
  std::vector<const TokenIndex*> pointers = layers.pointers();
  pointers.push_back(known.get());
  TokenIndex merged = layers.merged;
  merged.Merge(*known);
  const TokenPrevalence layered(pointers);
  const TokenPrevalence folded(merged);

  const std::vector<std::vector<std::string>> columns = {
      // Trim-equal, token-different: first occurrence differs from later
      // rows in both directions.
      {"a\v", "a", " a", "a\v", "a", "\va", "a\f"},
      {"a", "a\v", " a", "a", "a\v"},
      {"\f", "\v", "", " ", "\f", "\v\f"},
      {"Acme\v", "Acme", "Acme\v", "ACME", "acme"},
      // Separator-only cells: non-empty codes without tokens.
      {",", ";;", ",", "()", "\"'", " , ", "[]/:"},
      {",", "a", ",", "a", ";;"},
      // Case variants of one token, and multi-token cells.
      {"acme", "ACME", "Acme", "aCmE corp", "acme,corp", "ACME"},
      // Bytes >= 0x80.
      {"\xc3\xa9t\xc3\xa9", "\xc3\x89T\xc3\x89", "\xff", "caf\xc3\xa9",
       "\xc3\xa9t\xc3\xa9"},
      // Empty and all-blank columns.
      {},
      {""},
      {"", " ", "\t", "\n\r", ""},
  };
  for (size_t i = 0; i < columns.size(); ++i) {
    ExpectSamePrevalence(Column("c", columns[i]), layered, folded,
                         "column " + std::to_string(i));
  }
  // The guard matters: "a\v" is one token, distinct from "a".
  EXPECT_NE(layered.CellPrevalence("a\v"), layered.CellPrevalence("a"));
  const TokenPrevalence only_known(*known);
  EXPECT_EQ(only_known.CellPrevalence("a\v"), 1.0);
  EXPECT_EQ(only_known.CellPrevalence(" A "), 3.0);
  EXPECT_EQ(only_known.CellPrevalence("\f"), 3.0);
  EXPECT_FALSE(only_known.CellPrevalence(",;").has_value());
  EXPECT_FALSE(only_known.CellPrevalence("").has_value());
}

TEST(CodedPrevalenceTest, NoLayersIsZero) {
  const TokenPrevalence none(std::vector<const TokenIndex*>{});
  const Column column("c", {"a", "b", "a"});
  EXPECT_EQ(EncodedColumn(column, none).prevalence(), 0.0);
  EXPECT_EQ(PrevalenceReference(none).AveragePrevalence(column), 0.0);
}

}  // namespace
}  // namespace unidetect
