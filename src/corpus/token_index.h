// Token prevalence index over the background corpus T.
//
// Section 3.3 featurizes columns by "the average prevalence of tokens",
// i.e. in how many corpus tables a token occurs. The index is built in a
// first pass over T and then consulted both during offline learning and
// online detection (a trained model ships with its index).

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "table/table.h"
#include "util/flat_string_table.h"

namespace unidetect {

/// \brief Maps token -> number of corpus tables containing it.
///
/// Tokens live in one FlatStringTable (case-folded key bytes in an
/// arena, ids in first-insertion order) with their counts in a vector
/// indexed by id.
class TokenIndex {
 public:
  TokenIndex() = default;

  /// \brief Adds one table: every distinct token in it counts once.
  /// Tokens are case-folded.
  void AddTable(const Table& table);

  /// \brief Number of tables ingested.
  uint64_t num_tables() const { return num_tables_; }

  /// \brief Number of distinct tokens seen.
  size_t num_tokens() const { return counts_.size(); }

  /// \brief Tables containing the (case-folded) token; 0 if unseen.
  uint64_t TableCount(std::string_view token) const {
    return TableCountHashed(token, FlatStringTable::HashAsciiLower(token));
  }

  /// \brief TableCount with the token's fold hash already computed
  /// (`hash` = FlatStringTable::HashAsciiLower(token)): the layered
  /// TokenPrevalence hashes a token once and probes every layer.
  uint64_t TableCountHashed(std::string_view token, uint64_t hash) const {
    const uint32_t id = tokens_.FindAsciiLower(token, hash);
    return id == FlatStringTable::kAbsent ? 0 : counts_[id];
  }

  /// \brief Merges another index into this one (sharded builds and the
  /// compactor's fold). Tokens new to this index keep `other`'s order.
  void Merge(const TokenIndex& other);

  /// \brief Visits every (token, table-count) entry in insertion order.
  template <typename Fn>
  void ForEachToken(Fn&& fn) const {
    for (uint32_t id = 0; id < counts_.size(); ++id) {
      fn(tokens_.key(id), counts_[id]);
    }
  }

  /// \brief Snapshot-v2 decode helpers (model_format/snapshot_v2.cc):
  /// size the table once, then install already case-folded entries
  /// directly. AddTokenCount returns false on a duplicate token (corrupt
  /// input).
  void Reserve(size_t tokens, size_t bytes) {
    tokens_.Reserve(tokens, bytes);
    counts_.reserve(tokens);
  }
  void SetNumTables(uint64_t n) { num_tables_ = n; }
  bool AddTokenCount(std::string_view token, uint64_t count) {
    if (!tokens_.Insert(token).second) return false;
    counts_.push_back(count);
    return true;
  }

 private:
  FlatStringTable tokens_;
  std::vector<uint64_t> counts_;  // by token id
  uint64_t num_tables_ = 0;
};

/// \brief Read-side overlay over one or more TokenIndex layers (the
/// base snapshot plus any applied deltas — learn/model_stack.h).
///
/// Table counts are *additive*: each layer counted disjoint ingested
/// tables, so the count over the union corpus is exactly the sum of the
/// per-layer counts. Summing the integer counts before any conversion
/// to double makes every derived quantity (Prev(C), and the
/// PrevalenceBucket feature dimension built on it) byte-identical to
/// the same query against the Model::Merge fold of the layers — the
/// keystone invariant of the layered serving path.
///
/// The implicit single-layer conversion keeps existing call sites
/// (trainer, featurizer) source-compatible: a plain `const TokenIndex&`
/// still binds wherever a TokenPrevalence is consumed. Layers are
/// borrowed and must outlive the view.
class TokenPrevalence {
 public:
  /// Single-layer view (implicit: a TokenIndex is its own prevalence).
  TokenPrevalence(const TokenIndex& index)  // NOLINT(google-explicit-*)
      : layers_{&index} {}

  /// Layered view, base first, deltas in application order. Order only
  /// matters for documentation — every answer is a commutative sum.
  explicit TokenPrevalence(std::vector<const TokenIndex*> layers)
      : layers_(std::move(layers)) {}

  size_t num_layers() const { return layers_.size(); }

  /// \brief Tables containing the (case-folded) token, summed over
  /// layers; 0 if unseen everywhere.
  uint64_t TableCount(std::string_view token) const;

  /// \brief The per-cell term of Prev(C) (Section 3.3): the mean, over
  /// the cell's tokens (TokenizeCell), of the token's table count.
  /// nullopt when the cell has no token. Each token is folded and hashed
  /// in place and its layer counts are summed as integers before the
  /// conversion to double, so a layered view and the merged index give
  /// identical doubles.
  std::optional<double> CellPrevalence(std::string_view cell) const;

  /// \brief Visits every (token, summed-count) entry. Single layer
  /// visits in the index's own order; multiple layers merge through an
  /// ordered map, so iteration order is deterministic either way for
  /// order-insensitive consumers (the Dictionary builder).
  template <typename Fn>
  void ForEachMergedToken(Fn&& fn) const {
    if (layers_.size() == 1) {
      layers_[0]->ForEachToken(fn);
      return;
    }
    std::map<std::string, uint64_t> merged;
    for (const TokenIndex* layer : layers_) {
      layer->ForEachToken([&](std::string_view token, uint64_t count) {
        merged[std::string(token)] += count;
      });
    }
    for (const auto& [token, count] : merged) fn(token, count);
  }

 private:
  std::vector<const TokenIndex*> layers_;
};

}  // namespace unidetect
