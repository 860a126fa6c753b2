// Token prevalence index over the background corpus T.
//
// Section 3.3 featurizes columns by "the average prevalence of tokens",
// i.e. in how many corpus tables a token occurs. The index is built in a
// first pass over T and then consulted both during offline learning and
// online detection (a trained model ships with its index).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "table/column.h"
#include "table/table.h"

namespace unidetect {

/// \brief Maps token -> number of corpus tables containing it.
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
  uint64_t TableCount(std::string_view token) const;

  /// \brief TableCount for a token the caller has already case-folded
  /// (the layered TokenPrevalence overlay folds once, then consults
  /// every layer).
  uint64_t TableCountFolded(const std::string& folded_token) const;

  /// \brief Prev(C) of Section 3.3: the mean, over non-empty cells and
  /// their tokens, of the token's table count. Delegates to a
  /// single-layer TokenPrevalence so the layered and flat paths share
  /// one arithmetic.
  double AveragePrevalence(const Column& column) const;

  /// \brief Merges another index into this one (sharded builds).
  void Merge(const TokenIndex& other);

  /// \brief Visits every (token, table-count) entry.
  template <typename Fn>
  void ForEachToken(Fn&& fn) const {
    for (const auto& [token, count] : counts_) fn(token, count);
  }

  /// \brief Snapshot-v2 decode helpers (model_format/snapshot_v2.cc):
  /// install already case-folded entries directly. AddTokenCount returns
  /// false on a duplicate token (corrupt input).
  void SetNumTables(uint64_t n) { num_tables_ = n; }
  bool AddTokenCount(std::string_view token, uint64_t count) {
    return counts_.emplace(std::string(token), count).second;
  }

 private:
  std::unordered_map<std::string, uint64_t> counts_;
  uint64_t num_tables_ = 0;
};

/// \brief Read-side overlay over one or more TokenIndex layers (the
/// base snapshot plus any applied deltas — learn/model_stack.h).
///
/// Table counts are *additive*: each layer counted disjoint ingested
/// tables, so the count over the union corpus is exactly the sum of the
/// per-layer counts. Summing the integer counts before any conversion
/// to double makes every derived quantity (AveragePrevalence, and the
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

  /// \brief Tables ingested across all layers.
  uint64_t num_tables() const;

  /// \brief Distinct tokens across all layers (union cardinality).
  size_t num_tokens() const;

  /// \brief Tables containing the (case-folded) token, summed over
  /// layers; 0 if unseen everywhere.
  uint64_t TableCount(std::string_view token) const;

  /// \brief Prev(C) of Section 3.3 over the layered counts. For a
  /// single layer this is exactly TokenIndex::AveragePrevalence.
  double AveragePrevalence(const Column& column) const;

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
      layer->ForEachToken([&](const std::string& token, uint64_t count) {
        merged[token] += count;
      });
    }
    for (const auto& [token, count] : merged) fn(token, count);
  }

 private:
  std::vector<const TokenIndex*> layers_;
};

}  // namespace unidetect
