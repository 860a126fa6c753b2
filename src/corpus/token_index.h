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
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "table/table.h"
#include "util/flat_string_table.h"
#include "util/result.h"

namespace unidetect {

/// \brief Maps token -> number of corpus tables containing it.
///
/// Tokens live in one FlatStringTable (case-folded key bytes in an
/// arena) with their counts in an array indexed by id. A trained index
/// assigns ids in first-insertion order and owns its arrays; an index
/// decoded from a snapshot has ids in the tokens' sorted order, and a
/// mapped one borrows the table and the counts from the snapshot's
/// token section (model_format/snapshot_v2.h). Both answer through the
/// same probe loop. A borrowed index is read-only: AddTable and Merge
/// require an owned one (Model::Merge folds mapped layers into a new
/// model).
class TokenIndex {
 public:
  TokenIndex() = default;

  /// \brief An index over a snapshot token section's arrays: Borrow
  /// takes a borrowed table and borrowed counts (both must outlive the
  /// index, as a Model's backing region does), Adopt an owned table and
  /// owned counts. Checks the table (FlatStringTable::CheckSortedLower, with
  /// `verify_probes`) and one count per token, each in 1..num_tables:
  /// counts are summed across layers and by Merge, so a count the table
  /// total does not bound could wrap. Corruption on any failure.
  static Result<TokenIndex> Borrow(uint64_t num_tables,
                                   FlatStringTable tokens,
                                   std::span<const uint64_t> counts,
                                   bool verify_probes);
  static Result<TokenIndex> Adopt(uint64_t num_tables, FlatStringTable tokens,
                                  std::vector<uint64_t> counts,
                                  bool verify_probes);

  /// \brief Adds one table: every distinct token in it counts once.
  /// Tokens are case-folded. The index must be owned.
  void AddTable(const Table& table);

  /// \brief Number of tables ingested.
  uint64_t num_tables() const { return num_tables_; }

  /// \brief Number of distinct tokens seen.
  size_t num_tokens() const { return tokens_.size(); }

  /// \brief Tables containing the (case-folded) token; 0 if unseen.
  uint64_t TableCount(std::string_view token) const {
    return TableCountHashed(token, FlatStringTable::HashAsciiLower(token));
  }

  /// \brief TableCount with the token's fold hash already computed
  /// (`hash` = FlatStringTable::HashAsciiLower(token)): the layered
  /// TokenPrevalence hashes a token once and probes every layer.
  uint64_t TableCountHashed(std::string_view token, uint64_t hash) const {
    const uint32_t id = tokens_.FindAsciiLower(token, hash);
    return id == FlatStringTable::kAbsent ? 0 : counts()[id];
  }

  /// \brief Merges another index into this one (sharded builds and the
  /// compactor's fold). Tokens new to this index keep `other`'s order.
  /// This index must be owned; `other` may be borrowed.
  void Merge(const TokenIndex& other);

  /// \brief Visits every (token, table-count) entry in id order.
  template <typename Fn>
  void ForEachToken(Fn&& fn) const {
    const std::span<const uint64_t> counts = this->counts();
    for (uint32_t id = 0; id < counts.size(); ++id) {
      fn(tokens_.key(id), counts[id]);
    }
  }

  /// \brief The same tokens and counts with ids in the tokens' sorted
  /// order, in a table of FlatStringTable::CapacityFor(num_tokens())
  /// slots filled in that order: the canonical form the snapshot writer
  /// stores, a function of the (token, count) set alone.
  TokenIndex Sorted() const;

  /// \brief The token table and the counts by id (the arrays the
  /// snapshot writer stores).
  const FlatStringTable& table() const { return tokens_; }
  std::span<const uint64_t> counts() const {
    return tokens_.borrowed() ? counts_view_
                              : std::span<const uint64_t>(counts_owned_);
  }

  /// \brief Heap bytes owned by the index (0 when borrowed).
  uint64_t OwnedBytes() const;

 private:
  FlatStringTable tokens_;
  // Counts by token id, borrowed exactly when the table is.
  std::vector<uint64_t> counts_owned_;
  std::span<const uint64_t> counts_view_;
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
