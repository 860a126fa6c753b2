#include "corpus/token_index.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace unidetect {

namespace {

// One count per token, each in 1..num_tables.
Status CheckCounts(uint64_t num_tables, size_t num_tokens,
                   std::span<const uint64_t> counts) {
  if (counts.size() != num_tokens) {
    return Status::Corruption(StrCat("token index: ", counts.size(),
                                     " counts for ", num_tokens, " tokens"));
  }
  // count - 1 wraps for a zero count; one flag, no branch per count.
  bool outside = false;
  for (const uint64_t count : counts) outside |= count - 1 >= num_tables;
  if (outside) {
    return Status::Corruption(StrCat("token index: a token count outside 1..",
                                     num_tables, " (the index's table count)"));
  }
  return Status::OK();
}

}  // namespace

Result<TokenIndex> TokenIndex::Borrow(uint64_t num_tables,
                                      FlatStringTable tokens,
                                      std::span<const uint64_t> counts,
                                      bool verify_probes) {
  UNIDETECT_CHECK(tokens.borrowed());
  UNIDETECT_RETURN_NOT_OK(tokens.CheckSortedLower(verify_probes));
  UNIDETECT_RETURN_NOT_OK(CheckCounts(num_tables, tokens.size(), counts));
  TokenIndex index;
  index.tokens_ = std::move(tokens);
  index.counts_view_ = counts;
  index.num_tables_ = num_tables;
  return index;
}

Result<TokenIndex> TokenIndex::Adopt(uint64_t num_tables,
                                     FlatStringTable tokens,
                                     std::vector<uint64_t> counts,
                                     bool verify_probes) {
  UNIDETECT_CHECK(!tokens.borrowed());
  UNIDETECT_RETURN_NOT_OK(tokens.CheckSortedLower(verify_probes));
  UNIDETECT_RETURN_NOT_OK(CheckCounts(num_tables, tokens.size(), counts));
  TokenIndex index;
  index.tokens_ = std::move(tokens);
  index.counts_owned_ = std::move(counts);
  index.num_tables_ = num_tables;
  return index;
}

void TokenIndex::AddTable(const Table& table) {
  UNIDETECT_CHECK(!tokens_.borrowed());
  FlatStringTable distinct;
  for (const auto& column : table.columns()) {
    for (const auto& cell : column.cells()) {
      ForEachCellToken(cell, [&](std::string_view token) {
        distinct.InsertAsciiLower(token);
      });
    }
  }
  for (uint32_t id = 0; id < distinct.size(); ++id) {
    const auto [token, inserted] = tokens_.Insert(distinct.key(id));
    if (inserted) counts_owned_.push_back(0);
    ++counts_owned_[token];
  }
  ++num_tables_;
}

void TokenIndex::Merge(const TokenIndex& other) {
  UNIDETECT_CHECK(!tokens_.borrowed());
  other.ForEachToken([&](std::string_view token, uint64_t count) {
    const auto [id, inserted] = tokens_.Insert(token);
    if (inserted) counts_owned_.push_back(0);
    counts_owned_[id] += count;
  });
  num_tables_ += other.num_tables_;
}

TokenIndex TokenIndex::Sorted() const {
  std::vector<uint32_t> order(num_tokens());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return tokens_.key(a) < tokens_.key(b);
  });
  const std::span<const uint64_t> counts = this->counts();
  TokenIndex sorted;
  sorted.tokens_.Reserve(order.size(), tokens_.arena().size());
  sorted.counts_owned_.reserve(order.size());
  for (const uint32_t id : order) {
    sorted.tokens_.Insert(tokens_.key(id));
    sorted.counts_owned_.push_back(counts[id]);
  }
  sorted.num_tables_ = num_tables_;
  return sorted;
}

uint64_t TokenIndex::OwnedBytes() const {
  return tokens_.OwnedBytes() + counts_owned_.capacity() * sizeof(uint64_t);
}

uint64_t TokenPrevalence::TableCount(std::string_view token) const {
  const uint64_t hash = FlatStringTable::HashAsciiLower(token);
  uint64_t total = 0;
  for (const TokenIndex* layer : layers_) {
    total += layer->TableCountHashed(token, hash);
  }
  return total;
}

std::optional<double> TokenPrevalence::CellPrevalence(
    std::string_view cell) const {
  double cell_sum = 0.0;
  size_t tokens = 0;
  ForEachCellToken(cell, [&](std::string_view token) {
    cell_sum += static_cast<double>(TableCount(token));
    ++tokens;
  });
  if (tokens == 0) return std::nullopt;
  return cell_sum / static_cast<double>(tokens);
}

}  // namespace unidetect
