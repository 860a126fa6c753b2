#include "corpus/token_index.h"

#include "util/string_util.h"

namespace unidetect {

void TokenIndex::AddTable(const Table& table) {
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
    if (inserted) counts_.push_back(0);
    ++counts_[token];
  }
  ++num_tables_;
}

void TokenIndex::Merge(const TokenIndex& other) {
  other.ForEachToken([&](std::string_view token, uint64_t count) {
    const auto [id, inserted] = tokens_.Insert(token);
    if (inserted) counts_.push_back(0);
    counts_[id] += count;
  });
  num_tables_ += other.num_tables_;
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
