#include "corpus/token_index.h"

#include <unordered_set>

#include "util/string_util.h"

namespace unidetect {

void TokenIndex::AddTable(const Table& table) {
  std::unordered_set<std::string> distinct;
  for (const auto& column : table.columns()) {
    for (const auto& cell : column.cells()) {
      for (auto& token : TokenizeCell(cell)) {
        distinct.insert(ToLower(token));
      }
    }
  }
  for (auto& token : distinct) counts_[token]++;
  ++num_tables_;
}

uint64_t TokenIndex::TableCount(std::string_view token) const {
  return TableCountFolded(ToLower(token));
}

uint64_t TokenIndex::TableCountFolded(const std::string& folded_token) const {
  auto it = counts_.find(folded_token);
  return it == counts_.end() ? 0 : it->second;
}

double TokenIndex::AveragePrevalence(const Column& column) const {
  return TokenPrevalence(*this).AveragePrevalence(column);
}

void TokenIndex::Merge(const TokenIndex& other) {
  for (const auto& [token, count] : other.counts_) counts_[token] += count;
  num_tables_ += other.num_tables_;
}

uint64_t TokenPrevalence::num_tables() const {
  uint64_t total = 0;
  for (const TokenIndex* layer : layers_) total += layer->num_tables();
  return total;
}

size_t TokenPrevalence::num_tokens() const {
  if (layers_.size() == 1) return layers_[0]->num_tokens();
  size_t total = 0;
  ForEachMergedToken([&](const std::string&, uint64_t) { ++total; });
  return total;
}

uint64_t TokenPrevalence::TableCount(std::string_view token) const {
  const std::string folded = ToLower(token);
  uint64_t total = 0;
  for (const TokenIndex* layer : layers_) {
    total += layer->TableCountFolded(folded);
  }
  return total;
}

double TokenPrevalence::AveragePrevalence(const Column& column) const {
  // The loop structure mirrors the historical single-index
  // implementation exactly; only the per-token count is a sum over
  // layers. Counts stay integral until the per-cell division, so a
  // layered view and the merged index produce identical doubles.
  double sum = 0.0;
  size_t cells = 0;
  for (const auto& cell : column.cells()) {
    auto tokens = TokenizeCell(cell);
    if (tokens.empty()) continue;
    double cell_sum = 0.0;
    for (const auto& token : tokens) {
      cell_sum += static_cast<double>(TableCount(token));
    }
    sum += cell_sum / static_cast<double>(tokens.size());
    ++cells;
  }
  return cells > 0 ? sum / static_cast<double>(cells) : 0.0;
}

}  // namespace unidetect
