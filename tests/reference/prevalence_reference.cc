#include "reference/prevalence_reference.h"

#include "util/string_util.h"

namespace unidetect {

PrevalenceReference::PrevalenceReference(const TokenPrevalence& prevalence) {
  prevalence.ForEachMergedToken([&](std::string_view token, uint64_t count) {
    counts_.emplace(std::string(token), count);
  });
}

uint64_t PrevalenceReference::TableCount(std::string_view token) const {
  auto it = counts_.find(ToLower(token));
  return it == counts_.end() ? 0 : it->second;
}

double PrevalenceReference::AveragePrevalence(const Column& column) const {
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
