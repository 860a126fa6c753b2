// Test-only oracle for Prev(C), the average token prevalence of Section
// 3.3: the original per-row, string-based loop. It tokenizes every cell
// with TokenizeCell, lowercases each token with ToLower and looks it up
// in an ordered std::map of the layer-summed counts, so it shares
// neither the flat token table's hashing and folded compare nor the
// per-code reuse of EncodedColumn::prevalence (learn/table_columns.h).
// The codes-based Prev(C) must return bit-identical doubles; property
// tests and perf_smoke pin that.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "corpus/token_index.h"
#include "table/column.h"

namespace unidetect {

class PrevalenceReference {
 public:
  /// Copies the layer-summed counts of `prevalence`.
  explicit PrevalenceReference(const TokenPrevalence& prevalence);

  /// Tables containing ToLower(token), summed over the layers.
  uint64_t TableCount(std::string_view token) const;

  /// Prev(C): the mean, over non-empty cells and their tokens, of the
  /// token's table count.
  double AveragePrevalence(const Column& column) const;

 private:
  std::map<std::string, uint64_t, std::less<>> counts_;
};

}  // namespace unidetect
