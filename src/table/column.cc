#include "table/column.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "util/string_util.h"

namespace unidetect {

void Column::SetCell(size_t row, std::string value) {
  cells_[row] = std::move(value);
  InvalidateCaches();
}

void Column::Append(std::string value) {
  cells_.push_back(std::move(value));
  InvalidateCaches();
}

void Column::InvalidateCaches() const {
  type_cached_ = false;
  numeric_cached_ = false;
  numeric_rows_cached_ = false;
}

ColumnType Column::type() const {
  if (type_cached_) return type_;
  std::array<size_t, 6> counts{};
  size_t non_empty = 0;
  for (const auto& cell : cells_) {
    ValueType vt = ClassifyValue(cell);
    counts[static_cast<size_t>(vt)]++;
    if (vt != ValueType::kEmpty) ++non_empty;
  }
  ColumnType result = ColumnType::kUnknown;
  if (non_empty > 0) {
    const size_t n_int = counts[static_cast<size_t>(ValueType::kInteger)];
    const size_t n_float = counts[static_cast<size_t>(ValueType::kFloat)];
    const size_t n_date = counts[static_cast<size_t>(ValueType::kDate)];
    const size_t n_mixed = counts[static_cast<size_t>(ValueType::kMixedAlnum)];
    // Generalization ladder: a column is numeric only if numbers strongly
    // dominate; a few stray strings in a numeric column (headers leaked
    // into data, "Unknown" markers) should not flip the type, but a
    // genuinely mixed column is kString/kMixedAlnum.
    const double denom = static_cast<double>(non_empty);
    if (n_date / denom > 0.8) {
      result = ColumnType::kDate;
    } else if ((n_int + n_float) / denom > 0.8) {
      result = n_float > 0 ? ColumnType::kFloat : ColumnType::kInteger;
    } else if ((n_mixed + n_int + n_float + n_date) / denom > 0.5 &&
               n_mixed > 0) {
      result = ColumnType::kMixedAlnum;
    } else {
      result = ColumnType::kString;
    }
  }
  type_ = result;
  type_cached_ = true;
  return type_;
}

void Column::EnsureNumericCache() const {
  if (numeric_cached_) return;
  numeric_values_.clear();
  non_empty_count_ = 0;
  for (size_t row = 0; row < cells_.size(); ++row) {
    if (Trim(cells_[row]).empty()) continue;
    ++non_empty_count_;
    if (auto v = ParseNumeric(cells_[row])) numeric_values_.push_back(*v);
  }
  // The cache lives as long as the column: keep no growth slack.
  numeric_values_.shrink_to_fit();
  numeric_cached_ = true;
}

const std::vector<double>& Column::NumericValues() const {
  EnsureNumericCache();
  return numeric_values_;
}

const std::vector<size_t>& Column::NumericRows() const {
  if (numeric_rows_cached_) return numeric_rows_;
  numeric_rows_.clear();
  numeric_rows_.reserve(NumericValues().size());
  for (size_t row = 0; row < cells_.size(); ++row) {
    // The same cells EnsureNumericCache keeps, in the same order.
    if (Trim(cells_[row]).empty()) continue;
    if (ParseNumeric(cells_[row])) numeric_rows_.push_back(row);
  }
  numeric_rows_cached_ = true;
  return numeric_rows_;
}

double Column::NumericFraction() const {
  EnsureNumericCache();
  if (non_empty_count_ == 0) return 0.0;
  return static_cast<double>(numeric_values_.size()) /
         static_cast<double>(non_empty_count_);
}

size_t Column::NumDistinct() const {
  std::unordered_set<std::string_view> distinct;
  distinct.reserve(cells_.size());
  for (const auto& cell : cells_) distinct.insert(cell);
  return distinct.size();
}

Column Column::WithoutRows(const std::vector<size_t>& rows) const {
  std::vector<bool> drop(cells_.size(), false);
  for (size_t row : rows) {
    if (row < cells_.size()) drop[row] = true;
  }
  std::vector<std::string> kept;
  kept.reserve(cells_.size());
  for (size_t row = 0; row < cells_.size(); ++row) {
    if (!drop[row]) kept.push_back(cells_[row]);
  }
  return Column(name_, std::move(kept));
}

}  // namespace unidetect
