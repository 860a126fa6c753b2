#include "learn/table_columns.h"

#include <optional>

namespace unidetect {

const ColumnCodes& EncodedColumn::codes() const {
  if (!codes_) codes_ = EncodeColumn(*column_);
  return *codes_;
}

double EncodedColumn::prevalence() const {
  if (!prevalence_) prevalence_ = ComputePrevalence();
  return *prevalence_;
}

double EncodedColumn::ComputePrevalence() const {
  // Rows sharing a code share their trimmed cell, but not necessarily
  // their tokens: Trim strips '\v' and '\f', which TokenizeCell keeps
  // inside tokens ("a\v" and "a" share a code). A code's cell term is
  // therefore reused only for rows whose raw cell equals the code's
  // first raw cell; any other row, and every code-0 (blank after Trim)
  // row, gets its own term. The sum runs in row order, exactly as the
  // per-row definition adds it.
  const ColumnCodes& coded = codes();
  std::vector<size_t> first_row;  // by code - 1
  std::vector<std::optional<double>> term;
  first_row.reserve(coded.distinct);
  term.reserve(coded.distinct);
  double sum = 0.0;
  size_t cells = 0;
  for (size_t row = 0; row < coded.size(); ++row) {
    const uint32_t code = coded.codes[row];
    const std::string& cell = column_->cell(row);
    std::optional<double> cell_term;
    if (code == 0) {
      cell_term = index_->CellPrevalence(cell);
    } else if (code > first_row.size()) {
      // First occurrence: codes are numbered in row order.
      first_row.push_back(row);
      term.push_back(index_->CellPrevalence(cell));
      cell_term = term.back();
    } else if (cell == column_->cell(first_row[code - 1])) {
      cell_term = term[code - 1];
    } else {
      cell_term = index_->CellPrevalence(cell);
    }
    if (!cell_term) continue;
    sum += *cell_term;
    ++cells;
  }
  return cells > 0 ? sum / static_cast<double>(cells) : 0.0;
}

TableColumns::TableColumns(const Table& table, const TokenPrevalence& index)
    : table_(&table) {
  columns_.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns_.emplace_back(table.column(c), index);
  }
}

}  // namespace unidetect
