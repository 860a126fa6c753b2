#include "learn/table_columns.h"

namespace unidetect {

const ColumnCodes& EncodedColumn::codes() const {
  if (!codes_) codes_ = EncodeColumn(*column_);
  return *codes_;
}

double EncodedColumn::prevalence() const {
  if (!prevalence_) prevalence_ = index_->AveragePrevalence(*column_);
  return *prevalence_;
}

TableColumns::TableColumns(const Table& table, const TokenPrevalence& index)
    : table_(&table) {
  columns_.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns_.emplace_back(table.column(c), index);
  }
}

}  // namespace unidetect
