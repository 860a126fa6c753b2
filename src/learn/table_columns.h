// TableColumns: the per-table column encoding shared by every candidate
// extractor that runs on a table (DESIGN.md section 17).
//
// The FD class scores every ordered column pair, and both the FD and the
// uniqueness classes featurize a column by its token prevalence Prev(C);
// UR, FR and MPD all read a column's distinct values. Re-deriving those
// from raw strings per pair and per class repeats the same work up to
// 2(k - 1) + 2 times per column. Instead, UniDetect::DetectTable and
// AddTableObservations build one TableColumns per table; each column is
// dictionary-encoded and its prevalence computed at most once, on first
// use, and freed with the table. Prev(C) itself runs over the codes: one
// cell term per distinct value rather than one per row.
//
// Instances are call-local scratch: the lazy members are filled without
// synchronization, so one object must not be shared across threads.

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "corpus/token_index.h"
#include "metrics/metric_functions.h"
#include "table/column.h"
#include "table/table.h"

namespace unidetect {

/// \brief One column with its lazily built dictionary codes and Prev(C).
///
/// Borrows both the column and the prevalence view; they must outlive
/// this object. Binding a temporary view is rejected at compile time.
class EncodedColumn {
 public:
  EncodedColumn(const Column& column, const TokenPrevalence& index)
      : column_(&column), index_(&index) {}
  EncodedColumn(const Column& column, TokenPrevalence&& index) = delete;

  const Column& column() const { return *column_; }
  size_t size() const { return column_->size(); }

  /// \brief EncodeColumn(column()), computed on first call.
  const ColumnCodes& codes() const;

  /// \brief Prev(C) of Section 3.3, computed on first call: the mean,
  /// over the cells that have tokens, of
  /// TokenPrevalence::CellPrevalence. Each code's cell term is computed
  /// once and added once per row, in row order (DESIGN.md section 17.5).
  double prevalence() const;

 private:
  double ComputePrevalence() const;

  const Column* column_;
  const TokenPrevalence* index_;
  mutable std::optional<ColumnCodes> codes_;
  mutable std::optional<double> prevalence_;
};

/// \brief The EncodedColumn of every column of one table.
class TableColumns {
 public:
  /// Borrows `table` and `index`; both must outlive this object.
  TableColumns(const Table& table, const TokenPrevalence& index);
  TableColumns(const Table& table, TokenPrevalence&& index) = delete;

  const Table& table() const { return *table_; }
  const EncodedColumn& column(size_t c) const { return columns_[c]; }

 private:
  const Table* table_;
  std::vector<EncodedColumn> columns_;
};

}  // namespace unidetect
