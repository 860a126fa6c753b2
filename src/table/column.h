// Column: an ordered list of cell strings with lazily computed type and
// numeric views. Columns are the unit Uni-Detect reasons about.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "table/types.h"

namespace unidetect {

/// \brief A single table column.
///
/// Cells are stored as strings (tables in the wild are untyped text);
/// numeric interpretation and the dominant ColumnType are derived on
/// demand and cached. Mutation invalidates the caches.
class Column {
 public:
  Column() = default;
  Column(std::string name, std::vector<std::string> cells)
      : name_(std::move(name)), cells_(std::move(cells)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }
  const std::string& cell(size_t row) const { return cells_[row]; }
  const std::vector<std::string>& cells() const { return cells_; }

  /// \brief Replaces one cell, invalidating cached derived state.
  void SetCell(size_t row, std::string value);

  /// \brief Appends a cell, invalidating cached derived state.
  void Append(std::string value);

  /// \brief Dominant type: the most frequent non-empty ValueType, with a
  /// tie broken toward the more general type (string > mixed > float >
  /// int). A column of ints with a few floats is kFloat; a column of
  /// numbers with >20% strings is kString.
  ColumnType type() const;

  /// \brief Numeric values of all cells that parse as numbers, in row
  /// order. Rows that do not parse are skipped.
  const std::vector<double>& NumericValues() const;

  /// \brief Row indices corresponding to NumericValues(), aligned 1:1.
  /// Cached apart from the values, on first call: only callers that name
  /// a numeric value's row need it, and a detection pass asks for it
  /// only on the columns that yield an outlier finding.
  const std::vector<size_t>& NumericRows() const;

  /// \brief Fraction of non-empty cells that parse as numbers.
  double NumericFraction() const;

  /// \brief Number of distinct cell strings.
  size_t NumDistinct() const;

  /// \brief Returns a copy with the given rows removed (the perturbation
  /// primitive D \ O from Definition 2). Row indices may be unsorted.
  Column WithoutRows(const std::vector<size_t>& rows) const;

 private:
  void InvalidateCaches() const;
  void EnsureNumericCache() const;

  std::string name_;
  std::vector<std::string> cells_;

  // Lazily computed caches.
  mutable bool type_cached_ = false;
  mutable ColumnType type_ = ColumnType::kUnknown;
  mutable bool numeric_cached_ = false;
  mutable std::vector<double> numeric_values_;
  mutable size_t non_empty_count_ = 0;
  mutable bool numeric_rows_cached_ = false;
  mutable std::vector<size_t> numeric_rows_;
};

}  // namespace unidetect
