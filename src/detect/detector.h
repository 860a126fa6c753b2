// Detector: the interface all error-class detectors implement.

#pragma once

#include <vector>

#include "detect/finding.h"
#include "learn/table_columns.h"

namespace unidetect {

/// \brief Detects one class of errors in a table.
///
/// Implementations append zero or more findings, each carrying an LR
/// score; callers filter by significance and rank.
class Detector {
 public:
  virtual ~Detector() = default;

  /// \brief Appends findings for `columns.table()` to `out`. `columns` is
  /// the table's shared column encoding (UniDetect::DetectTable builds one
  /// per table for all detectors); it must be encoded against the token
  /// prevalence of the model this detector scores with.
  virtual void Detect(const TableColumns& columns,
                      std::vector<Finding>* out) const = 0;
};

}  // namespace unidetect
