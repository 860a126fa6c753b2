#include "autodetect/pmi_detector.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autodetect/pattern.h"
#include "learn/model.h"
#include "util/string_util.h"

namespace unidetect {

std::string PatternIndex::PairKey(const std::string& a,
                                  const std::string& b) {
  return a <= b ? a + "\x1f" + b : b + "\x1f" + a;
}

void PatternIndex::AddTable(const Table& table) {
  for (const auto& column : table.columns()) {
    const std::vector<std::string> patterns =
        DistinctPatterns(column.cells());
    if (patterns.empty()) continue;
    ++num_columns_;
    for (const auto& pattern : patterns) pattern_counts_[pattern]++;
    for (size_t i = 0; i < patterns.size(); ++i) {
      for (size_t j = i + 1; j < patterns.size(); ++j) {
        pair_counts_[PairKey(patterns[i], patterns[j])]++;
      }
    }
  }
}

void PatternIndex::AddCorpus(const Corpus& corpus) {
  for (const auto& table : corpus.tables) AddTable(table);
}

void PatternIndex::Merge(const PatternIndex& other) {
  num_columns_ += other.num_columns_;
  for (const auto& [pattern, count] : other.pattern_counts_) {
    pattern_counts_[pattern] += count;
  }
  for (const auto& [pair, count] : other.pair_counts_) {
    pair_counts_[pair] += count;
  }
}

uint64_t PatternIndex::PatternCount(const std::string& pattern) const {
  auto it = pattern_counts_.find(pattern);
  return it == pattern_counts_.end() ? 0 : it->second;
}

uint64_t PatternIndex::CoOccurrenceCount(const std::string& a,
                                         const std::string& b) const {
  auto it = pair_counts_.find(PairKey(a, b));
  return it == pair_counts_.end() ? 0 : it->second;
}

double PatternIndex::Pmi(const std::string& a, const std::string& b) const {
  return PatternPrevalence(*this).Pmi(a, b);
}

uint64_t PatternPrevalence::num_columns() const {
  uint64_t total = 0;
  for (const PatternIndex* layer : layers_) total += layer->num_columns();
  return total;
}

uint64_t PatternPrevalence::PatternCount(const std::string& pattern) const {
  uint64_t total = 0;
  for (const PatternIndex* layer : layers_) total += layer->PatternCount(pattern);
  return total;
}

uint64_t PatternPrevalence::CoOccurrenceCount(const std::string& a,
                                              const std::string& b) const {
  uint64_t total = 0;
  for (const PatternIndex* layer : layers_) {
    total += layer->CoOccurrenceCount(a, b);
  }
  return total;
}

double PatternPrevalence::Pmi(const std::string& a,
                              const std::string& b) const {
  // Integer counts are summed over layers *before* any conversion to
  // double, so the layered answer is byte-identical to the merged one.
  const uint64_t columns = num_columns();
  if (columns == 0) return 0.0;
  const double n_a = static_cast<double>(PatternCount(a));
  const double n_b = static_cast<double>(PatternCount(b));
  if (n_a <= 0.0 || n_b <= 0.0) return 0.0;  // unseen: no evidence
  const double n_ab = static_cast<double>(CoOccurrenceCount(a, b)) + 0.5;
  const double n = static_cast<double>(columns);
  return std::log(n_ab * n / (n_a * n_b));
}

void DetectPatternErrors(const TableColumns& columns,
                         const PatternPrevalence& patterns, double alpha,
                         double pmi_threshold, std::vector<Finding>* out) {
  const Table& table = columns.table();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    if (column.size() < 8) continue;

    // Pattern histogram with row lists.
    std::unordered_map<std::string, std::vector<size_t>> rows_by_pattern;
    for (size_t row = 0; row < column.size(); ++row) {
      if (Trim(column.cell(row)).empty()) continue;
      rows_by_pattern[GeneralizePattern(column.cell(row))].push_back(row);
    }
    if (rows_by_pattern.size() < 2 || rows_by_pattern.size() > 16) continue;

    // The dominant pattern vs. each minority pattern. Ties on row count
    // break toward the lexicographically smaller pattern so the choice
    // never depends on hash iteration order.
    const std::string* dominant = nullptr;
    size_t dominant_rows = 0;
    for (const auto& [pattern, rows] : rows_by_pattern) {
      if (rows.size() > dominant_rows ||
          (rows.size() == dominant_rows && dominant != nullptr &&
           pattern < *dominant)) {
        dominant_rows = rows.size();
        dominant = &pattern;
      }
    }
    // Emission order is hash-dependent here, but every finding goes
    // through SortFindings' total order before anything ranked is
    // returned, so the hash order never reaches output.
    for (const auto& [pattern, rows] : rows_by_pattern) {  // NOLINT(determinism)
      if (&pattern == dominant) continue;
      // Only clear minorities are error candidates.
      if (rows.size() * 5 > dominant_rows) continue;
      double pmi = 0.0;
      if (patterns.PatternCount(pattern) == 0) {
        // A pattern the corpus has never seen, inside a column whose
        // dominant pattern is well established, is maximally alien; the
        // more established the dominant, the more surprising.
        pmi = -std::log(
            1.0 + static_cast<double>(patterns.PatternCount(*dominant)));
      } else {
        pmi = patterns.Pmi(*dominant, pattern);
        if (pmi == 0.0) continue;  // dominant itself unseen: no evidence
      }
      if (pmi >= pmi_threshold) continue;
      // exp(PMI) maps incompatibility onto (0, 1) so pattern findings
      // rank alongside the LR scores of the other classes (Appendix C:
      // the PMI statistic is the LR test in disguise).
      const double score = std::exp(pmi);
      if (score >= alpha) continue;

      Finding finding;
      finding.error_class = ErrorClass::kPattern;
      finding.table_name = table.name();
      finding.column = c;
      finding.rows = rows;
      finding.value = column.cell(rows.front());
      finding.score = score;
      finding.explanation =
          StrCat("pattern '", pattern, "' incompatible with dominant '",
                 *dominant, "' (PMI ", pmi, ")");
      out->push_back(std::move(finding));
    }
  }
}

}  // namespace unidetect
