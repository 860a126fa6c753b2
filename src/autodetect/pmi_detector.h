// PMI-based pattern-compatibility detection (Auto-Detect [50]), the
// orthogonal error class whose mechanism Appendix C derives from the same
// likelihood-ratio test:
//
//   LR ∝ P(D|H0,T) / P(D|H1,T) = (n1/N)(n2/N) / (n12/N) = exp(-PMI)
//
// so ranking by ascending PMI is ranking by ascending surprise.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "corpus/corpus.h"
#include "detect/finding.h"
#include "learn/table_columns.h"

namespace unidetect {

/// \brief Corpus statistics over column pattern (co-)occurrence.
class PatternIndex {
 public:
  PatternIndex() = default;

  /// \brief Ingests a corpus: each column counts each of its distinct
  /// patterns once, and each unordered pattern pair once.
  void AddCorpus(const Corpus& corpus);

  /// \brief Ingests a single table (used by the Trainer's corpus pass).
  void AddTable(const Table& table);

  /// \brief Merges another index (sharded builds).
  void Merge(const PatternIndex& other);

  /// \brief Snapshot-v2 pool codec support (model_format/snapshot_v2.cc):
  /// raw map access for the writer and direct-install decode helpers.
  /// The Add* helpers return false on a duplicate key (corrupt input).
  size_t num_patterns() const { return pattern_counts_.size(); }
  size_t num_pairs() const { return pair_counts_.size(); }
  template <typename Fn>
  void ForEachPattern(Fn&& fn) const {
    for (const auto& [pattern, count] : pattern_counts_) fn(pattern, count);
  }
  template <typename Fn>
  void ForEachPair(Fn&& fn) const {
    for (const auto& [pair, count] : pair_counts_) fn(pair, count);
  }
  void SetNumColumns(uint64_t n) { num_columns_ = n; }
  bool AddPatternCount(std::string_view pattern, uint64_t count) {
    return pattern_counts_.emplace(std::string(pattern), count).second;
  }
  bool AddPairCount(std::string_view pair_key, uint64_t count) {
    return pair_counts_.emplace(std::string(pair_key), count).second;
  }

  uint64_t num_columns() const { return num_columns_; }
  uint64_t PatternCount(const std::string& pattern) const;
  uint64_t CoOccurrenceCount(const std::string& a,
                             const std::string& b) const;

  /// \brief PMI(a, b) = log(n_ab * N / (n_a * n_b)) with +0.5 smoothing
  /// on the co-occurrence count; strongly negative = incompatible.
  /// Delegates to a single-layer PatternPrevalence so the layered and
  /// flat query paths share one arithmetic.
  double Pmi(const std::string& a, const std::string& b) const;

 private:
  static std::string PairKey(const std::string& a, const std::string& b);

  std::unordered_map<std::string, uint64_t> pattern_counts_;
  std::unordered_map<std::string, uint64_t> pair_counts_;
  uint64_t num_columns_ = 0;
};

/// \brief Read-side overlay over one or more PatternIndex layers (base
/// snapshot plus applied deltas — learn/model_stack.h). Every count is
/// additive across layers, and the PMI formula runs over the *summed*
/// integer counts, so a layered view answers byte-identically to the
/// Model::Merge fold of its layers. Layers are borrowed and must
/// outlive the view.
class PatternPrevalence {
 public:
  /// Single-layer view (implicit: an index is its own prevalence).
  PatternPrevalence(const PatternIndex& index)  // NOLINT(google-explicit-*)
      : layers_{&index} {}

  /// Layered view, base first. Sums are commutative, so layer order
  /// never changes an answer.
  explicit PatternPrevalence(std::vector<const PatternIndex*> layers)
      : layers_(std::move(layers)) {}

  size_t num_layers() const { return layers_.size(); }

  uint64_t num_columns() const;
  uint64_t PatternCount(const std::string& pattern) const;
  uint64_t CoOccurrenceCount(const std::string& a, const std::string& b) const;

  /// \brief The PMI of PatternIndex::Pmi, computed over summed counts.
  double Pmi(const std::string& a, const std::string& b) const;

 private:
  std::vector<const PatternIndex*> layers_;
};

/// \brief Pattern incompatibility: flags columns mixing pattern pairs
/// with strongly negative PMI ("2001-Jan-01" among "2001-01-01"s). The
/// minority pattern's rows are the suspected cells. A pair is a
/// candidate when its PMI is below `pmi_threshold`, and its finding is
/// kept only if the score exp(PMI) is below `alpha`, as the other
/// classes keep an LR. The layers behind `patterns` are only read.
void DetectPatternErrors(const TableColumns& columns,
                         const PatternPrevalence& patterns, double alpha,
                         double pmi_threshold, std::vector<Finding>* out);

}  // namespace unidetect
