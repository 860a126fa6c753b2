// Model: the "memorized" output of offline learning (Section 2.2.3).
//
// Holds the token prevalence index and, per feature subset, the
// (theta1, theta2) observations needed to answer smoothed LR queries at
// interactive speed. A Model is built by the Trainer and consumed by the
// detectors; it can be saved to and loaded from a single file.
//
// Subset storage has two phases. During the build phase observations
// accumulate in a hash map; Finalize() moves everything into one
// FeatureKey-sorted vector and lookup becomes a binary search over that
// contiguous array — the same access pattern the UDSNAP snapshot
// index serializes, so a model decoded zero-copy from a mapped snapshot
// (model_format/snapshot_v2.h) and a freshly trained one answer queries
// through identical code. A mapped model pins its file region alive via
// `backing_`.

#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "autodetect/pmi_detector.h"
#include "corpus/token_index.h"
#include "featurize/features.h"
#include "learn/subset_stats.h"
#include "metrics/metric_functions.h"
#include "util/result.h"

namespace unidetect {

/// \brief How P_m(D | S(T)) and P_m(D_O^P | S(T)) are estimated.
enum class SmoothingMode : int {
  /// Range-based predicates of Eq. 12 (the paper's smoothing).
  kRange = 0,
  /// Exact point estimates of Eq. 11 (the ablation the paper rejects as
  /// "highly irregular and non-smooth").
  kPoint = 1,
};

/// \brief Which tail of the pre-perturbation metric forms the denominator.
enum class DenominatorMode : int {
  /// The paper's written formulas: the tail on theta2's *suspicious*
  /// side (max-MAD >= theta2; MPD/UR/FR <= theta2).
  kSuspiciousTail = 0,
  /// The alternative reading suggested by Example 2 (|{UR(D) = 1}|):
  /// the tail on theta2's *clean* side. Compared in bench_ablation.
  kCleanTail = 1,
};

/// \brief Bound on the perturbation size epsilon (Definition 2):
/// allowed rows = max(min_rows, ceil(fraction * num_rows)).
struct EpsilonPolicy {
  size_t min_rows = 2;
  double fraction = 0.01;

  size_t AllowedRows(size_t num_rows) const;
};

/// \brief Configuration shared by Trainer and detectors. Stored inside
/// the model so a trained model carries its own conventions.
struct ModelOptions {
  FeaturizeOptions featurize;
  SmoothingMode smoothing = SmoothingMode::kRange;
  DenominatorMode denominator = DenominatorMode::kSuspiciousTail;
  EpsilonPolicy epsilon;
  MpdOptions mpd;
  /// Additive smoothing: LR = (num + pseudocount) / (den + 2*pseudocount).
  /// Keeps sparse evidence conservative (LR -> 1/2, never 0/0).
  double pseudocount = 1.0;
  /// Subsets with fewer observations than this yield LR = 1 (no evidence,
  /// no detection) instead of an unreliable estimate.
  uint64_t min_support = 30;
  /// Quantization step for SmoothingMode::kPoint.
  double point_grid = 0.1;
  /// Columns with fewer rows than this are skipped entirely; tiny columns
  /// carry no statistical signal.
  size_t min_column_rows = 8;
};

/// \brief Suspicious-tail direction of each error class's metric.
SurpriseDirection DirectionOf(ErrorClass c);

/// \brief The Eq. 12 likelihood-ratio arithmetic, factored so that the
/// flat path (Model::LikelihoodRatio) and the layered path
/// (ModelStack::LikelihoodRatio, learn/model_stack.h) run literally the
/// same instructions. Counts accumulate as integers per layer and are
/// summed before the single floating-point division, which is what makes
/// a base+deltas stack answer byte-identically to the Model::Merge fold.
namespace lr_internal {

/// \brief True when the perturbation did not move the metric toward
/// "clean" for `dir` — such a candidate carries no surprise (LR = 1).
inline bool PerturbationNotCleaner(SurpriseDirection dir, double theta1,
                                   double theta2) {
  if (dir == SurpriseDirection::kHigherMoreSurprising) return theta2 >= theta1;
  return theta2 <= theta1;
}

/// \brief Adds one layer's numerator/denominator counts for a
/// (theta1, theta2) query to `*num` / `*den`.
void AccumulateLrCounts(const SubsetStats& stats, const ModelOptions& options,
                        SurpriseDirection dir, double theta1, double theta2,
                        uint64_t* num, uint64_t* den);

/// \brief The smoothed ratio over the (possibly layer-summed) counts:
/// min((num + pc) / (den + 2pc), 1). Every double op of the query
/// happens here, after all integer summation.
inline double SmoothedLrFromCounts(uint64_t num, uint64_t den,
                                   const ModelOptions& options) {
  const double pc = options.pseudocount;
  const double lr = (static_cast<double>(num) + pc) /
                    (static_cast<double>(den) + 2.0 * pc);
  return std::min(lr, 1.0);
}

}  // namespace lr_internal

/// \brief Trained Uni-Detect model.
class Model {
 public:
  Model() = default;
  explicit Model(ModelOptions options) : options_(std::move(options)) {}

  const ModelOptions& options() const { return options_; }
  const TokenIndex& token_index() const { return token_index_; }
  TokenIndex* mutable_token_index() { return &token_index_; }

  /// \brief Pattern co-occurrence statistics (Auto-Detect mechanism,
  /// Section 3.5) — trained alongside the metric subsets and used by the
  /// optional pattern-incompatibility detector.
  const PatternIndex& pattern_index() const { return pattern_index_; }
  PatternIndex* mutable_pattern_index() { return &pattern_index_; }

  /// \brief Adds one training observation (build phase).
  void AddObservation(FeatureKey key, double theta1, double theta2);

  /// \brief Appends an already-finalized subset directly to the sorted
  /// store (the snapshot decode path, whose index is key-sorted on disk).
  /// Keys must arrive in strictly ascending order and the hash-map build
  /// store must be empty; Finalize() afterwards is then O(#subsets).
  void InsertSubsetSorted(FeatureKey key, SubsetStats stats);

  /// \brief Visits every (key, stats) pair in ascending key order — a
  /// deterministic order independent of hash seed or standard library.
  template <typename Fn>
  void ForEachSubsetSorted(Fn&& fn) const {
    if (building_.empty()) {
      for (const auto& [key, stats] : subsets_sorted_) fn(key, stats);
      return;
    }
    std::vector<FeatureKey> keys;
    keys.reserve(building_.size());
    for (const auto& [key, stats] : building_) keys.push_back(key);
    std::sort(keys.begin(), keys.end(),
              [](FeatureKey a, FeatureKey b) { return a.packed < b.packed; });
    for (FeatureKey key : keys) fn(key, building_.at(key));
  }

  /// \brief Merges subsets from a shard-local model (build phase). The
  /// shard may be build-phase or finalized (e.g. loaded from a snapshot).
  void MergeObservations(const Model& shard);

  /// \brief Merges a partial model — token index, pattern index, and
  /// per-subset observations — into this build-phase model. The partial
  /// may itself be finalized (e.g. decoded from a UDSNAP snapshot).
  ///
  /// Merge is associative and commutative up to Finalize(): every folded
  /// quantity is additive and Finalize() canonically orders each subset
  /// by (pre, post), so merging any permutation or grouping of partials
  /// produces bit-identical Save() output. This is the one merge
  /// implementation shared by Trainer::Train's in-process reduction and
  /// the offline shard pipeline (src/offline/).
  void Merge(const Model& partial);

  /// \brief Sorts all subsets into the contiguous key-ordered store;
  /// required before queries.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// \brief The stats for `key`, or nullptr if absent. Binary search over
  /// the sorted store once finalized; hash lookup during the build phase.
  const SubsetStats* FindSubset(FeatureKey key) const;

  /// \brief Smoothed likelihood ratio of Eq. 12 for a candidate with
  /// metrics (theta1, theta2) in the subset selected by `key`.
  ///
  /// Returns a value in (0, 1]; smaller = more surprising = more likely a
  /// real error. Returns exactly 1.0 when there is no usable evidence
  /// (unknown subset, support below min_support) or when the perturbation
  /// did not move the metric toward "clean".
  double LikelihoodRatio(ErrorClass cls, FeatureKey key, double theta1,
                         double theta2) const;

  /// \brief Number of feature subsets with observations.
  size_t num_subsets() const {
    return building_.size() + subsets_sorted_.size();
  }

  /// \brief Total observations across subsets.
  uint64_t num_observations() const;

  /// \brief Observation count for one subset (0 if absent).
  uint64_t SubsetSupport(FeatureKey key) const;

  /// \brief Ties an external buffer's lifetime to this model — the mapped
  /// snapshot region that borrowed SubsetStats and TokenIndex spans
  /// point into. The last
  /// Model (or Model copy) referencing the region unmaps it.
  void SetBacking(std::shared_ptr<const void> backing, uint64_t mapped_bytes);

  /// \brief Bytes of mapped (page-cache-shared) model storage; 0 for a
  /// fully owned model.
  uint64_t mapped_bytes() const { return mapped_bytes_; }

  /// \brief Approximate private heap bytes held by subset storage and
  /// the token index (a mapped index's table counts under
  /// mapped_bytes() instead); pairs with mapped_bytes() as the serving
  /// tier's resident/mapped gauges.
  uint64_t ApproxResidentBytes() const;

  /// \brief Persistence in the versioned, checksummed UDSNAP snapshot
  /// format (model_format/model_snapshot.h). Load maps the file and
  /// decodes it zero-copy; any other format is Corruption.
  Status Save(const std::string& path) const;
  static Result<Model> Load(const std::string& path);

 private:
  ModelOptions options_;
  TokenIndex token_index_;
  PatternIndex pattern_index_;
  // Build-phase accumulation store. Finalize() drains it into
  // subsets_sorted_; exactly one of the two containers is non-empty at
  // any time.
  std::unordered_map<FeatureKey, SubsetStats, FeatureKeyHash> building_;
  // Key-ascending store queried by binary search after Finalize().
  std::vector<std::pair<FeatureKey, SubsetStats>> subsets_sorted_;
  // Keepalive for borrowed subset storage (the mapped snapshot region).
  std::shared_ptr<const void> backing_;
  uint64_t mapped_bytes_ = 0;
  bool finalized_ = false;
};

}  // namespace unidetect
