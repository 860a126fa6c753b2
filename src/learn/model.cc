#include "learn/model.h"

#include <algorithm>
#include <cmath>

#include "model_format/model_snapshot.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace unidetect {

size_t EpsilonPolicy::AllowedRows(size_t num_rows) const {
  const auto frac_rows =
      static_cast<size_t>(std::ceil(fraction * static_cast<double>(num_rows)));
  return std::max(min_rows, frac_rows);
}

SurpriseDirection DirectionOf(ErrorClass c) {
  switch (c) {
    case ErrorClass::kOutlier:
      return SurpriseDirection::kHigherMoreSurprising;
    case ErrorClass::kSpelling:
    case ErrorClass::kUniqueness:
    case ErrorClass::kFd:
      return SurpriseDirection::kLowerMoreSurprising;
    case ErrorClass::kPattern:
      // Pattern incompatibility is scored by PMI (Appendix C), which is
      // exp(-LR) up to constants; smaller is more surprising.
      return SurpriseDirection::kLowerMoreSurprising;
  }
  return SurpriseDirection::kHigherMoreSurprising;
}

void Model::AddObservation(FeatureKey key, double theta1, double theta2) {
  UNIDETECT_CHECK(!finalized_);
  UNIDETECT_CHECK(subsets_sorted_.empty());
  building_[key].Add(theta1, theta2);
}

void Model::InsertSubsetSorted(FeatureKey key, SubsetStats stats) {
  UNIDETECT_CHECK(!finalized_);
  UNIDETECT_CHECK(building_.empty());
  UNIDETECT_CHECK(stats.finalized());
  UNIDETECT_CHECK(subsets_sorted_.empty() ||
                  subsets_sorted_.back().first.packed < key.packed);
  subsets_sorted_.emplace_back(key, std::move(stats));
}

void Model::MergeObservations(const Model& shard) {
  UNIDETECT_CHECK(!finalized_);
  UNIDETECT_CHECK(subsets_sorted_.empty());
  for (const auto& [key, stats] : shard.building_) {
    building_[key].Merge(stats);
  }
  for (const auto& [key, stats] : shard.subsets_sorted_) {
    building_[key].Merge(stats);
  }
}

void Model::Merge(const Model& partial) {
  UNIDETECT_CHECK(!finalized_);
  token_index_.Merge(partial.token_index_);
  pattern_index_.Merge(partial.pattern_index_);
  MergeObservations(partial);
}

void Model::Finalize() {
  if (finalized_) return;
  if (!building_.empty()) {
    subsets_sorted_.reserve(building_.size());
    for (auto& [key, stats] : building_) {
      subsets_sorted_.emplace_back(key, std::move(stats));
    }
    building_.clear();
    std::sort(subsets_sorted_.begin(), subsets_sorted_.end(),
              [](const auto& a, const auto& b) {
                return a.first.packed < b.first.packed;
              });
  }
  // No-op for subsets already finalized (the snapshot decode paths).
  for (auto& [key, stats] : subsets_sorted_) stats.Finalize();
  finalized_ = true;
}

const SubsetStats* Model::FindSubset(FeatureKey key) const {
  if (!building_.empty()) {
    auto it = building_.find(key);
    return it == building_.end() ? nullptr : &it->second;
  }
  auto it = std::lower_bound(
      subsets_sorted_.begin(), subsets_sorted_.end(), key.packed,
      [](const std::pair<FeatureKey, SubsetStats>& entry, uint64_t packed) {
        return entry.first.packed < packed;
      });
  if (it == subsets_sorted_.end() || it->first.packed != key.packed) {
    return nullptr;
  }
  return &it->second;
}

uint64_t Model::num_observations() const {
  uint64_t total = 0;
  for (const auto& [key, stats] : building_) total += stats.size();
  for (const auto& [key, stats] : subsets_sorted_) total += stats.size();
  return total;
}

uint64_t Model::SubsetSupport(FeatureKey key) const {
  const SubsetStats* stats = FindSubset(key);
  return stats == nullptr ? 0 : stats->size();
}

void Model::SetBacking(std::shared_ptr<const void> backing,
                       uint64_t mapped_bytes) {
  backing_ = std::move(backing);
  mapped_bytes_ = mapped_bytes;
}

uint64_t Model::ApproxResidentBytes() const {
  uint64_t total = token_index_.OwnedBytes() +
                   subsets_sorted_.capacity() *
                       sizeof(std::pair<FeatureKey, SubsetStats>);
  for (const auto& [key, stats] : building_) {
    total += sizeof(std::pair<FeatureKey, SubsetStats>) + stats.OwnedBytes();
  }
  for (const auto& [key, stats] : subsets_sorted_) {
    total += stats.OwnedBytes();
  }
  return total;
}

namespace lr_internal {

void AccumulateLrCounts(const SubsetStats& stats, const ModelOptions& options,
                        SurpriseDirection dir, double theta1, double theta2,
                        uint64_t* num, uint64_t* den) {
  if (options.smoothing == SmoothingMode::kPoint) {
    *num += stats.CountPointPair(theta1, theta2, options.point_grid);
    *den += stats.CountPointPre(theta2, options.point_grid);
  } else {
    *num += stats.CountSurprising(dir, theta1, theta2);
    *den += options.denominator == DenominatorMode::kSuspiciousTail
                ? stats.CountPreSuspiciousTail(dir, theta2)
                : stats.CountPreCleanTail(dir, theta2);
  }
}

}  // namespace lr_internal

double Model::LikelihoodRatio(ErrorClass cls, FeatureKey key, double theta1,
                              double theta2) const {
  UNIDETECT_CHECK(finalized_);
  const SurpriseDirection dir = DirectionOf(cls);

  // A perturbation that does not move the metric toward "clean" carries
  // no surprise whatsoever.
  if (lr_internal::PerturbationNotCleaner(dir, theta1, theta2)) return 1.0;

  const SubsetStats* stats = FindSubset(key);
  if (stats == nullptr) return 1.0;
  if (stats->size() < options_.min_support) return 1.0;

  uint64_t num = 0;
  uint64_t den = 0;
  lr_internal::AccumulateLrCounts(*stats, options_, dir, theta1, theta2, &num,
                                  &den);

  // A thin denominator means the corpus has barely any columns that look
  // like the *perturbed* table; the ratio would be dominated by
  // pseudocounts and read as (spurious) surprise. No evidence, no call.
  if (den < options_.min_support) return 1.0;

  return lr_internal::SmoothedLrFromCounts(num, den, options_);
}

Status Model::Save(const std::string& path) const {
  return WriteStringToFile(path, EncodeModelSnapshot(*this));
}

Result<Model> Model::Load(const std::string& path) {
  return LoadModelFromFile(path, SnapshotValidation::kFull);
}

}  // namespace unidetect
