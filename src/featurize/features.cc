#include "featurize/features.h"

#include <sstream>

#include "featurize/buckets.h"

namespace unidetect {

const char* ErrorClassToString(ErrorClass c) {
  switch (c) {
    case ErrorClass::kOutlier:
      return "outlier";
    case ErrorClass::kSpelling:
      return "spelling";
    case ErrorClass::kUniqueness:
      return "uniqueness";
    case ErrorClass::kFd:
      return "fd";
    case ErrorClass::kPattern:
      return "pattern";
  }
  return "?";
}

namespace {

// Bit layout (low to high):
//   [0,3)   error class
//   [3,6)   column type (rhs type for FD)
//   [6,9)   row-count bucket
//   [9,12)  class-specific A (log-fit / token-length / leftness / lhs type)
//   [12,15) class-specific B (prevalence)
class KeyBuilder {
 public:
  explicit KeyBuilder(ErrorClass c) {
    key_ = static_cast<uint64_t>(c);
    shift_ = 3;
  }
  KeyBuilder& Add(uint64_t value, int bits) {
    key_ |= value << shift_;
    shift_ += bits;
    return *this;
  }
  FeatureKey Build() const { return FeatureKey{key_}; }

 private:
  uint64_t key_ = 0;
  int shift_ = 0;
};

}  // namespace

FeatureKey OutlierFeatures(const Column& column, bool log_fits_better,
                           const FeaturizeOptions& options) {
  KeyBuilder kb(ErrorClass::kOutlier);
  if (!options.enabled) return kb.Build();
  kb.Add(static_cast<uint64_t>(column.type()), 3)
      .Add(RowCountBucket(column.size()), 3)
      .Add(log_fits_better ? 1 : 0, 3);
  return kb.Build();
}

FeatureKey SpellingFeatures(const Column& column, uint8_t token_length_bucket,
                            const FeaturizeOptions& options) {
  KeyBuilder kb(ErrorClass::kSpelling);
  if (!options.enabled) return kb.Build();
  kb.Add(static_cast<uint64_t>(column.type()), 3)
      .Add(RowCountBucket(column.size()), 3)
      .Add(token_length_bucket, 3);
  return kb.Build();
}

FeatureKey UniquenessFeatures(const Column& column, size_t column_position,
                              uint8_t prevalence_bucket,
                              const FeaturizeOptions& options) {
  KeyBuilder kb(ErrorClass::kUniqueness);
  if (!options.enabled) return kb.Build();
  kb.Add(static_cast<uint64_t>(column.type()), 3)
      .Add(RowCountBucket(column.size()), 3)
      .Add(LeftnessBucket(column_position), 3)
      .Add(prevalence_bucket, 3);
  return kb.Build();
}

FeatureKey FdFeatures(const Column& lhs, const Column& rhs,
                      uint8_t rhs_prevalence_bucket,
                      const FeaturizeOptions& options) {
  KeyBuilder kb(ErrorClass::kFd);
  if (!options.enabled) return kb.Build();
  kb.Add(static_cast<uint64_t>(rhs.type()), 3)
      .Add(RowCountBucket(rhs.size()), 3)
      .Add(static_cast<uint64_t>(lhs.type()), 3)
      .Add(rhs_prevalence_bucket, 3);
  return kb.Build();
}

std::string FeatureKeyToString(FeatureKey key) {
  std::ostringstream os;
  const auto cls = static_cast<ErrorClass>(key.packed & 0x7);
  os << "class=" << ErrorClassToString(cls);
  os << " type=" << ((key.packed >> 3) & 0x7);
  os << " rows=" << ((key.packed >> 6) & 0x7);
  os << " a=" << ((key.packed >> 9) & 0x7);
  os << " b=" << ((key.packed >> 12) & 0x7);
  return os.str();
}

}  // namespace unidetect
