#include "learn/subset_stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace unidetect {

size_t SubsetStats::TreeLevelsFor(size_t n) {
  if (n < kTreeMinSize) return 0;
  size_t levels = 0;
  for (size_t block = 2; block / 2 < n; block *= 2) ++levels;
  return levels;
}

void SubsetStats::Add(double pre, double post) {
  UNIDETECT_CHECK(!finalized_);
  UNIDETECT_CHECK(!borrowed_);
  pres_owned_.push_back(static_cast<float>(pre));
  posts_owned_.push_back(static_cast<float>(post));
}

void SubsetStats::Finalize() {
  if (finalized_) return;
  std::vector<size_t> order(pres_owned_.size());
  std::iota(order.begin(), order.end(), 0);
  // Canonical (pre, post) order, not just pre order: breaking pre ties by
  // post makes the finalized arrays a pure function of the observation
  // *multiset*, so any shard count, thread count, or merge order yields
  // bit-identical Save() output (the offline pipeline's determinism
  // contract, DESIGN.md section 11).
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (pres_owned_[a] != pres_owned_[b]) return pres_owned_[a] < pres_owned_[b];
    return posts_owned_[a] < posts_owned_[b];
  });
  std::vector<float> pres(pres_owned_.size());
  std::vector<float> posts(posts_owned_.size());
  for (size_t i = 0; i < order.size(); ++i) {
    pres[i] = pres_owned_[order[i]];
    posts[i] = posts_owned_[order[i]];
  }
  pres_owned_ = std::move(pres);
  posts_owned_ = std::move(posts);
  BuildTree();
  finalized_ = true;
}

Result<SubsetStats> SubsetStats::FromSortedArraysWithTree(
    std::vector<float> pres, std::vector<float> posts,
    std::vector<float> tree) {
  if (pres.size() != posts.size()) {
    return Status::Corruption("SubsetStats: pre/post array size mismatch");
  }
  if (!std::is_sorted(pres.begin(), pres.end())) {
    return Status::Corruption("SubsetStats: pre values not sorted");
  }
  const size_t levels = TreeLevelsFor(pres.size());
  if (tree.size() != levels * pres.size()) {
    return Status::Corruption("SubsetStats: tree size mismatch");
  }
  SubsetStats out;
  out.pres_owned_ = std::move(pres);
  out.posts_owned_ = std::move(posts);
  out.tree_owned_ = std::move(tree);
  out.tree_levels_ = levels;
  out.finalized_ = true;
  return out;
}

Result<SubsetStats> SubsetStats::FromBorrowedSorted(
    std::span<const float> pres, std::span<const float> posts,
    std::span<const float> tree, bool validate_sorted) {
  if (pres.size() != posts.size()) {
    return Status::Corruption("SubsetStats: pre/post array size mismatch");
  }
  const size_t levels = TreeLevelsFor(pres.size());
  if (tree.size() != levels * pres.size()) {
    return Status::Corruption("SubsetStats: tree size mismatch");
  }
  if (validate_sorted && !std::is_sorted(pres.begin(), pres.end())) {
    return Status::Corruption("SubsetStats: pre values not sorted");
  }
  SubsetStats out;
  out.pres_view_ = pres;
  out.posts_view_ = posts;
  out.tree_view_ = tree;
  out.tree_levels_ = levels;
  out.borrowed_ = true;
  out.finalized_ = true;
  return out;
}

uint64_t SubsetStats::OwnedBytes() const {
  return (pres_owned_.capacity() + posts_owned_.capacity() +
          tree_owned_.capacity()) *
         sizeof(float);
}

void SubsetStats::BuildTree() {
  // Build the merge-sort tree bottom-up into one flat buffer: level k
  // sorts posts within aligned blocks of 2^(k+1), ending with one fully
  // sorted block. Skipping entirely below kTreeMinSize means tiny
  // subsets never pay the allocation — on any load path.
  tree_owned_.clear();
  tree_levels_ = 0;
  const size_t n = posts_owned_.size();
  const size_t levels = TreeLevelsFor(n);
  if (levels == 0) return;
  tree_owned_.resize(levels * n);
  const float* prev = posts_owned_.data();
  size_t k = 0;
  for (size_t block = 2; block / 2 < n; block *= 2, ++k) {
    float* level = tree_owned_.data() + k * n;
    for (size_t start = 0; start < n; start += block) {
      const size_t mid = std::min(start + block / 2, n);
      const size_t end = std::min(start + block, n);
      std::merge(prev + start, prev + mid, prev + mid, prev + end,
                 level + start);
    }
    prev = level;
  }
  tree_levels_ = levels;
}

namespace {
// Index of the first element > theta (span sorted ascending).
size_t UpperBound(std::span<const float> v, double theta) {
  return static_cast<size_t>(
      std::upper_bound(v.begin(), v.end(), static_cast<float>(theta)) -
      v.begin());
}
// Index of the first element >= theta.
size_t LowerBound(std::span<const float> v, double theta) {
  return static_cast<size_t>(
      std::lower_bound(v.begin(), v.end(), static_cast<float>(theta)) -
      v.begin());
}

// The leaf counts: elements v[i] <= theta (or >= theta). A NaN element
// compares false on both sides, so it is never counted.
uint64_t CountLessEqual(const float* v, size_t n, float theta) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] <= theta) ++count;
  }
  return count;
}
uint64_t CountGreaterEqual(const float* v, size_t n, float theta) {
  uint64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] >= theta) ++count;
  }
  return count;
}
}  // namespace

uint64_t SubsetStats::CountPostsInPrefix(size_t prefix_len, float theta,
                                         bool count_geq) const {
  // Binary block decomposition of the prefix: taking block sizes largest
  // first keeps `pos` a multiple of every block size still to come, so
  // each counted block is complete and aligned within its tree level.
  // The decomposition stops at kLeafBlock: below that, binary searches
  // on ever-smaller blocks cost more than one linear sweep over the
  // (< 2 * kLeafBlock) leftover posts, counted with the same
  // inclusive-bound semantics.
  const size_t n = size();
  uint64_t count = 0;
  size_t pos = 0;
  for (size_t k = tree_levels_; k-- > 0;) {
    const size_t block = size_t{1} << (k + 1);
    if (block <= kLeafBlock) break;
    if (prefix_len - pos < block) continue;
    const float* begin = tree_data().data() + k * n + pos;
    const float* end = begin + block;
    if (count_geq) {
      count += static_cast<uint64_t>(end - std::lower_bound(begin, end, theta));
    } else {
      count +=
          static_cast<uint64_t>(std::upper_bound(begin, end, theta) - begin);
    }
    pos += block;
  }
  if (pos < prefix_len) {
    const size_t rest = prefix_len - pos;
    const float* base = posts().data() + pos;
    count += count_geq ? CountGreaterEqual(base, rest, theta)
                       : CountLessEqual(base, rest, theta);
  }
  return count;
}

uint64_t SubsetStats::CountSurprising(SurpriseDirection dir, double theta1,
                                      double theta2) const {
  UNIDETECT_CHECK(finalized_);
  // Comparisons against a NaN theta2 are uniformly false, so nothing
  // qualifies. The linear sweeps get this right element by element, but
  // the binary-search block counting below would misclassify whole blocks
  // (NaN is unordered, so lower_bound/upper_bound land at an arbitrary
  // edge); short-circuit to match the linear reference exactly.
  if (std::isnan(theta2)) return 0;
  // With no tree (subsets below kTreeMinSize) the whole query is one
  // bounded linear sweep over posts; CountPostsInPrefix degenerates to
  // exactly that when tree_levels_ is 0, so both shapes share it.
  const float t2 = static_cast<float>(theta2);
  if (dir == SurpriseDirection::kHigherMoreSurprising) {
    // pre >= theta1 (suspicious side) and post <= theta2 (clean side):
    // a suffix of the pre-sorted order, counted as full-range minus prefix.
    const size_t begin = LowerBound(pres(), theta1);
    if (tree_levels_ == 0) {
      // No tree: one direct sweep over the suffix instead of two prefix
      // counts. Each element sees the same predicate either way.
      return CountLessEqual(posts().data() + begin, size() - begin, t2);
    }
    return CountPostsInPrefix(size(), t2, /*count_geq=*/false) -
           CountPostsInPrefix(begin, t2, /*count_geq=*/false);
  }
  // pre <= theta1 and post >= theta2: a prefix of the pre-sorted order.
  const size_t end = UpperBound(pres(), theta1);
  return CountPostsInPrefix(end, t2, /*count_geq=*/true);
}

uint64_t SubsetStats::CountPreSuspiciousTail(SurpriseDirection dir,
                                             double theta2) const {
  UNIDETECT_CHECK(finalized_);
  if (dir == SurpriseDirection::kHigherMoreSurprising) {
    return size() - LowerBound(pres(), theta2);  // pre >= theta2
  }
  return UpperBound(pres(), theta2);  // pre <= theta2
}

uint64_t SubsetStats::CountPreCleanTail(SurpriseDirection dir,
                                        double theta2) const {
  UNIDETECT_CHECK(finalized_);
  if (dir == SurpriseDirection::kHigherMoreSurprising) {
    return UpperBound(pres(), theta2);  // pre <= theta2
  }
  return size() - LowerBound(pres(), theta2);  // pre >= theta2
}

namespace {
float Quantize(double v, double grid) {
  if (grid <= 0) return static_cast<float>(v);
  return static_cast<float>(std::round(v / grid) * grid);
}
}  // namespace

uint64_t SubsetStats::CountPointPair(double theta1, double theta2,
                                     double grid) const {
  UNIDETECT_CHECK(finalized_);
  const float q1 = Quantize(theta1, grid);
  const float q2 = Quantize(theta2, grid);
  const std::span<const float> pre = pres();
  const std::span<const float> post = posts();
  uint64_t count = 0;
  for (size_t i = 0; i < pre.size(); ++i) {
    if (Quantize(pre[i], grid) == q1 && Quantize(post[i], grid) == q2) {
      ++count;
    }
  }
  return count;
}

uint64_t SubsetStats::CountPointPre(double theta2, double grid) const {
  UNIDETECT_CHECK(finalized_);
  const float q2 = Quantize(theta2, grid);
  uint64_t count = 0;
  for (float pre : pres()) {
    if (Quantize(pre, grid) == q2) ++count;
  }
  return count;
}

void SubsetStats::Merge(const SubsetStats& other) {
  UNIDETECT_CHECK(!finalized_);
  UNIDETECT_CHECK(!borrowed_);
  pres_owned_.reserve(pres_owned_.size() + other.size());
  posts_owned_.reserve(posts_owned_.size() + other.size());
  pres_owned_.insert(pres_owned_.end(), other.pres().begin(),
                     other.pres().end());
  posts_owned_.insert(posts_owned_.end(), other.posts().begin(),
                      other.posts().end());
}

}  // namespace unidetect
