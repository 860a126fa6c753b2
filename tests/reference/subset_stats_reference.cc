#include "reference/subset_stats_reference.h"

#include <algorithm>
#include <span>

namespace unidetect {

uint64_t CountSurprisingLinear(const SubsetStats& stats, SurpriseDirection dir,
                               double theta1, double theta2) {
  // The pre side is a binary search over the sorted pres, exactly as in
  // the optimized query (so a NaN theta1 selects the same range); the
  // post side is a plain scalar loop.
  const std::span<const float> pres = stats.pres();
  const std::span<const float> posts = stats.posts();
  const float t1 = static_cast<float>(theta1);
  const float t2 = static_cast<float>(theta2);
  uint64_t count = 0;
  if (dir == SurpriseDirection::kHigherMoreSurprising) {
    // pre >= theta1 (suspicious side) and post <= theta2 (clean side).
    const size_t begin = static_cast<size_t>(
        std::lower_bound(pres.begin(), pres.end(), t1) - pres.begin());
    for (size_t i = begin; i < posts.size(); ++i) {
      if (posts[i] <= t2) ++count;
    }
  } else {
    // pre <= theta1 and post >= theta2.
    const size_t end = static_cast<size_t>(
        std::upper_bound(pres.begin(), pres.end(), t1) - pres.begin());
    for (size_t i = 0; i < end; ++i) {
      if (posts[i] >= t2) ++count;
    }
  }
  return count;
}

}  // namespace unidetect
