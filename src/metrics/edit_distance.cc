#include "metrics/edit_distance.h"

#include <algorithm>

namespace unidetect {

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;

  std::vector<size_t> row(n + 1);
  for (size_t i = 0; i <= n; ++i) row[i] = i;
  for (size_t j = 1; j <= m; ++j) {
    size_t prev_diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= n; ++i) {
      const size_t cur = row[i];
      const size_t sub = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, sub});
      prev_diag = cur;
    }
  }
  return row[n];
}

namespace {

// Sets the match-table entries of `pattern`: bit i of peq[c] is set iff
// pattern[i] == c. The entries must be zero beforehand.
void FillMatchTable(std::string_view pattern, uint64_t peq[256]) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }
}

void ClearMatchTable(std::string_view pattern, uint64_t peq[256]) {
  for (const char c : pattern) peq[static_cast<unsigned char>(c)] = 0;
}

// Myers' bit-parallel Levenshtein scan (Hyyrö's formulation) of `text`
// against the pattern of length n (1 <= n <= 64) whose match table is
// `peq`; runs in |text| word operations, independent of the distance.
// Returns the exact distance.
size_t MyersScan(const uint64_t peq[256], size_t n, std::string_view text) {
  const uint64_t mask = uint64_t{1} << (n - 1);
  uint64_t vp = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  uint64_t vn = 0;
  size_t score = n;
  for (const char c : text) {
    const uint64_t pm = peq[static_cast<unsigned char>(c)];
    const uint64_t d0 = (((pm & vp) + vp) ^ vp) | pm | vn;
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = vp & d0;
    if (hp & mask) ++score;
    if (hn & mask) --score;
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
  }
  return score;
}

}  // namespace

size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound, EditDistanceScratch* scratch) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (m - n > bound) return bound + 1;
  if (n == 0) return m;

  if (n <= EditDistancePattern::kBitParallelMax) {
    ClearMatchTable(a, scratch->peq);  // defensive: table must be clean
    FillMatchTable(a, scratch->peq);
    const size_t d = MyersScan(scratch->peq, n, b);
    ClearMatchTable(a, scratch->peq);
    return d <= bound ? d : bound + 1;
  }

  // Banded DP: column j only computes the cells in [j - bound,
  // j + bound], since cells outside can never come back under the bound.
  // Cells outside the band are never cleared wholesale; the only ones a
  // column reads outside its own band and its predecessor's are the two
  // edge cells below, and those are set to kInf first. So a call costs
  // O(bound * m), and the rows only ever grow.
  const size_t kInf = bound + 1;
  std::vector<size_t>& row = scratch->row;
  std::vector<size_t>& next = scratch->next;
  if (row.size() <= n) {
    row.resize(n + 1);
    next.resize(n + 1);
  }
  for (size_t i = 0; i <= std::min(n, bound); ++i) row[i] = i;

  for (size_t j = 1; j <= m; ++j) {
    const size_t lo = j > bound ? j - bound : 0;
    const size_t hi = std::min(n, j + bound);
    // Left edge: the insertion from next[lo - 1]. Right edge: the
    // deletion from row[hi], one past the previous column's band when
    // the band has not yet reached n.
    if (lo > 0) next[lo - 1] = kInf;
    if (j + bound <= n) row[hi] = kInf;
    size_t row_min = kInf;
    if (lo == 0) {
      next[0] = j;  // lo == 0 implies j <= bound
      row_min = j;
    }
    for (size_t i = std::max<size_t>(lo, 1); i <= hi; ++i) {
      const size_t sub = row[i - 1] == kInf
                             ? kInf
                             : row[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      const size_t del = row[i] == kInf ? kInf : row[i] + 1;
      const size_t ins = next[i - 1] == kInf ? kInf : next[i - 1] + 1;
      next[i] = std::min({sub, del, ins, kInf});
      row_min = std::min(row_min, next[i]);
    }
    if (row_min > bound) return bound + 1;
    std::swap(row, next);
  }
  return std::min(row[n], kInf);
}

size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound) {
  thread_local EditDistanceScratch scratch;
  return BoundedEditDistance(a, b, bound, &scratch);
}

void EditDistancePattern::Assign(std::string_view pattern) {
  ClearMatchTable({copy_, copy_size_}, peq_);
  pattern_ = pattern;
  copy_size_ = bit_parallel() ? pattern.size() : 0;
  std::copy_n(pattern.data(), copy_size_, copy_);
  FillMatchTable({copy_, copy_size_}, peq_);
}

size_t EditDistancePattern::BoundedDistance(
    std::string_view text, size_t bound, EditDistanceScratch* scratch) const {
  if (!bit_parallel()) {
    return BoundedEditDistance(pattern_, text, bound, scratch);
  }
  const size_t n = pattern_.size();
  const size_t gap = text.size() > n ? text.size() - n : n - text.size();
  if (gap > bound) return bound + 1;
  const size_t d = MyersScan(peq_, n, text);
  return d <= bound ? d : bound + 1;
}

}  // namespace unidetect
