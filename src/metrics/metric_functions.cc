#include "metrics/metric_functions.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>
#include <string_view>
#include <vector>

#include "metrics/edit_distance.h"
#include "util/flat_string_table.h"
#include "util/simd.h"
#include "util/string_util.h"

namespace unidetect {

ColumnCodes EncodeColumn(const Column& column) {
  ColumnCodes out;
  out.codes.resize(column.size());
  // Table ids are dense in first-insertion order, so id + 1 is the
  // first-occurrence code. Slots for an all-distinct column up front:
  // regrowing row by row costs more than the unused slots.
  FlatStringTable dictionary;
  dictionary.Reserve(column.size());
  for (size_t row = 0; row < column.size(); ++row) {
    std::string_view cell = Trim(column.cell(row));
    if (cell.empty()) continue;
    out.codes[row] = dictionary.Insert(cell).first + 1;
  }
  out.distinct = static_cast<uint32_t>(dictionary.size());
  return out;
}

namespace {

// Row mask for the perturbed-column kernels: empty when nothing is
// dropped, so the unperturbed scans pay one branch per row. Indices at or
// past `n` are ignored, as Column::WithoutRows ignores them.
std::vector<uint8_t> DropMask(size_t n, std::span<const size_t> dropped_rows) {
  std::vector<uint8_t> mask;
  if (dropped_rows.empty()) return mask;
  mask.assign(n, 0);
  for (const size_t row : dropped_rows) {
    if (row < n) mask[row] = 1;
  }
  return mask;
}

}  // namespace

UrProfile ComputeUrProfile(const Column& column) {
  return ComputeUrProfile(EncodeColumn(column));
}

UrProfile ComputeUrProfile(const ColumnCodes& column,
                           std::span<const size_t> dropped_rows) {
  UrProfile out;
  const std::vector<uint8_t> dropped = DropMask(column.size(), dropped_rows);
  std::vector<uint8_t> seen(column.distinct + size_t{1}, 0);
  size_t total = 0;
  size_t distinct = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    const uint32_t code = column.codes[row];
    if (code == 0 || (!dropped.empty() && dropped[row] != 0)) continue;
    ++total;
    if (seen[code] != 0) {
      out.duplicate_rows.push_back(row);
    } else {
      seen[code] = 1;
      ++distinct;
    }
  }
  if (total == 0) return out;
  out.valid = true;
  out.ur = static_cast<double>(distinct) / static_cast<double>(total);
  const double remaining =
      static_cast<double>(total - out.duplicate_rows.size());
  out.ur_perturbed =
      remaining > 0 ? static_cast<double>(distinct) / remaining : 1.0;
  return out;
}

namespace {

struct DistinctValue {
  std::string_view value;
  size_t first_row;
};

// The first `max_values` distinct values with their first rows. Codes are
// numbered in first-occurrence order, so these are exactly the codes
// 1..max_values, and a row holds a new value iff its code is the next
// one not yet seen.
std::vector<DistinctValue> CollectDistinctValues(const Column& column,
                                                 const ColumnCodes& codes,
                                                 const MpdOptions& options) {
  const size_t kept = std::min<size_t>(codes.distinct, options.max_values);
  std::vector<DistinctValue> values;
  values.reserve(kept);
  for (size_t row = 0; row < codes.size() && values.size() < kept; ++row) {
    if (codes.codes[row] == values.size() + 1) {
      values.push_back({Trim(column.cell(row)), row});
    }
  }
  return values;
}

// Closest pair among `values`.
struct ClosestPair {
  size_t dist = std::numeric_limits<size_t>::max();
  size_t i = 0;
  size_t j = 0;
};

// ---------------------------------------------------------------------------
// Single-pass closest-pair search.
//
// One scan over all value pairs yields the closest pair AND the closest
// distances avoiding each of its endpoints (the two perturbed MPDs),
// replacing the three full scans of the reference implementation
// (tests/reference/mpd_reference.h).
//
// Correctness of the single pass rests on a 4-tracker invariant. Besides
// the running best pair B = (bi, bj), three buckets hold the minimum
// distance among evaluated pairs classified RELATIVE TO THE CURRENT BEST:
// pairs touching bi only, pairs touching bj only, and pairs disjoint from
// both. When B is dethroned, the (at most four) retained argmin pairs are
// reclassified against the new endpoints. A pair dropped from a bucket
// always loses to a same-bucket pair of smaller-or-equal distance, and
// buckets separate "touches v" from "avoids v" whenever v is an endpoint
// of the current best — which is exactly when losing an avoids-v pair to
// a touches-v pair could corrupt the final answer. Hence at every moment
// the minimum over evaluated pairs avoiding bi (resp. bj) is attained by
// a retained candidate.
//
// Which pairs need an exact distance: the disjoint-minimum lemma. Let D
// be the disjoint bucket's argmin. D avoids both endpoints of B, and
// d(B) <= d(D). So for any value v, one of B and D avoids v (an endpoint
// of D is not one of B), and the minimum over evaluated pairs avoiding v
// is at most d(D). That holds for every v, so also for the endpoints of
// whichever pair is best at the end: a dethrone re-offers B and D, and
// more evaluated pairs only lower a minimum. A pair P with d(P) >= d(D)
// can therefore never be the only pair attaining an exclusion minimum;
// skipping it changes neither. Within its own bucket X, a pair at or
// above d(X) loses anyway. A pair in bucket X thus needs an exact
// distance only up to
//
//   need_of(X) = max(min(d(B), cap), min(d(X), d(D)) - 1),
//
// where the first term keeps every pair that could tie or beat the best,
// so the best pair and its tie rule stay exact. need_of(D) is the
// largest over the three buckets. The gates that do not yet know a
// pair's bucket (the length-gap break and the 64-wide mask) use it.
// At the end of the scan the two exclusion minima are exact. (The
// property tests in metric_functions_test.cc and
// mpd_kernel_property_test.cc check this against the three-scan
// reference.)
//
// All distances are clamped to cap + 1, matching the adaptive bounds of
// the reference scans. The best pair additionally tracks the
// lexicographically-smallest (i, j) among ties, which is the pair the
// reference's in-order strict-improvement scan selects.
//
// Pairs are pruned before any distance is computed by the length gap,
// the bag bound over folded character counts and the 2-gram bound over
// hashed 2-gram counts (util/simd.h, DESIGN.md section 8), all lower
// bounds on the edit distance. The scan is length sorted, so the outer
// value is never the longer one of a pair: it is prepared once as an
// EditDistancePattern, and each surviving pair costs one bit-parallel
// scan of the inner value.

constexpr size_t kNoPair = std::numeric_limits<size_t>::max();

struct PairTracker {
  size_t dist;
  size_t i = kNoPair;
  size_t j = kNoPair;
};

struct SinglePassResult {
  ClosestPair best;
  size_t excl_i = 0;  ///< min distance over pairs avoiding best.i (clamped)
  size_t excl_j = 0;  ///< min distance over pairs avoiding best.j (clamped)
};

// Adds `s` to the folded, saturating byte counts at `counts`.
void CountClasses(std::string_view s, uint8_t* counts) {
  for (const char c : s) {
    uint8_t& slot = counts[static_cast<unsigned char>(c) & 63];
    if (slot != 255) ++slot;
  }
}

SinglePassResult SinglePassClosestPair(const std::vector<DistinctValue>& values,
                                       size_t cap) {
  const size_t n = values.size();
  const size_t far = cap + 1;
  const auto len = [&](size_t v) { return values[v].value.size(); };

  // Length-sorted processing: similar-length pairs (the likely close ones)
  // are scanned first, so the adaptive thresholds collapse early and the
  // length-gap prefilter can break out of the inner loop.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return len(a) != len(b) ? len(a) < len(b) : a < b;
  });

  // Lengths, character counts and 2-gram counts in scan (length-sorted)
  // order, so the vector prefilter reads contiguous arrays. Lengths clamp
  // to int32; clamping can only weaken the prefilter (admit extra
  // candidates), and every survivor still goes through the exact
  // per-pair gates below.
  constexpr size_t kClasses = simd::kMpdCountClasses;
  std::vector<int32_t> ord_len(n);
  std::vector<uint8_t> ord_counts(n * kClasses, 0);
  std::vector<uint8_t> ord_grams(n * kClasses, 0);
  for (size_t p = 0; p < n; ++p) {
    const std::string_view value = values[order[p]].value;
    ord_len[p] = static_cast<int32_t>(std::min(
        value.size(),
        static_cast<size_t>(std::numeric_limits<int32_t>::max())));
    CountClasses(value, &ord_counts[p * kClasses]);
    simd::MpdBigramCounts(value.data(), value.size(),
                          &ord_grams[p * kClasses]);
  }

  // When no pair is within cap, every pair clamps to cap + 1 and the
  // reference scan reports the first pair it evaluated: seed the best
  // tracker with exactly that outcome.
  ClosestPair best{far, 0, 1};
  PairTracker touch_i{far};    // pairs sharing best.i only
  PairTracker touch_j{far};    // pairs sharing best.j only
  PairTracker disjoint{far};   // pairs avoiding both endpoints

  EditDistancePattern pattern;
  EditDistanceScratch scratch;  // the > 64-byte banded fallback

  // Classifies (i, j, d) into the bucket it belongs to under the current
  // best and records it on improvement.
  const auto bucket_of = [&](size_t i, size_t j) -> PairTracker& {
    const bool on_i = i == best.i || j == best.i;
    const bool on_j = i == best.j || j == best.j;
    return on_i ? touch_i : (on_j ? touch_j : disjoint);
  };
  const auto offer_to_bucket = [&](size_t i, size_t j, size_t d) {
    PairTracker& bucket = bucket_of(i, j);
    if (d < bucket.dist) bucket = {d, i, j};
  };

  // Largest distance a pair in `bucket` can matter at (the lemma above).
  const auto need_of = [&](const PairTracker& bucket) {
    const size_t below = std::min(bucket.dist, disjoint.dist);
    return std::max(std::min(best.dist, cap),
                    below == 0 ? size_t{0} : below - 1);
  };

  for (size_t a = 0; a < n; ++a) {
    const size_t va = order[a];
    const int32_t len_a = ord_len[a];
    const uint8_t* counts_a = &ord_counts[a * kClasses];
    const uint8_t* grams_a = &ord_grams[a * kClasses];
    pattern.Assign(values[va].value);
    bool done_a = false;
    size_t b = a + 1;
    // Candidates are masked 64 at a time through the SIMD length/bag
    // gates at the chunk-entry need_of(disjoint), then only survivors run
    // the exact scalar per-pair logic. Sound because need_of(disjoint) is
    // non-increasing while no dethrone happens (buckets only shrink) and
    // bounds every bucket's need_of, so masked-out pairs are exactly
    // pairs the sequential scan would have skipped anyway. A dethrone
    // resets the buckets (the bound can jump back up), so the rest of
    // the chunk is re-masked from the pair after it.
    while (b < n && !done_a) {
      const size_t need_entry = need_of(disjoint);
      if (static_cast<size_t>(ord_len[b] - len_a) > need_entry) {
        break;  // later b's are even longer
      }
      const size_t chunk = std::min<size_t>(64, n - b);
      const int32_t bound = static_cast<int32_t>(std::min(
          need_entry,
          static_cast<size_t>(std::numeric_limits<int32_t>::max())));
      uint64_t mask = simd::MpdPrefilterMask(ord_len.data() + b,
                                             &ord_counts[b * kClasses], chunk,
                                             len_a, counts_a, bound);
      size_t next_b = b + chunk;
      while (mask != 0) {
        const size_t bidx = b + static_cast<size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        const size_t vb = order[bidx];
        const size_t gap = len(vb) - len(va);
        if (gap > need_of(disjoint)) {
          // Skipped candidates between survivors never update trackers,
          // so the bound is unchanged since the previous evaluation and
          // gap is non-decreasing: the sequential scan would have broken
          // at or before this pair.
          done_a = true;
          break;
        }

        const size_t i = std::min(va, vb);
        const size_t j = std::max(va, vb);
        const size_t need = need_of(bucket_of(i, j));
        if (gap > need) continue;
        // The mask passed this pair's bag bound at `bound`, so it can
        // only fail again at a smaller need.
        if (need < static_cast<size_t>(bound) &&
            static_cast<size_t>(simd::MpdCountBound(
                counts_a, &ord_counts[bidx * kClasses], len_a,
                ord_len[bidx])) > need) {
          continue;
        }
        if (static_cast<size_t>(simd::MpdBigramBound(
                grams_a, &ord_grams[bidx * kClasses])) > need) {
          continue;
        }

        const size_t d =
            pattern.BoundedDistance(values[vb].value, need, &scratch);
        if (d > need) continue;  // beyond every tracker's interest

        if (d < best.dist ||
            (d == best.dist &&
             (i < best.i || (i == best.i && j < best.j)))) {
          // Dethrone: the old best and the bucket argmins are the only
          // candidates that can seed the buckets of the new best.
          const ClosestPair old_best = best;
          const PairTracker old[3] = {touch_i, touch_j, disjoint};
          best = {d, i, j};
          touch_i = {far};
          touch_j = {far};
          disjoint = {far};
          if (old_best.dist < far) {
            offer_to_bucket(old_best.i, old_best.j, old_best.dist);
          }
          for (const PairTracker& t : old) {
            if (t.i != kNoPair) offer_to_bucket(t.i, t.j, t.dist);
          }
          next_b = bidx + 1;  // stale mask: re-filter the rest of the chunk
          break;
        }
        offer_to_bucket(i, j, d);
      }
      b = next_b;
    }
  }

  SinglePassResult out;
  out.best = best;
  out.excl_i = std::min(disjoint.dist, touch_j.dist);
  out.excl_j = std::min(disjoint.dist, touch_i.dist);
  return out;
}

}  // namespace

double AvgDifferingTokenLength(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = TokenizeCell(a);
  std::vector<std::string> tb = TokenizeCell(b);
  // Multiset difference in both directions.
  std::map<std::string, int> counts;
  for (const auto& t : ta) counts[t]++;
  for (const auto& t : tb) counts[t]--;
  double total_len = 0.0;
  size_t n = 0;
  for (const auto& [token, count] : counts) {
    if (count == 0) continue;
    total_len += static_cast<double>(token.size()) *
                 static_cast<double>(std::abs(count));
    n += static_cast<size_t>(std::abs(count));
  }
  if (n > 0) return total_len / static_cast<double>(n);
  // Values differ only in separators; fall back to mean token length.
  total_len = 0.0;
  n = 0;
  for (const auto& t : ta) {
    total_len += static_cast<double>(t.size());
    ++n;
  }
  for (const auto& t : tb) {
    total_len += static_cast<double>(t.size());
    ++n;
  }
  return n > 0 ? total_len / static_cast<double>(n)
               : static_cast<double>(a.size() + b.size()) / 2.0;
}

bool IsMpdEligible(const Column& column) {
  const ColumnType type = column.type();
  // Numeric-ish columns are not spelling targets.
  return type != ColumnType::kInteger && type != ColumnType::kFloat &&
         type != ColumnType::kDate;
}

MpdProfile ComputeMpdProfile(const Column& column, const MpdOptions& options) {
  if (!IsMpdEligible(column)) return MpdProfile{};
  return ComputeMpdProfile(column, EncodeColumn(column), options);
}

MpdProfile ComputeMpdProfile(const Column& column, const ColumnCodes& codes,
                             const MpdOptions& options) {
  MpdProfile out;
  if (!IsMpdEligible(column)) return out;

  const std::vector<DistinctValue> values =
      CollectDistinctValues(column, codes, options);
  if (values.size() < 3) return out;

  const SinglePassResult found =
      SinglePassClosestPair(values, options.distance_cap);

  out.valid = true;
  out.mpd = std::min(found.best.dist, options.distance_cap + 1);
  out.row_a = values[found.best.i].first_row;
  out.row_b = values[found.best.j].first_row;
  out.value_a = std::string(values[found.best.i].value);
  out.value_b = std::string(values[found.best.j].value);
  out.avg_diff_token_length = AvgDifferingTokenLength(
      values[found.best.i].value, values[found.best.j].value);

  // Perturbation: drop whichever endpoint of the closest pair makes the
  // remaining column "cleanest" (largest perturbed MPD => smallest LR).
  const size_t mpd_i = std::min(found.excl_i, options.distance_cap + 1);
  const size_t mpd_j = std::min(found.excl_j, options.distance_cap + 1);
  if (mpd_i >= mpd_j) {
    out.mpd_perturbed = mpd_i;
    out.drop_row = out.row_a;
  } else {
    out.mpd_perturbed = mpd_j;
    out.drop_row = out.row_b;
  }
  return out;
}

FrProfile ComputeFrProfile(const Column& lhs, const Column& rhs) {
  return ComputeFrProfile(EncodeColumn(lhs), EncodeColumn(rhs));
}

FrProfile ComputeFrProfile(const ColumnCodes& lhs, const ColumnCodes& rhs,
                           std::span<const size_t> dropped_rows) {
  FrProfile out;
  const size_t n = std::min(lhs.size(), rhs.size());
  if (n == 0) return out;
  const std::vector<uint8_t> dropped = DropMask(n, dropped_rows);
  const auto used = [&](size_t row) {
    return lhs.codes[row] != 0 && rhs.codes[row] != 0 &&
           (dropped.empty() || dropped[row] == 0);
  };

  // Counting sort of the used rows by lhs code: group g occupies
  // rows[begin[g], begin[g + 1]), in ascending row order.
  std::vector<size_t> begin(lhs.distinct + size_t{2}, 0);
  size_t used_rows = 0;
  for (size_t row = 0; row < n; ++row) {
    if (!used(row)) continue;
    ++used_rows;
    ++begin[lhs.codes[row] + size_t{1}];
  }
  if (used_rows == 0) return out;

  // Degenerate candidates where an FD is trivially true or meaningless:
  // lhs (almost) all-distinct pairs carry no repeat evidence, and a
  // single-group lhs is a constant column.
  size_t num_groups = 0;
  for (size_t g = 1; g < begin.size(); ++g) {
    if (begin[g] != 0) ++num_groups;
    begin[g] += begin[g - 1];
  }
  if (num_groups <= 1) return out;

  std::vector<size_t> rows(used_rows);
  {
    std::vector<size_t> next(begin.begin(), begin.end() - 1);
    for (size_t row = 0; row < n; ++row) {
      if (used(row)) rows[next[lhs.codes[row]]++] = row;
    }
  }

  // Within each group, count rhs codes in a dense array; `seen` lists the
  // group's distinct rhs codes in first-occurrence order and is used to
  // reset the counts afterwards.
  std::vector<uint32_t> count(rhs.distinct + size_t{1}, 0);
  std::vector<uint32_t> seen;
  size_t distinct_pairs = 0;
  size_t conforming_pairs = 0;
  for (size_t g = 1; g + 1 < begin.size(); ++g) {
    const size_t group_begin = begin[g];
    const size_t group_end = begin[g + 1];
    if (group_begin == group_end) continue;
    seen.clear();
    for (size_t k = group_begin; k < group_end; ++k) {
      const uint32_t r = rhs.codes[rows[k]];
      if (count[r]++ == 0) seen.push_back(r);
    }
    distinct_pairs += seen.size();
    if (seen.size() == 1) {
      conforming_pairs += 1;
    } else {
      ++out.violating_groups;
      // Keep the majority rhs (ties: the one appearing first, which is
      // the earliest in `seen`); all rows of the minority rhs values
      // form the perturbation set.
      uint32_t best = seen.front();
      for (const uint32_t r : seen) {
        if (count[r] > count[best]) best = r;
      }
      for (size_t k = group_begin; k < group_end; ++k) {
        if (rhs.codes[rows[k]] != best) out.violating_rows.push_back(rows[k]);
      }
    }
    for (const uint32_t r : seen) count[r] = 0;
  }
  out.valid = true;
  out.fr = static_cast<double>(conforming_pairs) /
           static_cast<double>(distinct_pairs);
  // Dropping all minority rows leaves exactly one rhs per lhs group.
  out.fr_perturbed = 1.0;
  std::sort(out.violating_rows.begin(), out.violating_rows.end());
  return out;
}

}  // namespace unidetect
