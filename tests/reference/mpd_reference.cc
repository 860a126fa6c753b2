#include "reference/mpd_reference.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace unidetect {

namespace {

struct DistinctValue {
  std::string_view value;
  size_t first_row;
};

std::vector<DistinctValue> CollectDistinctValues(const Column& column,
                                                 const MpdOptions& options) {
  std::vector<DistinctValue> values;
  std::unordered_map<std::string_view, size_t> seen;
  for (size_t row = 0; row < column.size(); ++row) {
    std::string_view cell = Trim(column.cell(row));
    if (cell.empty()) continue;
    if (seen.emplace(cell, row).second) {
      values.push_back({cell, row});
      if (values.size() >= options.max_values) break;
    }
  }
  return values;
}

// Closest pair among `values`, optionally excluding one index.
struct ClosestPair {
  size_t dist = std::numeric_limits<size_t>::max();
  size_t i = 0;
  size_t j = 0;
};

ClosestPair FindClosestPair(const std::vector<DistinctValue>& values,
                            size_t cap, size_t exclude) {
  ClosestPair best;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i == exclude) continue;
    for (size_t j = i + 1; j < values.size(); ++j) {
      if (j == exclude) continue;
      const size_t bound = best.dist == std::numeric_limits<size_t>::max()
                               ? cap
                               : std::min(cap, best.dist);
      const size_t d =
          ReferenceBoundedEditDistance(values[i].value, values[j].value, bound);
      if (d < best.dist) {
        best.dist = d;
        best.i = i;
        best.j = j;
        if (d == 1) return best;  // cannot do better for distinct values
      }
    }
  }
  return best;
}

}  // namespace

size_t ReferenceBoundedEditDistance(std::string_view a, std::string_view b,
                                    size_t bound) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (m - n > bound) return bound + 1;
  if (n == 0) return m;

  const size_t kInf = bound + 1;
  std::vector<size_t> row(n + 1, kInf);
  std::vector<size_t> next(n + 1, kInf);
  for (size_t i = 0; i <= std::min(n, bound); ++i) row[i] = i;

  for (size_t j = 1; j <= m; ++j) {
    std::fill(next.begin(), next.end(), kInf);
    const size_t lo = j > bound ? j - bound : 0;
    const size_t hi = std::min(n, j + bound);
    if (lo == 0) next[0] = j <= bound ? j : kInf;
    size_t row_min = next[0];
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

MpdProfile ComputeMpdProfileReference(const Column& column,
                                      const MpdOptions& options) {
  MpdProfile out;
  if (!IsMpdEligible(column)) return out;

  const std::vector<DistinctValue> values =
      CollectDistinctValues(column, options);
  if (values.size() < 3) return out;

  const size_t no_exclude = std::numeric_limits<size_t>::max();
  const ClosestPair closest =
      FindClosestPair(values, options.distance_cap, no_exclude);
  if (closest.dist == std::numeric_limits<size_t>::max()) return out;

  out.valid = true;
  out.mpd = std::min(closest.dist, options.distance_cap + 1);
  out.row_a = values[closest.i].first_row;
  out.row_b = values[closest.j].first_row;
  out.value_a = std::string(values[closest.i].value);
  out.value_b = std::string(values[closest.j].value);
  out.avg_diff_token_length =
      AvgDifferingTokenLength(values[closest.i].value, values[closest.j].value);

  const ClosestPair without_i =
      FindClosestPair(values, options.distance_cap, closest.i);
  const ClosestPair without_j =
      FindClosestPair(values, options.distance_cap, closest.j);
  const size_t mpd_i = std::min(without_i.dist, options.distance_cap + 1);
  const size_t mpd_j = std::min(without_j.dist, options.distance_cap + 1);
  if (mpd_i >= mpd_j) {
    out.mpd_perturbed = mpd_i;
    out.drop_row = out.row_a;
  } else {
    out.mpd_perturbed = mpd_j;
    out.drop_row = out.row_b;
  }
  return out;
}

std::string MpdProfileDiff(const MpdProfile& a, const MpdProfile& b) {
  const auto field = [](const char* name, const auto& x, const auto& y) {
    return StrCat(name, ": ", x, " vs ", y);
  };
  if (a.valid != b.valid) return field("valid", a.valid, b.valid);
  if (!a.valid) return "";
  if (a.mpd != b.mpd) return field("mpd", a.mpd, b.mpd);
  if (a.row_a != b.row_a) return field("row_a", a.row_a, b.row_a);
  if (a.row_b != b.row_b) return field("row_b", a.row_b, b.row_b);
  if (a.value_a != b.value_a) return field("value_a", a.value_a, b.value_a);
  if (a.value_b != b.value_b) return field("value_b", a.value_b, b.value_b);
  if (a.mpd_perturbed != b.mpd_perturbed) {
    return field("mpd_perturbed", a.mpd_perturbed, b.mpd_perturbed);
  }
  if (a.drop_row != b.drop_row) {
    return field("drop_row", a.drop_row, b.drop_row);
  }
  if (a.avg_diff_token_length != b.avg_diff_token_length) {
    return field("avg_diff_token_length", a.avg_diff_token_length,
                 b.avg_diff_token_length);
  }
  return "";
}

}  // namespace unidetect
