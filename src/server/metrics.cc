#include "server/metrics.h"

#include "util/string_util.h"

namespace unidetect {

std::string_view ServerMetricName(ServerMetric metric) {
  return kServerMetricEntries[static_cast<size_t>(metric)].name;
}

void AppendPrometheusLine(std::string_view name, std::string_view labels,
                          uint64_t value, std::string* out) {
  out->append(name);
  if (!labels.empty()) {
    out->push_back('{');
    out->append(labels);
    out->push_back('}');
  }
  StrAppend(out, " ", value, "\n");
}

void AppendPrometheusHistogram(std::string_view name,
                               const LatencyHistogram& histogram,
                               std::string* out) {
  StrAppend(out, "# TYPE ", name, " histogram\n");
  // Derive the count from the bucket snapshot (not the counter) so the
  // cumulative series is internally consistent under concurrent
  // Observe(): `_count` must equal the `+Inf` bucket exactly.
  const LatencyBuckets buckets = histogram.Snapshot();
  uint64_t count = 0;
  size_t highest_occupied = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    count += buckets[i];
    if (buckets[i] != 0) highest_occupied = i;
  }
  // Emit the occupied prefix only: every edge up to the highest bucket
  // with samples, then +Inf. An empty histogram still gets +Inf so
  // scrapers see a well-formed series.
  uint64_t cumulative = 0;
  for (size_t i = 0; i <= highest_occupied && count != 0; ++i) {
    cumulative += buckets[i];
    StrAppend(out, name, "_bucket{le=\"", uint64_t{1} << i, "\"} ", cumulative,
              "\n");
  }
  StrAppend(out, name, "_bucket{le=\"+Inf\"} ", count, "\n");
  StrAppend(out, name, "_sum ", histogram.sum_us(), "\n");
  StrAppend(out, name, "_count ", count, "\n");
}

}  // namespace unidetect
