// The serving front end's metrics surface: a fixed, enum-indexed
// counter array plus power-of-two latency histograms, exported as the
// Prometheus text of GET /metrics and by tools/udserve.
//
// The counter set follows the vcpkg metrics idiom: one enum whose last
// entry is COUNT, one constexpr entry array in exactly enum order, and
// a validation test (tests/server_metrics_test.cc) that fails the build
// when an entry is added to one side but not the other, duplicated, or
// reordered. Adding a counter is therefore a two-line change that the
// test suite cross-checks — no stringly-typed registry, no hashing on
// the hot path: a counter bump is one relaxed atomic add.
//
// Latency histograms share util/latency_histogram.h with
// DetectionService, so percentiles (p50/p99/p999) mean the same
// thing at every layer: upper bounds read off power-of-two bucket
// edges. There is no rate gauge: a scraper derives the request rate
// from `unidetect_requests_total`.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/latency_histogram.h"

namespace unidetect {

/// \brief Every counter the network front end maintains. COUNT must stay
/// the last entry (the entry-array size and the registry storage are
/// sized from it).
enum class ServerMetric : size_t {
  kConnectionsAccepted = 0,  ///< accept() successes.
  /// accepts shed: over the connection cap, out of fds, or refusing
  /// TCP_NODELAY.
  kConnectionsRejected,
  kConnectionsClosed,        ///< closes, both peer-initiated and ours.
  kBytesRead,                ///< bytes read off sockets.
  kBytesWritten,             ///< bytes flushed to sockets.
  kRequests,                 ///< well-formed detect requests (both protocols).
  kHttpRequests,             ///< well-formed HTTP requests (all routes).
  kProtocolErrors,           ///< malformed frames / HTTP -> typed error.
  /// Always 0: nothing is shed. udbench reads it; it retires with the
  /// benchmark's `coalescer.*` metric rename.
  kShedOverload,
  /// Always 0: nothing is shed. udbench reads it; it retires with the
  /// benchmark's `coalescer.*` metric rename.
  kShedConnectionCap,
  kExpiredDeadline,          ///< requests past their deadline at detection.
  kBatches,                  ///< DetectBatch calls (one per served request).
  kBatchedTables,            ///< tables scanned across all DetectBatch calls.
  /// Always 0: every request is its own DetectBatch call. udbench reads
  /// it; it retires with the benchmark's `coalescer.*` metric rename.
  kCoalescedRequests,
  kResponsesOk,              ///< responses carrying findings.
  kResponsesError,           ///< responses carrying a typed error.
  COUNT,
};

/// \brief One row of the metric table: the enum value and its wire name
/// (the /metrics series is `unidetect_<name>_total`).
struct ServerMetricEntry {
  ServerMetric metric;
  std::string_view name;
};

/// Entry table in exactly enum order; tests/server_metrics_test.cc
/// enforces order, completeness and name uniqueness (snippet-2 idiom).
inline constexpr std::array<ServerMetricEntry,
                            static_cast<size_t>(ServerMetric::COUNT)>
    kServerMetricEntries = {{
        {ServerMetric::kConnectionsAccepted, "connections_accepted"},
        {ServerMetric::kConnectionsRejected, "connections_rejected"},
        {ServerMetric::kConnectionsClosed, "connections_closed"},
        {ServerMetric::kBytesRead, "bytes_read"},
        {ServerMetric::kBytesWritten, "bytes_written"},
        {ServerMetric::kRequests, "requests"},
        {ServerMetric::kHttpRequests, "http_requests"},
        {ServerMetric::kProtocolErrors, "protocol_errors"},
        {ServerMetric::kShedOverload, "shed_overload"},
        {ServerMetric::kShedConnectionCap, "shed_connection_cap"},
        {ServerMetric::kExpiredDeadline, "expired_deadline"},
        {ServerMetric::kBatches, "batches"},
        {ServerMetric::kBatchedTables, "batched_tables"},
        {ServerMetric::kCoalescedRequests, "coalesced_requests"},
        {ServerMetric::kResponsesOk, "responses_ok"},
        {ServerMetric::kResponsesError, "responses_error"},
    }};

/// \brief Name of one metric (its /metrics series stem).
std::string_view ServerMetricName(ServerMetric metric);

/// \brief Lock-free concurrent latency histogram (power-of-two buckets,
/// relaxed atomics — counters, not synchronization).
class LatencyHistogram {
 public:
  void Observe(int64_t micros) {
    buckets_[LatencyBucketIndex(micros)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(static_cast<uint64_t>(micros < 0 ? 0 : micros),
                      std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Total of all observed samples in microseconds (the Prometheus
  /// `_sum` series).
  uint64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }

  /// \brief Plain-array copy for percentile math and export.
  LatencyBuckets Snapshot() const {
    LatencyBuckets out;
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::array<std::atomic<uint64_t>, kLatencyHistogramBuckets> buckets_ = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
};

/// \brief The registry: enum-indexed counters plus the request and
/// queue latency histograms. Every member is wait-free on the write
/// path; readers take relaxed snapshots (exact totals, approximate
/// cross-counter skew — the /metrics contract is per-counter
/// monotonicity, not a global cut).
class MetricsRegistry {
 public:
  void Add(ServerMetric metric, uint64_t delta = 1) {
    counters_[static_cast<size_t>(metric)].fetch_add(
        delta, std::memory_order_relaxed);
  }
  uint64_t Count(ServerMetric metric) const {
    return counters_[static_cast<size_t>(metric)].load(
        std::memory_order_relaxed);
  }

  /// Server-side request latency: the read that delivered the request
  /// -> its findings are ready to encode.
  LatencyHistogram& request_latency() { return request_latency_; }
  const LatencyHistogram& request_latency() const { return request_latency_; }
  /// Wait before detection: the read that delivered the request -> the
  /// start of its DetectBatch call (time spent behind earlier requests
  /// decoded from the same read).
  LatencyHistogram& queue_latency() { return queue_latency_; }
  const LatencyHistogram& queue_latency() const { return queue_latency_; }

 private:
  std::array<std::atomic<uint64_t>, static_cast<size_t>(ServerMetric::COUNT)>
      counters_ = {};
  LatencyHistogram request_latency_;
  LatencyHistogram queue_latency_;
};

/// \brief Appends one Prometheus text-format metric line:
/// `name{labels} value\n` (labels may be empty: `name value\n`).
void AppendPrometheusLine(std::string_view name, std::string_view labels,
                          uint64_t value, std::string* out);

/// \brief Appends a full Prometheus histogram exposition for `histogram`
/// under `name`: a `# TYPE name histogram` header, cumulative
/// `name_bucket{le="..."}` lines over the power-of-two edges (collapsed
/// to the occupied prefix plus `+Inf`), and `name_sum` / `name_count`.
void AppendPrometheusHistogram(std::string_view name,
                               const LatencyHistogram& histogram,
                               std::string* out);

}  // namespace unidetect
