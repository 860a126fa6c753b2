// The metric tables of the benchmark: every name it prints, with unit and
// direction. BENCHMARK.json at the repository root lists the same names;
// tests/udbench_test.cc fails when the two drift apart.

#pragma once

#include <array>
#include <string_view>

namespace udbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  ///< "lower" or "higher"
};

/// Printed by every untraced run (--trace 0), on every workload.
inline constexpr std::array<MetricDef, 7> kEndToEndMetrics = {{
    {"setup_s", "s", "lower"},
    {"p50_ms", "ms", "lower"},
    {"max_rate_rps", "req/s", "higher"},
    {"tables_per_s", "tables/s", "higher"},
    {"precision_at_k", "ratio", "higher"},
    {"publish_p50_ms", "ms", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
}};

/// Printed by every traced run (--trace 1), on every workload.
inline constexpr std::array<MetricDef, 51> kPerLayerMetrics = {{
    {"client.p99_ms", "ms", "lower"},
    {"server.overhead_p50_us", "us", "lower"},
    {"server.bytes_per_request", "bytes", "lower"},
    {"client.send_lag_p99_ms", "ms", "lower"},
    {"wire.encode_request_us", "us", "lower"},
    {"wire.decode_request_us", "us", "lower"},
    {"wire.encode_response_us", "us", "lower"},
    {"wire.decode_response_us", "us", "lower"},
    {"coalescer.queue_wait_p50_us", "us", "lower"},
    {"coalescer.queue_wait_p99_us", "us", "lower"},
    {"coalescer.tables_per_batch", "tables", "higher"},
    {"coalescer.coalesced_share", "ratio", "higher"},
    {"coalescer.worker_busy_share", "ratio", "lower"},
    {"coalescer.shed", "count", "lower"},
    {"serving.detect_batch_us", "us", "lower"},
    {"serving.fingerprint_us", "us", "lower"},
    {"serving.publish_us", "us", "lower"},
    {"serving.delta_layers_mean", "layers", "lower"},
    {"findings_cache.hit_rate", "ratio", "higher"},
    {"findings_cache.evictions", "count", "lower"},
    {"findings_cache.repeat_share", "ratio", "higher"},
    {"detect.table_us", "us", "lower"},
    {"detect.self_us", "us", "lower"},
    {"detect.findings_per_table", "count", "higher"},
    {"candidates.outlier_us", "us", "lower"},
    {"candidates.spelling_us", "us", "lower"},
    {"candidates.uniqueness_us", "us", "lower"},
    {"candidates.fd_us", "us", "lower"},
    {"candidates.fd_pairs_per_table", "count", "lower"},
    {"candidates.fd_yield", "ratio", "higher"},
    {"metrics.fr_us", "us", "lower"},
    {"metrics.mpd_us", "us", "lower"},
    {"metrics.ur_us", "us", "lower"},
    {"model_stack.lr_us_d0", "us", "lower"},
    {"model_stack.lr_us_d2", "us", "lower"},
    {"model_stack.lr_us_d4", "us", "lower"},
    {"model_stack.lr_calls_per_table", "count", "lower"},
    {"compactor.compact_ms", "ms", "lower"},
    {"compactor.compactions", "count", "lower"},
    {"model_format.open_us", "us", "lower"},
    {"model_format.open_delta_us", "us", "lower"},
    {"thread_pool.busy_share", "ratio", "higher"},
    {"setup.generate_s", "s", "lower"},
    {"setup.train_s", "s", "lower"},
    {"setup.save_s", "s", "lower"},
    {"setup.delta_build_s", "s", "lower"},
    {"setup.server_start_ms", "ms", "lower"},
    {"trace.overhead_pct", "%", "lower"},
    {"trace.spans", "count", "lower"},
    {"trace.detect_coverage", "ratio", "higher"},
    {"trace.untraced_p50_ms", "ms", "lower"},
}};

}  // namespace udbench
