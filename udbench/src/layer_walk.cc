#include "layer_walk.h"

#include <map>
#include <memory>

#include "bench_stats.h"
#include "corpus/corpus.h"
#include "detect/unidetect.h"
#include "learn/candidates.h"
#include "learn/model_stack.h"
#include "metrics/metric_functions.h"
#include "model_format/model_view.h"
#include "server/wire.h"
#include "serving/findings_cache.h"
#include "setup.h"

namespace udbench {

using unidetect::ErrorClass;
using unidetect::ModelStack;
using unidetect::Table;

namespace {

// Times `fn` as a span named `name` under `parent`.
template <typename Fn>
void Timed(Tracer* tracer, const char* name, int64_t parent, uint64_t id,
           Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  tracer->Record(name, start, Clock::now(), parent, id);
}

}  // namespace

bool LayerWalk(const WalkInputs& inputs, Tracer* tracer, Report* report,
               std::string* error) {
  std::vector<std::shared_ptr<const unidetect::Model>> layers;
  for (const std::string& path : inputs.chain) {
    auto view = unidetect::ModelView::Open(path);
    if (!view.ok()) {
      *error = view.status().ToString();
      return false;
    }
    layers.push_back(view->shared_model());
  }
  auto stack_of = [&](size_t depth) {
    return std::make_shared<const ModelStack>(
        std::vector<std::shared_ptr<const unidetect::Model>>(
            layers.begin(), layers.begin() + 1 + depth));
  };
  const std::shared_ptr<const ModelStack> stacks[3] = {
      stack_of(0), stack_of(kChainDepth / 2), stack_of(kChainDepth)};
  const size_t served_index = inputs.served_depth == 0 ? 0
                              : inputs.served_depth == kChainDepth ? 2
                                                                   : 1;
  const ModelStack& served = *stacks[served_index];
  const unidetect::UniDetectOptions options = ServeOptions();
  const unidetect::UniDetect detector(stacks[served_index], options);
  const unidetect::ModelOptions& model_options = served.options();

  // Findings counts; every timing comes from the tracer's spans.
  uint64_t findings_total = 0, fd_findings = 0;
  // One LR call on the served stack (a traced child of the
  // decomposition) and, outside it, the same call at depths 0, 2 and 4.
  struct LrCall {
    ErrorClass cls;
    unidetect::FeatureKey key;
    double t1, t2;
  };
  std::vector<LrCall> lr_calls;
  auto lr = [&](int64_t parent, uint64_t id, ErrorClass cls,
                const unidetect::FeatureKey& key, double t1, double t2) {
    Timed(tracer, "model_stack.lr", parent, id,
          [&] { KeepAlive(served.LikelihoodRatio(cls, key, t1, t2)); });
    lr_calls.push_back({cls, key, t1, t2});
  };
  const char* const lr_at_depth[3] = {"model_stack.lr_d0", "model_stack.lr_d2",
                                      "model_stack.lr_d4"};

  for (size_t t = 0; t < inputs.tables.size(); ++t) {
    const Table& table = *inputs.tables[t];
    const uint64_t id = t;
    const int64_t root = tracer->Open("walk.table", Clock::now(), -1, id);

    std::vector<unidetect::Finding> findings;
    Timed(tracer, "detect.table", root, id,
          [&] { findings = detector.DetectTable(table); });
    findings_total += findings.size();
    for (const auto& f : findings) {
      if (f.error_class == ErrorClass::kFd) ++fd_findings;
    }

    // The four detectors' candidate and LR calls, in their order.
    const int64_t dec = tracer->Open("detect.decomposed", Clock::now(), root, id);
    const size_t cols = table.num_columns();
    for (size_t c = 0; c < cols; ++c) {
      unidetect::OutlierCandidate cand;
      Timed(tracer, "candidates.outlier", dec, id, [&] {
        cand = unidetect::ExtractOutlierCandidate(table.column(c),
                                                  model_options);
      });
      if (cand.valid && cand.theta1 >= 3.0) {
        lr(dec, id, ErrorClass::kOutlier, cand.key, cand.theta1, cand.theta2);
      }
    }
    for (size_t c = 0; c < cols; ++c) {
      unidetect::SpellingCandidate cand;
      Timed(tracer, "candidates.spelling", dec, id, [&] {
        cand = unidetect::ExtractSpellingCandidate(table.column(c),
                                                   model_options);
      });
      if (cand.valid) {
        lr(dec, id, ErrorClass::kSpelling, cand.key, cand.theta1, cand.theta2);
      }
    }
    for (size_t c = 0; c < cols; ++c) {
      unidetect::UniquenessCandidate cand;
      Timed(tracer, "candidates.uniqueness", dec, id, [&] {
        cand = unidetect::ExtractUniquenessCandidate(
            table.column(c), c, served.token_prevalence(), model_options);
      });
      if (cand.valid && !cand.dropped_rows.empty() && cand.theta2 >= 1.0) {
        lr(dec, id, ErrorClass::kUniqueness, cand.key, cand.theta1,
           cand.theta2);
      }
    }
    std::vector<std::pair<size_t, size_t>> fd_pairs;
    for (size_t l = 0;
         l < cols && fd_pairs.size() < options.max_fd_pairs_per_table; ++l) {
      for (size_t r = 0; r < cols; ++r) {
        if (l == r) continue;
        if (fd_pairs.size() >= options.max_fd_pairs_per_table) break;
        fd_pairs.emplace_back(l, r);
        unidetect::FdCandidate cand;
        Timed(tracer, "candidates.fd", dec, id, [&] {
          cand = unidetect::ExtractFdCandidate(table.column(l),
                                               table.column(r),
                                               served.token_prevalence(),
                                               model_options);
        });
        if (cand.valid && !cand.dropped_rows.empty() && cand.theta2 >= 1.0) {
          lr(dec, id, ErrorClass::kFd, cand.key, cand.theta1, cand.theta2);
        }
      }
    }
    tracer->Close(dec, Clock::now());
    for (const LrCall& call : lr_calls) {
      for (int d = 0; d < 3; ++d) {
        Timed(tracer, lr_at_depth[d], root, id, [&] {
          KeepAlive(stacks[d]->LikelihoodRatio(call.cls, call.key, call.t1,
                                               call.t2));
        });
      }
    }
    lr_calls.clear();

    // Metric kernels, per call on the same columns.
    for (size_t c = 0; c < cols; ++c) {
      Timed(tracer, "metrics.ur", root, id, [&] {
        KeepAlive(unidetect::ComputeUrProfile(table.column(c)));
      });
      Timed(tracer, "metrics.mpd", root, id, [&] {
        KeepAlive(
            unidetect::ComputeMpdProfile(table.column(c), model_options.mpd));
      });
    }
    for (const auto& [l, r] : fd_pairs) {
      Timed(tracer, "metrics.fr", root, id, [&] {
        KeepAlive(unidetect::ComputeFrProfile(table.column(l), table.column(r)));
      });
    }

    Timed(tracer, "serving.fingerprint", root, id, [&] {
      KeepAlive(unidetect::FingerprintTable(table, 1, options));
    });

    // The UDWIRE codec on a one-table request and its response.
    unidetect::wire::DetectRequest request;
    request.request_id = id;
    request.tables = {table};
    std::string frame;
    Timed(tracer, "wire.encode_request", root, id, [&] {
      frame = unidetect::wire::EncodeDetectRequest(request);
    });
    Timed(tracer, "wire.decode_request", root, id, [&] {
      auto view = unidetect::wire::TryParseFrame(
          frame, unidetect::wire::kAbsoluteMaxPayload);
      KeepAlive(view.ok() && view->has_value() &&
                unidetect::wire::DecodeDetectRequestPayload((*view)->payload)
                    .ok());
    });
    Timed(tracer, "wire.encode_response", root, id, [&] {
      frame = unidetect::wire::EncodeOkResponseFrame(id, 1, {findings});
    });
    Timed(tracer, "wire.decode_response", root, id, [&] {
      auto view = unidetect::wire::TryParseFrame(
          frame, unidetect::wire::kAbsoluteMaxPayload);
      KeepAlive(view.ok() && view->has_value() &&
                unidetect::wire::DecodeDetectResponsePayload((*view)->payload)
                    .ok());
    });
    tracer->Close(root, Clock::now());
  }

  // The util thread pool: DetectCorpus over the sample at the workload's
  // thread count, against the single-thread time of the same tables.
  unidetect::Corpus corpus;
  for (const Table* table : inputs.tables) corpus.tables.push_back(*table);
  Timed(tracer, "thread_pool.detect_corpus", -1, 0, [&] {
    KeepAlive(detector.DetectCorpus(corpus, inputs.threads));
  });

  // Per-layer figures from the span totals: per table (n), or per call
  // (the span count of the same name).
  const std::map<std::string, SpanTotals> totals = tracer->Totals();
  auto total = [&](const char* name) -> SpanTotals {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  auto per = [](double value, double count) {
    return count > 0 ? value / count : 0.0;
  };
  auto per_call = [&](const char* name) {
    const SpanTotals t = total(name);
    return per(t.total_us, static_cast<double>(t.count));
  };
  const double n = static_cast<double>(inputs.tables.size());
  const double detect_us = total("detect.table").total_us;
  const SpanTotals decomposed = total("detect.decomposed");
  const double children_us = decomposed.total_us - decomposed.self_us;
  const double lr_count = static_cast<double>(total("model_stack.lr").count);
  const double fd_count = static_cast<double>(total("candidates.fd").count);
  report->Set("detect.table_us", detect_us / n);
  report->Set("detect.self_us", (detect_us - children_us) / n);
  report->Set("trace.detect_coverage", per(children_us, detect_us));
  report->Set("detect.findings_per_table",
              static_cast<double>(findings_total) / n);
  report->Set("candidates.outlier_us", total("candidates.outlier").total_us / n);
  report->Set("candidates.spelling_us",
              total("candidates.spelling").total_us / n);
  report->Set("candidates.uniqueness_us",
              total("candidates.uniqueness").total_us / n);
  report->Set("candidates.fd_us", total("candidates.fd").total_us / n);
  report->Set("candidates.fd_pairs_per_table", fd_count / n);
  report->Set("candidates.fd_yield",
              per(static_cast<double>(fd_findings), fd_count));
  report->Set("metrics.fr_us", per_call("metrics.fr"));
  report->Set("metrics.mpd_us", per_call("metrics.mpd"));
  report->Set("metrics.ur_us", per_call("metrics.ur"));
  report->Set("model_stack.lr_us_d0", per_call(lr_at_depth[0]));
  report->Set("model_stack.lr_us_d2", per_call(lr_at_depth[1]));
  report->Set("model_stack.lr_us_d4", per_call(lr_at_depth[2]));
  report->Set("model_stack.lr_calls_per_table", lr_count / n);
  report->Set("serving.fingerprint_us",
              total("serving.fingerprint").total_us / n);
  report->Set("wire.encode_request_us",
              total("wire.encode_request").total_us / n);
  report->Set("wire.decode_request_us",
              total("wire.decode_request").total_us / n);
  report->Set("wire.encode_response_us",
              total("wire.encode_response").total_us / n);
  report->Set("wire.decode_response_us",
              total("wire.decode_response").total_us / n);
  report->Set("thread_pool.busy_share",
              per(detect_us, static_cast<double>(inputs.threads) *
                                 total("thread_pool.detect_corpus").total_us));
  return true;
}

}  // namespace udbench
