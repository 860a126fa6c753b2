#include "server/coalescer.h"

#include <utility>
#include <vector>

namespace unidetect {

namespace {

wire::DetectResponse MakeError(uint64_t request_id, wire::WireCode code,
                               std::string message) {
  wire::DetectResponse response;
  response.request_id = request_id;
  response.code = code;
  response.error = std::move(message);
  return response;
}

}  // namespace

RequestCoalescer::RequestCoalescer(DetectionService* service,
                                   MetricsRegistry* metrics,
                                   CoalescerOptions options)
    : service_(service), metrics_(metrics), options_(options) {}

RequestCoalescer::~RequestCoalescer() { Stop(/*drain=*/true); }

void RequestCoalescer::Start() {
  worker_ = std::thread([this] { WorkerLoop(); });
}

RequestCoalescer::Admission RequestCoalescer::Submit(
    wire::DetectRequest request, ResponseCallback done) {
  const auto now = std::chrono::steady_clock::now();
  Pending pending;
  pending.options_key = wire::RequestOptionsKey(request.options);
  pending.admitted_at = now;
  pending.deadline = request.deadline_ms == 0
                         ? std::chrono::steady_clock::time_point::max()
                         : now + std::chrono::milliseconds(request.deadline_ms);
  const uint64_t request_id = request.request_id;
  pending.request = std::move(request);
  pending.done = std::move(done);

  Admission admission = Admission::kAdmitted;
  {
    MutexLock lock(&mu_);
    if (draining_) {
      metrics_->Add(ServerMetric::kShedDraining);
      admission = Admission::kDraining;
    } else if (queue_.size() >= options_.queue_capacity) {
      metrics_->Add(ServerMetric::kShedOverload);
      admission = Admission::kOverloaded;
    } else {
      queue_.push_back(std::move(pending));
      metrics_->set_queue_depth(queue_.size());
    }
  }
  // Refusal callbacks fire after mu_ is released so a callback that
  // re-enters the coalescer (Submit, queue_depth) cannot self-deadlock.
  if (admission == Admission::kDraining) {
    pending.done(MakeError(request_id, wire::WireCode::kUnavailable,
                           "server is draining"));
    return admission;
  }
  if (admission == Admission::kOverloaded) {
    pending.done(MakeError(request_id, wire::WireCode::kOverloaded,
                           "admission queue full"));
    return admission;
  }
  metrics_->Add(ServerMetric::kAdmitted);
  cv_.NotifyOne();
  return Admission::kAdmitted;
}

void RequestCoalescer::Stop(bool drain) {
  {
    MutexLock lock(&mu_);
    if (stop_ && draining_) {
      // Already stopping; keep the stronger (draining) semantics that
      // were requested first.
    } else {
      draining_ = true;
      stop_ = true;
      drain_on_stop_ = drain;
    }
  }
  cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();

  // Fail anything the worker left behind (drain=false path).
  std::deque<Pending> leftover;
  {
    MutexLock lock(&mu_);
    leftover.swap(queue_);
    metrics_->set_queue_depth(0);
  }
  for (Pending& pending : leftover) {
    metrics_->Add(ServerMetric::kShedDraining);
    pending.done(MakeError(pending.request.request_id,
                           wire::WireCode::kUnavailable,
                           "server shut down before serving this request"));
  }
}

size_t RequestCoalescer::queue_depth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

void RequestCoalescer::WorkerLoop() {
  for (;;) {
    std::vector<Pending> group;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !stop_) cv_.Wait(mu_);
      if (queue_.empty()) break;  // stop_ with nothing left
      if (stop_ && !drain_on_stop_) break;  // Stop() fails the leftovers

      // Pick up the head, then gather the contiguous run that shares
      // its options key, up to the table budget.
      group.push_back(std::move(queue_.front()));
      queue_.pop_front();
      size_t batch_tables = group.front().request.tables.size();
      // Copy, not reference: group.push_back below can reallocate the
      // vector and move its front, which would dangle a reference here.
      const std::string key = group.front().options_key;
      const bool coalesce =
          options_.coalesce && options_.max_batch_delay.count() > 0;
      auto cutoff =
          std::chrono::steady_clock::now() + options_.max_batch_delay;
      while (coalesce && batch_tables < options_.max_batch_tables) {
        if (queue_.empty()) {
          if (stop_) break;
          const auto now = std::chrono::steady_clock::now();
          if (now >= cutoff) break;
          cv_.WaitUntil(mu_, cutoff);
          continue;
        }
        Pending& head = queue_.front();
        if (head.options_key != key) break;
        if (batch_tables + head.request.tables.size() >
            options_.max_batch_tables) {
          break;
        }
        batch_tables += head.request.tables.size();
        group.push_back(std::move(head));
        queue_.pop_front();
      }
      metrics_->set_queue_depth(queue_.size());
    }
    ServeGroup(std::move(group));
  }
}

void RequestCoalescer::ServeGroup(std::vector<Pending> group) {
  const auto dequeued_at = std::chrono::steady_clock::now();

  // Deadline enforcement happens here — at dequeue — so an expired
  // request never spends detector time. Expired members fall out of the
  // batch; survivors proceed.
  std::vector<Pending> live;
  live.reserve(group.size());
  for (Pending& pending : group) {
    metrics_->queue_latency().Observe(
        std::chrono::duration_cast<std::chrono::microseconds>(
            dequeued_at - pending.admitted_at)
            .count());
    if (dequeued_at > pending.deadline) {
      metrics_->Add(ServerMetric::kExpiredDeadline);
      metrics_->Add(ServerMetric::kResponsesError);
      pending.done(MakeError(pending.request.request_id,
                             wire::WireCode::kDeadlineExceeded,
                             "deadline passed before the batch was cut"));
      continue;
    }
    live.push_back(std::move(pending));
  }
  if (live.empty()) return;

  // One flat table span; every member shares the options key, so the
  // first member's override serves the whole batch.
  std::vector<Table> tables;
  for (const Pending& pending : live) {
    for (const Table& table : pending.request.tables) {
      tables.push_back(table);
    }
  }
  const UniDetectOptions* override_options = nullptr;
  UniDetectOptions merged;
  if (live.front().request.options.has_override) {
    merged = wire::ApplyRequestOptions(options_.base_options,
                                       live.front().request.options);
    override_options = &merged;
  }

  metrics_->Add(ServerMetric::kBatches);
  metrics_->Add(ServerMetric::kBatchedTables, tables.size());
  if (live.size() > 1) {
    metrics_->Add(ServerMetric::kCoalescedRequests, live.size());
  }

  DetectionService::BatchResult result = service_->DetectBatch(
      tables, override_options, options_.detect_threads);

  // Slice per-table findings back out in request order.
  const auto finished_at = std::chrono::steady_clock::now();
  size_t next_table = 0;
  for (Pending& pending : live) {
    wire::DetectResponse response;
    response.request_id = pending.request.request_id;
    response.code = wire::WireCode::kOk;
    response.generation = result.generation;
    const size_t count = pending.request.tables.size();
    response.per_table.reserve(count);
    // Per-slot findings carry table_index exactly as DetectTable
    // produced them (DetectBatch does not rebase slots), so slicing
    // yields responses byte-identical to a direct per-request call.
    for (size_t i = 0; i < count; ++i) {
      response.per_table.push_back(std::move(result.per_table[next_table++]));
    }
    metrics_->Add(ServerMetric::kResponsesOk);
    metrics_->request_latency().Observe(
        std::chrono::duration_cast<std::chrono::microseconds>(
            finished_at - pending.admitted_at)
            .count());
    pending.done(std::move(response));
  }
}

}  // namespace unidetect
