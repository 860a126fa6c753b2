// Loopback integration tests for the network front end (DESIGN.md §16):
// a real DetectionServer on an ephemeral 127.0.0.1 port, driven through
// UdwireClient and the HTTP helper. Pins the subsystem's contracts:
//
//   * a served UDWIRE response is byte-identical to a direct in-process
//     DetectBatch over the same tables — including when the coalescer
//     merged the request into a larger batch;
//   * overload and deadline outcomes are typed responses the client
//     reads (kOverloaded / kDeadlineExceeded), never silent drops —
//     every admitted-or-refused request completes its callback exactly
//     once;
//   * Reload/ApplyDelta churn under client load produces zero failed or
//     torn responses (the engine-snapshot pinning contract, end to end);
//   * hostile bytes at a live socket produce a typed kMalformed frame,
//     not a crash; the connection cap rejects typed-ly; Stop() is
//     graceful and idempotent.

#include "server/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "learn/trainer.h"
#include "offline/delta_build.h"
#include "server/client.h"
#include "server/coalescer.h"
#include "server/wire.h"
#include "serving/detection_service.h"
#include "util/logging.h"

namespace unidetect {
namespace {

// One on-disk base + delta shared by the whole suite, built through the
// real trainer and delta builder (per-process directory: ctest runs
// cases as concurrent processes).
struct Artifacts {
  std::string base_path;
  std::string delta_path;
};

const Artifacts& SharedArtifacts() {
  static const Artifacts* artifacts = [] {
    SetLogLevel(LogLevel::kWarning);
    auto* a = new Artifacts();
    const std::string dir = testing::TempDir() + "/server_integration." +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    a->base_path = dir + "/base.udsnap";
    a->delta_path = dir + "/delta.udsnap";

    Trainer trainer;
    const Model base =
        trainer.Train(GenerateCorpus(WebCorpusSpec(200, 9101)).corpus);
    UNIDETECT_CHECK(base.Save(a->base_path).ok());

    const std::string shard = dir + "/shard";
    UNIDETECT_CHECK(
        SaveCorpusToDirectory(GenerateCorpus(WebCorpusSpec(40, 9102)).corpus,
                              shard)
            .ok());
    DeltaBuildSpec spec;
    spec.base_path = a->base_path;
    spec.input_dirs = {shard};
    spec.out_path = a->delta_path;
    UNIDETECT_CHECK(BuildDeltaSnapshot(spec).ok());
    return a;
  }();
  return *artifacts;
}

UniDetectOptions LooseOptions() {
  UniDetectOptions options;
  options.alpha = 1.0;
  return options;
}

std::unique_ptr<DetectionService> MakeService() {
  auto service =
      DetectionService::Create(SharedArtifacts().base_path, LooseOptions());
  UNIDETECT_CHECK(service.ok());
  return std::move(service).ValueOrDie();
}

std::vector<Table> RequestTables(size_t n, uint64_t seed) {
  return GenerateCorpus(WebCorpusSpec(n, seed)).corpus.tables;
}

std::string PerTableJson(const std::vector<std::vector<Finding>>& per_table) {
  std::string out;
  for (const auto& findings : per_table) {
    out += FindingsToJson(findings);
    out += '\n';
  }
  return out;
}

// Polls until `done` returns true or ~10s pass; returns whether it did.
bool WaitFor(const std::function<bool()>& done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ServerIntegrationTest, UdwireLoopbackMatchesDirectBatch) {
  auto service = MakeService();
  ServerOptions options;
  options.coalescer.base_options = LooseOptions();
  DetectionServer server(service.get(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = UdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  for (uint64_t i = 0; i < 3; ++i) {
    wire::DetectRequest request;
    request.request_id = 100 + i;
    request.tables = RequestTables(2, 9200 + i);
    auto response = client->Detect(request);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->request_id, request.request_id);
    ASSERT_EQ(response->code, wire::WireCode::kOk) << response->error;
    EXPECT_EQ(response->generation, 1u);
    ASSERT_EQ(response->per_table.size(), request.tables.size());

    const auto direct = service->DetectBatch(request.tables);
    EXPECT_EQ(PerTableJson(response->per_table),
              PerTableJson(direct.per_table))
        << "served response must be byte-identical to the direct call";
  }
  server.Stop();
  EXPECT_EQ(server.metrics().Count(ServerMetric::kRequests), 3u);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesOk), 3u);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesError), 0u);
}

// Deterministic coalescing: queue three requests before the worker
// starts, then let it cut one batch. The sliced responses must still be
// byte-identical to per-request direct calls (table_index rebasing).
TEST(ServerIntegrationTest, CoalescedResponsesAreByteIdenticalToDirectCalls) {
  auto service = MakeService();
  MetricsRegistry metrics;
  CoalescerOptions options;
  options.base_options = LooseOptions();
  options.max_batch_delay = std::chrono::microseconds(500);
  RequestCoalescer coalescer(service.get(), &metrics, options);

  Mutex mu;
  std::vector<wire::DetectResponse> responses;
  std::vector<std::vector<Table>> request_tables;
  for (uint64_t i = 0; i < 3; ++i) {
    request_tables.push_back(RequestTables(2, 9300 + i));
  }
  for (uint64_t i = 0; i < 3; ++i) {
    wire::DetectRequest request;
    request.request_id = i;
    request.tables = request_tables[i];
    const auto admission = coalescer.Submit(
        std::move(request), [&mu, &responses](wire::DetectResponse response) {
          MutexLock lock(&mu);
          responses.push_back(std::move(response));
        });
    ASSERT_EQ(admission, RequestCoalescer::Admission::kAdmitted);
  }

  coalescer.Start();
  ASSERT_TRUE(WaitFor([&] {
    MutexLock lock(&mu);
    return responses.size() == 3;
  }));
  coalescer.Stop(/*drain=*/true);

  // All three shared one DetectBatch call.
  EXPECT_EQ(metrics.Count(ServerMetric::kBatches), 1u);
  EXPECT_EQ(metrics.Count(ServerMetric::kCoalescedRequests), 3u);
  EXPECT_EQ(metrics.Count(ServerMetric::kBatchedTables), 6u);
  EXPECT_EQ(metrics.Count(ServerMetric::kResponsesOk), 3u);

  MutexLock lock(&mu);
  for (const wire::DetectResponse& response : responses) {
    ASSERT_EQ(response.code, wire::WireCode::kOk) << response.error;
    ASSERT_LT(response.request_id, request_tables.size());
    const auto direct =
        service->DetectBatch(request_tables[response.request_id]);
    EXPECT_EQ(PerTableJson(response.per_table), PerTableJson(direct.per_table))
        << "request " << response.request_id;
  }
}

// A lone request lingers for max_batch_delay, not for a delay rounded up
// to whole milliseconds. The request carries no tables, so the time
// measured is the linger plus thread wake-ups. A rounded-up wait puts
// every trial at 1 ms or more, so the fastest trial is the robust
// witness: scheduling noise from a loaded host (parallel ctest) can only
// add time, and it moved the median past 1 ms in oversubscribed runs
// while the fastest trial stayed near the 200us window. The test thread
// blocks rather than spins while it waits, so it does not compete with
// the worker for a core.
TEST(ServerIntegrationTest, LoneRequestLingersOnlyMaxBatchDelay) {
  auto service = MakeService();
  MetricsRegistry metrics;
  CoalescerOptions options;
  options.base_options = LooseOptions();
  options.max_batch_delay = std::chrono::microseconds(200);
  RequestCoalescer coalescer(service.get(), &metrics, options);
  coalescer.Start();

  Mutex mu;
  CondVar answered;
  size_t responses = 0;
  std::vector<int64_t> elapsed_us;
  for (uint64_t i = 0; i < 50; ++i) {
    // Let the worker go idle so each request arrives alone.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    wire::DetectRequest request;
    request.request_id = i;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(coalescer.Submit(std::move(request),
                               [&](wire::DetectResponse) {
                                 MutexLock lock(&mu);
                                 ++responses;
                                 answered.NotifyAll();
                               }),
              RequestCoalescer::Admission::kAdmitted);
    {
      MutexLock lock(&mu);
      while (responses <= i) answered.Wait(mu);
    }
    elapsed_us.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  }
  coalescer.Stop(/*drain=*/true);

  const int64_t fastest =
      *std::min_element(elapsed_us.begin(), elapsed_us.end());
  EXPECT_GE(fastest, 200) << "the linger window must still be honoured";
  EXPECT_LT(fastest, 750) << "a lone request must not wait a rounded-up 1 ms";
}

// Queue-full shedding is a typed response, and no submission — admitted
// or refused — ever goes unanswered.
TEST(ServerIntegrationTest, OverloadIsTypedAndNothingIsSilentlyDropped) {
  auto service = MakeService();
  MetricsRegistry metrics;
  CoalescerOptions options;
  options.queue_capacity = 2;
  RequestCoalescer coalescer(service.get(), &metrics, options);
  // The worker is never started: the queue fills and stays full.

  Mutex mu;
  std::vector<wire::DetectResponse> responses;
  auto capture = [&mu, &responses](wire::DetectResponse response) {
    MutexLock lock(&mu);
    responses.push_back(std::move(response));
  };

  for (uint64_t i = 0; i < 2; ++i) {
    wire::DetectRequest request;
    request.request_id = i;
    request.tables = RequestTables(1, 9400 + i);
    ASSERT_EQ(coalescer.Submit(std::move(request), capture),
              RequestCoalescer::Admission::kAdmitted);
  }
  wire::DetectRequest overflow;
  overflow.request_id = 99;
  overflow.tables = RequestTables(1, 9402);
  ASSERT_EQ(coalescer.Submit(std::move(overflow), capture),
            RequestCoalescer::Admission::kOverloaded);
  {
    // The refusal callback fired inline, before Submit returned.
    MutexLock lock(&mu);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].request_id, 99u);
    EXPECT_EQ(responses[0].code, wire::WireCode::kOverloaded);
    EXPECT_FALSE(responses[0].error.empty());
  }
  EXPECT_EQ(metrics.Count(ServerMetric::kShedOverload), 1u);
  EXPECT_EQ(coalescer.queue_depth(), 2u);

  // Stop without draining: the queued pair still completes, typed.
  coalescer.Stop(/*drain=*/false);
  MutexLock lock(&mu);
  ASSERT_EQ(responses.size(), 3u);
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].code, wire::WireCode::kUnavailable);
  }
  EXPECT_EQ(metrics.Count(ServerMetric::kShedDraining), 2u);
}

TEST(ServerIntegrationTest, ExpiredDeadlineIsTypedAtDequeue) {
  auto service = MakeService();
  MetricsRegistry metrics;
  RequestCoalescer coalescer(service.get(), &metrics, CoalescerOptions{});

  Mutex mu;
  std::vector<wire::DetectResponse> responses;
  wire::DetectRequest request;
  request.request_id = 7;
  request.deadline_ms = 1;
  request.tables = RequestTables(1, 9500);
  // Submit before the worker exists, then outwait the deadline: the
  // request must expire at dequeue without burning a detector call.
  ASSERT_EQ(coalescer.Submit(std::move(request),
                             [&mu, &responses](wire::DetectResponse response) {
                               MutexLock lock(&mu);
                               responses.push_back(std::move(response));
                             }),
            RequestCoalescer::Admission::kAdmitted);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  coalescer.Start();
  ASSERT_TRUE(WaitFor([&] {
    MutexLock lock(&mu);
    return !responses.empty();
  }));
  coalescer.Stop(/*drain=*/true);

  MutexLock lock(&mu);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].request_id, 7u);
  EXPECT_EQ(responses[0].code, wire::WireCode::kDeadlineExceeded);
  EXPECT_EQ(metrics.Count(ServerMetric::kExpiredDeadline), 1u);
  EXPECT_EQ(metrics.Count(ServerMetric::kBatches), 0u);
}

// Server-level admission invariant under a concurrent burst with a
// one-slot queue: every request gets exactly one typed answer — kOk or
// kOverloaded — and the counters account for all of them.
TEST(ServerIntegrationTest, BurstAgainstTinyQueueAnswersEveryRequest) {
  auto service = MakeService();
  ServerOptions options;
  options.coalescer.base_options = LooseOptions();
  options.coalescer.queue_capacity = 1;
  options.coalescer.max_batch_delay = std::chrono::microseconds(0);
  DetectionServer server(service.get(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 8;
  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> overloaded_count{0};
  std::atomic<size_t> other_count{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = UdwireClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        other_count.fetch_add(1);
        return;
      }
      wire::DetectRequest request;
      request.request_id = c;
      request.tables = RequestTables(2, 9600 + c);
      auto response = client->Detect(request);
      if (!response.ok()) {
        other_count.fetch_add(1);
      } else if (response->code == wire::WireCode::kOk) {
        ok_count.fetch_add(1);
      } else if (response->code == wire::WireCode::kOverloaded) {
        overloaded_count.fetch_add(1);
      } else {
        other_count.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  server.Stop();

  EXPECT_EQ(other_count.load(), 0u);
  EXPECT_EQ(ok_count.load() + overloaded_count.load(), kClients);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kAdmitted) +
                server.metrics().Count(ServerMetric::kShedOverload),
            kClients);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesOk),
            ok_count.load());
}

// The acceptance gate: clients hammer the server while the service
// alternates ApplyDelta and Reload for 100 swap cycles. Zero failed and
// zero torn responses — every frame decodes, every code is kOk.
TEST(ServerIntegrationTest, ZeroTornResponsesAcross100ReloadCycles) {
  auto service = MakeService();
  ServerOptions options;
  options.coalescer.base_options = LooseOptions();
  options.coalescer.queue_capacity = 1024;
  DetectionServer server(service.get(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 4;
  constexpr size_t kRequestsPerClient = 40;
  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> failures{0};
  std::atomic<bool> churn_done{false};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = UdwireClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      const std::vector<Table> tables = RequestTables(2, 9700 + c);
      for (size_t i = 0; i < kRequestsPerClient; ++i) {
        wire::DetectRequest request;
        request.request_id = c * 1000 + i;
        request.tables = tables;
        auto response = client->Detect(request);
        if (!response.ok() || response->code != wire::WireCode::kOk ||
            response->request_id != request.request_id ||
            response->per_table.size() != tables.size()) {
          failures.fetch_add(1);
        } else {
          ok_count.fetch_add(1);
        }
      }
    });
  }

  std::thread churn([&] {
    const Artifacts& artifacts = SharedArtifacts();
    for (int cycle = 0; cycle < 100; ++cycle) {
      // Chain after an even cycle: [base, delta]; Reload folds it back.
      const Status status = cycle % 2 == 0
                                ? service->ApplyDelta(artifacts.delta_path)
                                : service->Reload(artifacts.base_path);
      ASSERT_TRUE(status.ok()) << "cycle " << cycle << ": " << status;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    churn_done.store(true);
  });

  for (std::thread& thread : clients) thread.join();
  churn.join();
  server.Stop();

  EXPECT_TRUE(churn_done.load());
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(ok_count.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesError), 0u);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kShedOverload), 0u);
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.applied_deltas, 50u);
  EXPECT_EQ(stats.reloads, 50u);
}

TEST(ServerIntegrationTest, HttpRoutesServeHealthStatsAndDetection) {
  auto service = MakeService();
  ServerOptions options;
  options.coalescer.base_options = LooseOptions();
  DetectionServer server(service.get(), options);
  ASSERT_TRUE(server.Start().ok());

  auto health = HttpFetch("127.0.0.1", server.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_NE(health->find("200"), std::string::npos);
  EXPECT_NE(health->find("ok"), std::string::npos);

  auto detect = HttpFetch("127.0.0.1", server.port(), "POST", "/detect",
                          "id,amount\n1,10\n2,11\n3,9999999\n");
  ASSERT_TRUE(detect.ok()) << detect.status();
  EXPECT_NE(detect->find("200"), std::string::npos);
  EXPECT_NE(detect->find("\"findings\""), std::string::npos);
  EXPECT_NE(detect->find("\"generation\""), std::string::npos);

  auto statz = HttpFetch("127.0.0.1", server.port(), "GET", "/statz");
  ASSERT_TRUE(statz.ok()) << statz.status();
  EXPECT_NE(statz->find("200"), std::string::npos);
  // Every counter in the metric table is exported under its wire name.
  for (const ServerMetricEntry& entry : kServerMetricEntries) {
    EXPECT_NE(statz->find("\"" + std::string(entry.name) + "\""),
              std::string::npos)
        << "statz is missing counter '" << entry.name << "'";
  }
  EXPECT_NE(statz->find("\"service\""), std::string::npos);
  EXPECT_NE(statz->find("\"request_latency\""), std::string::npos);

  auto missing = HttpFetch("127.0.0.1", server.port(), "GET", "/nope");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_NE(missing->find("404"), std::string::npos);

  server.Stop();
  EXPECT_GE(server.metrics().Count(ServerMetric::kHttpRequests), 4u);
}

// A hostile frame (valid magic, absurd length) gets a typed kMalformed
// response before the server closes the connection — never a crash.
TEST(ServerIntegrationTest, HostileFrameGetsTypedMalformedResponse) {
  auto service = MakeService();
  DetectionServer server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto client = UdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  std::string hostile = "UDW1";
  hostile.push_back(1);                          // kDetectRequest
  hostile.append(3, '\0');                       // reserved
  hostile.append(4, '\xff');                     // payload_len = 4GB-1
  ASSERT_TRUE(client->SendRaw(hostile).ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, wire::WireCode::kMalformed);
  server.Stop();
  EXPECT_GE(server.metrics().Count(ServerMetric::kProtocolErrors), 1u);
}

TEST(ServerIntegrationTest, ConnectionCapRejectsExtraConnections) {
  auto service = MakeService();
  ServerOptions options;
  options.max_connections = 1;
  DetectionServer server(service.get(), options);
  ASSERT_TRUE(server.Start().ok());

  auto first = UdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  wire::DetectRequest request;
  request.request_id = 1;
  request.tables = RequestTables(1, 9800);
  auto response = first->Detect(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, wire::WireCode::kOk);

  // The second connect completes the TCP handshake (backlog), but the
  // server closes it on accept; its read sees EOF, never a response.
  auto second = UdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(WaitFor([&] {
    return server.metrics().Count(ServerMetric::kConnectionsRejected) >= 1;
  }));
  EXPECT_FALSE(second->Detect(request).ok());
  server.Stop();
}

TEST(ServerIntegrationTest, StopIsGracefulAndIdempotent) {
  auto service = MakeService();
  DetectionServer server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  auto client = UdwireClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  wire::DetectRequest request;
  request.request_id = 5;
  request.tables = RequestTables(1, 9900);
  auto response = client->Detect(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, wire::WireCode::kOk);

  server.Stop();
  server.Stop();  // idempotent

  // The listener is gone: a fresh connect must fail.
  EXPECT_FALSE(UdwireClient::Connect("127.0.0.1", port).ok());
}

}  // namespace
}  // namespace unidetect
