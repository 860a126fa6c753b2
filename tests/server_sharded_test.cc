// Multi-reactor loopback tests (DESIGN.md §16.7): a DetectionServer
// with io_threads > 1 on an ephemeral 127.0.0.1 port. Pins the sharding
// contracts:
//
//   * responses served through an N-shard server are byte-identical to
//     direct in-process DetectBatch calls — sharding changes who reads
//     the socket, never the bytes;
//   * every shard binds its own SO_REUSEPORT listener on the shared
//     port;
//   * Stop() answers every decoded request on every shard — no
//     response is lost to the shutdown;
//   * metrics aggregate coherently: per-shard accept counters in
//     GET /metrics sum to the global counter, and the page speaks
//     well-formed Prometheus text exposition.

#include "server/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "learn/trainer.h"
#include "server/client.h"
#include "server/wire.h"
#include "serving/detection_service.h"
#include "util/logging.h"
#include "util/mutex.h"

namespace unidetect {
namespace {

// Client-side deadline on every DetectSync round trip: a lost or
// misrouted response fails as kDeadlineExceeded instead of hanging.
constexpr int64_t kRoundTripTimeoutMs = 30000;

// Per-process base snapshot (ctest runs cases as concurrent processes).
const std::string& BasePath() {
  static const std::string* path = [] {
    SetLogLevel(LogLevel::kWarning);
    const std::string dir = testing::TempDir() + "/server_sharded." +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    auto* out = new std::string(dir + "/base.udsnap");
    Trainer trainer;
    const Model base =
        trainer.Train(GenerateCorpus(WebCorpusSpec(200, 7101)).corpus);
    UNIDETECT_CHECK(base.Save(*out).ok());
    return out;
  }();
  return *path;
}

UniDetectOptions LooseOptions() {
  UniDetectOptions options;
  options.alpha = 1.0;
  return options;
}

std::unique_ptr<DetectionService> MakeService() {
  auto service = DetectionService::Create(BasePath(), LooseOptions());
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

bool WaitFor(const std::function<bool()>& done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

ServerOptions ShardedOptions(size_t io_threads) {
  ServerOptions options;
  options.io_threads = io_threads;
  return options;
}

// Sums every sample of `series` (one line per shard label) in a
// Prometheus text page.
uint64_t SumSeries(const std::string& page, const std::string& series) {
  uint64_t sum = 0;
  const std::string prefix = series + "{";
  for (size_t pos = page.find(prefix); pos != std::string::npos;
       pos = page.find(prefix, pos + 1)) {
    if (pos != 0 && page[pos - 1] != '\n') continue;
    const size_t value = page.find("} ", pos);
    sum += std::stoull(page.substr(value + 2));
  }
  return sum;
}

TEST(ShardedServerTest, FourShardResponsesMatchDirectBatch) {
  auto service = MakeService();
  DetectionServer server(service.get(), ShardedOptions(4));
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.io_threads(), 4u);

  // Several connections so the kernel actually spreads them across
  // shards; each runs its own request sequence over raw frames, so the
  // shard's echo of the request id is checked too.
  constexpr size_t kConnections = 6;
  for (size_t c = 0; c < kConnections; ++c) {
    auto client = UdwireClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    for (uint64_t i = 0; i < 2; ++i) {
      wire::DetectRequest request;
      request.request_id = c * 100 + i;
      request.tables = RequestTables(2, 7200 + c * 10 + i);
      ASSERT_TRUE(client->SendRaw(wire::EncodeDetectRequest(request)).ok());
      auto response = client->ReadResponse();
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_EQ(response->request_id, request.request_id);
      ASSERT_EQ(response->code, wire::WireCode::kOk) << response->error;
      const auto direct = service->DetectBatch(request.tables);
      EXPECT_EQ(PerTableJson(response->per_table),
                PerTableJson(direct.per_table))
          << "sharded response must be byte-identical to the direct call";
    }
  }
  server.Stop();
  EXPECT_EQ(server.metrics().Count(ServerMetric::kRequests),
            kConnections * 2);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesOk),
            kConnections * 2);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesError), 0u);
}

TEST(ShardedServerTest, ReusePortModeStartsWithPerShardListeners) {
  auto service = MakeService();
  DetectionServer server(service.get(), ShardedOptions(3));
  // Linux has had SO_REUSEPORT since 3.9; a refusal fails Start().
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.io_threads(), 3u);

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  wire::DetectRequest request;
  request.tables = RequestTables(1, 7301);
  const wire::DetectResponse response =
      (*client)->DetectSync(request, kRoundTripTimeoutMs);
  EXPECT_EQ(response.code, wire::WireCode::kOk) << response.error;
  server.Stop();
}

TEST(ShardedServerTest, StopDrainsAdmittedRequestsOnEveryShard) {
  auto service = MakeService();
  DetectionServer server(service.get(), ShardedOptions(4));
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 5;
  struct Gather {
    Mutex mu;
    std::vector<wire::DetectResponse> responses;
  } gather;
  std::vector<std::unique_ptr<AsyncUdwireClient>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    clients.push_back(std::move(client).ValueOrDie());
    for (size_t i = 0; i < kPerClient; ++i) {
      wire::DetectRequest request;
      request.tables = RequestTables(1, 7500 + c * 10 + i);
      clients.back()->Detect(std::move(request),
                             [&gather](wire::DetectResponse response) {
                               MutexLock lock(&gather.mu);
                               gather.responses.push_back(std::move(response));
                             });
    }
  }
  // Every request decoded before the shutdown starts.
  ASSERT_TRUE(WaitFor([&] {
    return server.metrics().Count(ServerMetric::kRequests) ==
           kClients * kPerClient;
  }));
  server.Stop();

  ASSERT_TRUE(WaitFor([&] {
    MutexLock lock(&gather.mu);
    return gather.responses.size() == kClients * kPerClient;
  }));
  MutexLock lock(&gather.mu);
  for (const wire::DetectResponse& response : gather.responses) {
    EXPECT_EQ(response.code, wire::WireCode::kOk)
        << "Stop() must answer every decoded request: " << response.error;
  }
}

TEST(ShardedServerTest, MetricsAggregateAcrossShards) {
  auto service = MakeService();
  DetectionServer server(service.get(), ShardedOptions(3));
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::unique_ptr<AsyncUdwireClient>> clients;
  for (size_t c = 0; c < 6; ++c) {
    auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    clients.push_back(std::move(client).ValueOrDie());
    wire::DetectRequest request;
    request.tables = RequestTables(1, 7600 + c);
    const wire::DetectResponse response =
        clients.back()->DetectSync(request, kRoundTripTimeoutMs);
    ASSERT_EQ(response.code, wire::WireCode::kOk) << response.error;
  }

  // The scrape's own connection is the seventh accept and is open while
  // the page is rendered. Which shard took each connection is the
  // kernel's choice; the per-shard series must still sum to the totals.
  auto fetched = HttpFetch("127.0.0.1", server.port(), "GET", "/metrics");
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_NE(fetched->find("\nunidetect_io_threads 3\n"), std::string::npos)
      << *fetched;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NE(fetched->find("unidetect_shard_accepted_total{shard=\"" +
                            std::to_string(i) + "\"}"),
              std::string::npos)
        << "shard " << i;
  }
  EXPECT_EQ(SumSeries(*fetched, "unidetect_shard_accepted_total"), 7u)
      << *fetched;
  EXPECT_EQ(SumSeries(*fetched, "unidetect_shard_open_connections"), 7u)
      << *fetched;
  EXPECT_NE(fetched->find("\nunidetect_connections_accepted_total 7\n"),
            std::string::npos)
      << *fetched;
  server.Stop();
  EXPECT_EQ(server.metrics().Count(ServerMetric::kConnectionsAccepted), 7u);
}

TEST(ShardedServerTest, PrometheusMetricsEndpointSpeaksTextExposition) {
  auto service = MakeService();
  DetectionServer server(service.get(), ShardedOptions(2));
  ASSERT_TRUE(server.Start().ok());

  // One served request so the latency histogram has a sample.
  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  wire::DetectRequest request;
  request.tables = RequestTables(1, 7701);
  const wire::DetectResponse response =
      (*client)->DetectSync(request, kRoundTripTimeoutMs);
  ASSERT_EQ(response.code, wire::WireCode::kOk) << response.error;

  auto fetched = HttpFetch("127.0.0.1", server.port(), "GET", "/metrics");
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_NE(fetched->find("200 OK"), std::string::npos);
  EXPECT_NE(fetched->find("text/plain"), std::string::npos);
  // Counters follow the _total convention with TYPE headers.
  EXPECT_NE(fetched->find("# TYPE unidetect_requests_total counter"),
            std::string::npos);
  EXPECT_NE(fetched->find("unidetect_requests_total 1"), std::string::npos);
  EXPECT_NE(fetched->find("unidetect_responses_ok_total 1"),
            std::string::npos);
  // Histogram: TYPE header, cumulative buckets, +Inf, _sum and _count.
  EXPECT_NE(
      fetched->find("# TYPE unidetect_request_latency_microseconds histogram"),
      std::string::npos);
  EXPECT_NE(fetched->find("unidetect_request_latency_microseconds_bucket{le="),
            std::string::npos);
  EXPECT_NE(fetched->find(
                "unidetect_request_latency_microseconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(fetched->find("unidetect_request_latency_microseconds_count 1"),
            std::string::npos);
  EXPECT_NE(fetched->find("unidetect_request_latency_microseconds_sum "),
            std::string::npos);
  // Per-shard series carry shard labels; both shards are present.
  EXPECT_NE(fetched->find("unidetect_shard_accepted_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(fetched->find("unidetect_shard_accepted_total{shard=\"1\"}"),
            std::string::npos);
  // The serving tier is on the same page.
  EXPECT_NE(fetched->find("unidetect_service_requests_total 1"),
            std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace unidetect
