// Loopback integration tests for the network front end (DESIGN.md §16):
// a real DetectionServer on an ephemeral 127.0.0.1 port, driven through
// AsyncUdwireClient, the raw-bytes UdwireClient and the HTTP helper.
// Pins the subsystem's contracts:
//
//   * a served UDWIRE response is byte-identical to a direct in-process
//     DetectBatch over the same tables, and a per-request override
//     starts from the service's own options;
//   * a request whose deadline passed while it waited behind a slow one
//     gets a typed kDeadlineExceeded, and the stream carries on;
//   * Reload/ApplyDelta churn under client load produces zero failed or
//     torn responses (the engine-snapshot pinning contract, end to end);
//   * a pipelined response is not held back by Nagle until the client's
//     delayed ACK (both ends set TCP_NODELAY);
//   * hostile bytes at a live socket produce a typed kMalformed frame,
//     not a crash; the connection cap rejects typed-ly; a connection the
//     process has no fd for is shed instead of spinning the shard;
//     Stop() is graceful and idempotent.

#include "server/server.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
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
#include "server/wire.h"
#include "serving/detection_service.h"
#include "table/table.h"
#include "util/logging.h"

namespace unidetect {
namespace {

// Client-side deadline on every DetectSync round trip: a lost or
// misrouted response fails as kDeadlineExceeded instead of hanging.
constexpr int64_t kRoundTripTimeoutMs = 30000;

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

// Three cells in one column: detection takes microseconds, so the time
// between two responses is the transport's.
Table TinyTable() {
  Table table("tiny");
  UNIDETECT_CHECK(
      table.AddColumn(Column("city", {"london", "paris", "berlin"})).ok());
  return table;
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
  DetectionServer server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  for (uint64_t i = 0; i < 3; ++i) {
    wire::DetectRequest request;
    request.tables = RequestTables(2, 9200 + i);
    const wire::DetectResponse response =
        (*client)->DetectSync(request, kRoundTripTimeoutMs);
    ASSERT_EQ(response.code, wire::WireCode::kOk) << response.error;
    EXPECT_EQ(response.generation, 1u);
    ASSERT_EQ(response.per_table.size(), request.tables.size());

    const auto direct = service->DetectBatch(request.tables);
    EXPECT_EQ(PerTableJson(response.per_table),
              PerTableJson(direct.per_table))
        << "served response must be byte-identical to the direct call";
  }
  server.Stop();
  EXPECT_EQ(server.metrics().Count(ServerMetric::kRequests), 3u);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesOk), 3u);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesError), 0u);
}

// A per-request override changes only the fields it carries; every
// other option comes from the service the server fronts. The service
// here caps FD pairs at 2, a field the wire override does not carry,
// and nothing mirrors that into ServerOptions.
TEST(ServerIntegrationTest, OverrideStartsFromTheServiceOptions) {
  UniDetectOptions service_options = LooseOptions();
  service_options.max_fd_pairs_per_table = 2;
  auto created =
      DetectionService::Create(SharedArtifacts().base_path, service_options);
  ASSERT_TRUE(created.ok()) << created.status();
  DetectionService& service = **created;
  DetectionServer server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  wire::DetectRequest request;
  request.request_id = 3;
  request.options.has_override = true;
  request.options.alpha = 1.0;
  request.options.detect_mask = wire::DetectMask(service_options.detect);
  request.tables = RequestTables(12, 9350);

  const UniDetectOptions expected_options =
      wire::ApplyRequestOptions(service.options(), request.options);
  const std::string expected = PerTableJson(
      service.DetectBatch(request.tables, &expected_options).per_table);
  // The test only discriminates if the capped field matters here: over
  // the library defaults (30 FD pairs) the findings must differ.
  const UniDetectOptions default_based =
      wire::ApplyRequestOptions(UniDetectOptions{}, request.options);
  ASSERT_NE(expected, PerTableJson(service.DetectBatch(request.tables,
                                                       &default_based)
                                       .per_table));

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  const wire::DetectResponse response =
      (*client)->DetectSync(request, kRoundTripTimeoutMs);
  ASSERT_EQ(response.code, wire::WireCode::kOk) << response.error;
  EXPECT_EQ(PerTableJson(response.per_table), expected);
  server.Stop();
}

// A request pipelined behind a slow one waits while the slow one is
// detected; once its deadline has passed since the read that delivered
// it, it is answered kDeadlineExceeded without a detector call, and the
// connection keeps serving.
TEST(ServerIntegrationTest, PipelinedRequestPastItsDeadlineIsTyped) {
  auto service = MakeService();
  DetectionServer server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = UdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  wire::DetectRequest slow;
  slow.request_id = 1;
  slow.tables = RequestTables(200, 9500);
  wire::DetectRequest urgent;
  urgent.request_id = 2;
  urgent.deadline_ms = 1;
  urgent.tables = RequestTables(1, 9501);
  const std::string slow_frame = wire::EncodeDetectRequest(slow);
  const std::string pipeline = slow_frame + wire::EncodeDetectRequest(urgent);
  // Both frames must complete in the same read, or the urgent one would
  // simply arrive after the slow one was served. Hold back the slow
  // frame's last byte until the server has read the rest, then send it
  // with the whole urgent frame in one small write (one loopback
  // segment, so one read).
  const size_t split = slow_frame.size() - 1;
  ASSERT_TRUE(client->SendRaw(pipeline.substr(0, split)).ok());
  ASSERT_TRUE(WaitFor([&] {
    return server.metrics().Count(ServerMetric::kBytesRead) == split;
  }));
  ASSERT_TRUE(client->SendRaw(pipeline.substr(split)).ok());

  auto first = client->ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->request_id, 1u);
  EXPECT_EQ(first->code, wire::WireCode::kOk) << first->error;
  auto second = client->ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->request_id, 2u);
  EXPECT_EQ(second->code, wire::WireCode::kDeadlineExceeded);
  EXPECT_FALSE(second->error.empty());

  // The connection survived: a follow-up with a generous deadline is
  // served.
  wire::DetectRequest after;
  after.request_id = 3;
  after.deadline_ms = 10000;
  after.tables = RequestTables(1, 9502);
  ASSERT_TRUE(client->SendRaw(wire::EncodeDetectRequest(after)).ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->request_id, 3u);
  EXPECT_EQ(response->code, wire::WireCode::kOk) << response->error;
  server.Stop();
  EXPECT_EQ(server.metrics().Count(ServerMetric::kExpiredDeadline), 1u);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kBatches), 2u);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesError), 1u);
}

// The acceptance gate: clients hammer the server while the service
// alternates ApplyDelta and Reload for 100 swap cycles. Zero failed and
// zero torn responses — every frame decodes, every code is kOk.
TEST(ServerIntegrationTest, ZeroTornResponsesAcross100ReloadCycles) {
  auto service = MakeService();
  DetectionServer server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kClients = 4;
  constexpr size_t kRequestsPerClient = 40;
  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> failures{0};
  std::atomic<bool> churn_done{false};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures.fetch_add(kRequestsPerClient);
        return;
      }
      const std::vector<Table> tables = RequestTables(2, 9700 + c);
      for (size_t i = 0; i < kRequestsPerClient; ++i) {
        wire::DetectRequest request;
        request.tables = tables;
        const wire::DetectResponse response =
            (*client)->DetectSync(request, kRoundTripTimeoutMs);
        if (response.code != wire::WireCode::kOk ||
            response.per_table.size() != tables.size()) {
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
  const ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.applied_deltas, 50u);
  EXPECT_EQ(stats.reloads, 50u);
}

TEST(ServerIntegrationTest, HttpRoutesServeHealthStatsAndDetection) {
  auto service = MakeService();
  DetectionServer server(service.get(), ServerOptions{});
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

  auto metrics = HttpFetch("127.0.0.1", server.port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("200"), std::string::npos);
  // Every counter in the metric table is exported under its wire name.
  for (const ServerMetricEntry& entry : kServerMetricEntries) {
    EXPECT_NE(metrics->find("unidetect_" + std::string(entry.name) + "_total "),
              std::string::npos)
        << "/metrics is missing counter '" << entry.name << "'";
  }
  EXPECT_NE(metrics->find("unidetect_service_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->find("unidetect_request_latency_microseconds_count"),
            std::string::npos);

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

  auto first = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  wire::DetectRequest request;
  request.tables = RequestTables(1, 9800);
  EXPECT_EQ((*first)->DetectSync(request, kRoundTripTimeoutMs).code,
            wire::WireCode::kOk);

  // The second connect completes the TCP handshake (backlog), but the
  // server closes it on accept; its read sees EOF, never a response.
  auto second = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(WaitFor([&] {
    return server.metrics().Count(ServerMetric::kConnectionsRejected) >= 1;
  }));
  EXPECT_EQ((*second)->DetectSync(request, kRoundTripTimeoutMs).code,
            wire::WireCode::kUnavailable);
  server.Stop();
}

// Two requests pipelined in one write, on a connection whose client
// delays its ACKs. With Nagle on, the server holds the second small
// response while the first is unacked, and the client ACKs only with
// its next request or when its delayed-ACK timer fires (40 ms at the
// least on Linux), so each response would wait for the next request.
TEST(ServerIntegrationTest, PipelinedPairIsNotHeldForTheDelayedAck) {
  auto service = MakeService();
  DetectionServer server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto client = UdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  int no_delay = 0;
  socklen_t no_delay_len = sizeof(no_delay);
  ASSERT_EQ(getsockopt(client->fd(), IPPROTO_TCP, TCP_NODELAY, &no_delay,
                       &no_delay_len),
            0);
  EXPECT_EQ(no_delay, 1);

  wire::DetectRequest request;
  request.tables = {TinyTable()};
  // Blocking round trips end the client's quick-ACK mode: from here on
  // it delays its ACKs, as under a steady request stream.
  for (uint64_t id = 1; id <= 20; ++id) {
    request.request_id = id;
    ASSERT_TRUE(client->SendRaw(wire::EncodeDetectRequest(request)).ok());
    auto response = client->ReadResponse();
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->code, wire::WireCode::kOk) << response->error;
  }

  request.request_id = 21;
  std::string pair = wire::EncodeDetectRequest(request);
  request.request_id = 22;
  pair += wire::EncodeDetectRequest(request);
  ASSERT_TRUE(client->SendRaw(pair).ok());
  auto first = client->ReadResponse();
  const auto first_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->request_id, 21u);
  auto second = client->ReadResponse();
  const auto gap = std::chrono::steady_clock::now() - first_at;
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->request_id, 22u);
  EXPECT_LT(gap, std::chrono::milliseconds(20))
      << "the second response waited for the client's delayed ACK";
  server.Stop();
}

// The listener is level-triggered: a connection pending while the
// process is out of fds must be shed (the peer sees EOF), or accept
// fails on every wakeup and the shard spins. Afterwards the server
// serves again.
TEST(ServerIntegrationTest, ConnectionPendingAtFdExhaustionIsShed) {
  auto service = MakeService();
  DetectionServer server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Lower this process's fd limit to just above its highest open fd,
  // then fill every free slot but one.
  int highest = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  struct rlimit saved = {};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(highest) + 5;
  ASSERT_LE(lowered.rlim_cur, saved.rlim_cur);
  const int null_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(null_fd, 0);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> fillers;
  for (int fd = dup(null_fd); fd >= 0; fd = dup(null_fd)) {
    fillers.push_back(fd);
  }
  const bool filled = !fillers.empty();
  if (filled) {
    close(fillers.back());
    fillers.pop_back();
  }

  // The client's socket takes the last slot, so the server's accept
  // finds none. Poll for EOF with a timeout: a spinning shard never
  // answers, and the test must fail rather than hang.
  auto client = UdwireClient::Connect("127.0.0.1", server.port());
  bool saw_eof = false;
  if (client.ok()) {
    struct pollfd pfd = {client->fd(), POLLIN, 0};
    char byte = 0;
    saw_eof = poll(&pfd, 1, 2000) == 1 && read(client->fd(), &byte, 1) == 0;
  }

  for (const int fd : fillers) close(fd);
  close(null_fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_TRUE(filled);
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_TRUE(saw_eof) << "the pending connection was neither shed nor served";
  EXPECT_EQ(server.metrics().Count(ServerMetric::kConnectionsRejected), 1u);
  EXPECT_EQ(server.metrics().Count(ServerMetric::kConnectionsAccepted), 0u);

  auto fresh = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  wire::DetectRequest request;
  request.tables = {TinyTable()};
  const wire::DetectResponse response =
      (*fresh)->DetectSync(request, kRoundTripTimeoutMs);
  EXPECT_EQ(response.code, wire::WireCode::kOk) << response.error;
  server.Stop();
}

TEST(ServerIntegrationTest, StopIsGracefulAndIdempotent) {
  auto service = MakeService();
  DetectionServer server(service.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  auto client = AsyncUdwireClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  wire::DetectRequest request;
  request.tables = RequestTables(1, 9900);
  EXPECT_EQ((*client)->DetectSync(request, kRoundTripTimeoutMs).code,
            wire::WireCode::kOk);

  server.Stop();
  server.Stop();  // idempotent

  // The listener is gone: a fresh connect must fail.
  EXPECT_FALSE(UdwireClient::Connect("127.0.0.1", port).ok());
}

}  // namespace
}  // namespace unidetect
