// AsyncUdwireClient tests (DESIGN.md §16.8): the pipelined multiplexing
// client against both a scripted fake server (exact control over
// response order and timing) and a real sharded DetectionServer. Pins:
//
//   * completions are matched by wire request id, so a server that
//     answers out of order still completes every caller correctly;
//   * the per-request client-side deadline fires as a typed
//     kDeadlineExceeded exactly once, and a late server response for
//     that id is dropped, not double-delivered;
//   * a server close fails every outstanding request with kUnavailable
//     exactly once, and later Detect() calls complete immediately;
//   * 64+ requests in flight on one connection against a real server
//     all complete OK (the tsan leg runs this test — the pending-map
//     and callback paths must be race-free).

#include "server/client.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "learn/trainer.h"
#include "server/server.h"
#include "server/wire.h"
#include "serving/detection_service.h"
#include "util/logging.h"
#include "util/mutex.h"

namespace unidetect {
namespace {

// ---------------------------------------------------------------------
// Scripted fake server: one listener, one accepted connection, a
// caller-provided session body that reads requests and writes whatever
// frames (in whatever order) the test wants.

class FakeUdwireServer {
 public:
  /// `session` runs on the server thread with the accepted fd; the
  /// connection closes when it returns.
  explicit FakeUdwireServer(std::function<void(int fd)> session) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    UNIDETECT_CHECK(listen_fd_ >= 0);
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    // Trusted sockaddr ABI cast. NOLINTNEXTLINE(unsafe-bytes)
    UNIDETECT_CHECK(bind(listen_fd_,
                         reinterpret_cast<const struct sockaddr*>(&addr),
                         sizeof(addr)) == 0);
    UNIDETECT_CHECK(listen(listen_fd_, 1) == 0);
    struct sockaddr_in bound = {};
    socklen_t bound_len = sizeof(bound);
    // NOLINTNEXTLINE(unsafe-bytes) — same trusted cast.
    UNIDETECT_CHECK(getsockname(listen_fd_,
                                reinterpret_cast<struct sockaddr*>(&bound),
                                &bound_len) == 0);
    port_ = ntohs(bound.sin_port);
    thread_ = std::thread([this, session = std::move(session)] {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      session(fd);
      close(fd);
    });
  }

  ~FakeUdwireServer() {
    if (thread_.joinable()) thread_.join();
    close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// Blocking-reads `n` complete request frames off `fd`.
std::vector<wire::DetectRequest> ReadRequests(int fd, size_t n) {
  std::vector<wire::DetectRequest> requests;
  std::string rx;
  char buf[16 << 10];
  while (requests.size() < n) {
    auto parsed = wire::TryParseFrame(rx, wire::kAbsoluteMaxPayload);
    UNIDETECT_CHECK(parsed.ok());
    if (parsed->has_value()) {
      const wire::FrameView frame = **parsed;
      auto request = wire::DecodeDetectRequestPayload(frame.payload);
      UNIDETECT_CHECK(request.ok());
      requests.push_back(std::move(request).ValueOrDie());
      rx.erase(0, frame.frame_bytes);
      continue;
    }
    const ssize_t r = read(fd, buf, sizeof(buf));
    UNIDETECT_CHECK(r > 0);
    rx.append(buf, static_cast<size_t>(r));
  }
  return requests;
}

void SendOkResponse(int fd, uint64_t request_id) {
  const std::string frame = wire::EncodeOkResponseFrame(request_id, 1, {});
  UNIDETECT_CHECK(
      send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(frame.size()));
}

wire::DetectRequest TinyRequest() {
  wire::DetectRequest request;
  return request;  // no tables: the fake server never detects anything
}

struct Gather {
  Mutex mu;
  CondVar cv;
  std::vector<wire::DetectResponse> responses;

  void Push(wire::DetectResponse response) {
    MutexLock lock(&mu);
    responses.push_back(std::move(response));
    cv.NotifyAll();
  }
  void AwaitCount(size_t n) {
    MutexLock lock(&mu);
    while (responses.size() < n) cv.Wait(mu);
  }
};

TEST(AsyncClientTest, OutOfOrderCompletionsMatchByRequestId) {
  constexpr size_t kRequests = 5;
  FakeUdwireServer server([](int fd) {
    // Answer in reverse arrival order.
    const auto requests = ReadRequests(fd, kRequests);
    for (size_t i = requests.size(); i-- > 0;) {
      SendOkResponse(fd, requests[i].request_id);
    }
    // Hold the connection until the client has seen everything.
    char buf[1];
    (void)read(fd, buf, sizeof(buf));
  });

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  Gather gather;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < kRequests; ++i) {
    ids.push_back((*client)->Detect(
        TinyRequest(),
        [&gather](wire::DetectResponse r) { gather.Push(std::move(r)); }));
  }
  gather.AwaitCount(kRequests);

  // Every submitted id completed exactly once, as kOk, despite the
  // reversed delivery order.
  std::set<uint64_t> completed;
  {
    MutexLock lock(&gather.mu);
    for (const wire::DetectResponse& response : gather.responses) {
      EXPECT_EQ(response.code, wire::WireCode::kOk) << response.error;
      completed.insert(response.request_id);
    }
  }
  EXPECT_EQ(completed, std::set<uint64_t>(ids.begin(), ids.end()));
  EXPECT_EQ((*client)->pending(), 0u);
  client->reset();  // unblocks the fake server's final read
}

TEST(AsyncClientTest, ClientDeadlineFiresTypedAndLateResponseIsDropped) {
  struct Sync {
    Mutex mu;
    CondVar cv;
    bool deadline_seen = false;
  } sync;
  FakeUdwireServer server([&sync](int fd) {
    const auto requests = ReadRequests(fd, 1);
    // Respond only after the client-side deadline has already fired.
    {
      MutexLock lock(&sync.mu);
      while (!sync.deadline_seen) sync.cv.Wait(sync.mu);
    }
    SendOkResponse(fd, requests[0].request_id);
    char buf[1];
    (void)read(fd, buf, sizeof(buf));
  });

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  std::atomic<int> fired{0};
  Gather gather;
  (*client)->Detect(
      TinyRequest(),
      [&](wire::DetectResponse r) {
        fired.fetch_add(1);
        gather.Push(std::move(r));
      },
      /*timeout_ms=*/50);
  gather.AwaitCount(1);
  {
    MutexLock lock(&gather.mu);
    EXPECT_EQ(gather.responses[0].code, wire::WireCode::kDeadlineExceeded);
  }
  EXPECT_EQ((*client)->pending(), 0u);

  // Now let the server send the (late) response; it must be dropped —
  // the callback count stays 1 and the connection stays healthy enough
  // to notice the drop without crashing.
  {
    MutexLock lock(&sync.mu);
    sync.deadline_seen = true;
    sync.cv.NotifyAll();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_FALSE((*client)->broken());
  client->reset();
}

TEST(AsyncClientTest, ServerCloseFailsAllPendingExactlyOnce) {
  constexpr size_t kRequests = 4;
  FakeUdwireServer server([](int fd) {
    const auto requests = ReadRequests(fd, kRequests);
    // Answer one, then slam the connection on the other three.
    SendOkResponse(fd, requests[0].request_id);
  });

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  Gather gather;
  for (size_t i = 0; i < kRequests; ++i) {
    (*client)->Detect(TinyRequest(), [&gather](wire::DetectResponse r) {
      gather.Push(std::move(r));
    });
  }
  gather.AwaitCount(kRequests);

  size_t ok = 0, unavailable = 0;
  {
    MutexLock lock(&gather.mu);
    for (const wire::DetectResponse& response : gather.responses) {
      if (response.code == wire::WireCode::kOk) ++ok;
      if (response.code == wire::WireCode::kUnavailable) ++unavailable;
    }
  }
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(unavailable, kRequests - 1);
  EXPECT_EQ((*client)->pending(), 0u);
  EXPECT_TRUE((*client)->broken());

  // A submit after the break completes inline, typed, exactly once.
  std::atomic<int> late_fired{0};
  (*client)->Detect(TinyRequest(), [&](wire::DetectResponse r) {
    EXPECT_EQ(r.code, wire::WireCode::kUnavailable);
    late_fired.fetch_add(1);
  });
  EXPECT_EQ(late_fired.load(), 1);
}

// ---------------------------------------------------------------------
// Against a real server.

const std::string& BasePath() {
  static const std::string* path = [] {
    SetLogLevel(LogLevel::kWarning);
    const std::string dir =
        testing::TempDir() + "/async_client." + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    auto* out = new std::string(dir + "/base.udsnap");
    Trainer trainer;
    const Model base =
        trainer.Train(GenerateCorpus(WebCorpusSpec(200, 8101)).corpus);
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

std::string PerTableJson(const std::vector<std::vector<Finding>>& per_table) {
  std::string out;
  for (const auto& findings : per_table) {
    out += FindingsToJson(findings);
    out += '\n';
  }
  return out;
}

TEST(AsyncClientTest, SixtyFourInFlightOnOneConnectionAllCompleteOk) {
  auto service = DetectionService::Create(BasePath(), LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  ServerOptions options;
  options.io_threads = 2;
  DetectionServer server(service->get(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();

  constexpr size_t kInFlight = 64;
  const std::vector<Table> tables =
      GenerateCorpus(WebCorpusSpec(1, 8201)).corpus.tables;
  Gather gather;
  for (size_t i = 0; i < kInFlight; ++i) {
    wire::DetectRequest request;
    request.tables = tables;
    (*client)->Detect(std::move(request),
                      [&gather](wire::DetectResponse response) {
                        gather.Push(std::move(response));
                      });
  }
  gather.AwaitCount(kInFlight);

  const auto direct = (*service)->DetectBatch(tables);
  std::set<uint64_t> completed;
  {
    MutexLock lock(&gather.mu);
    for (const wire::DetectResponse& response : gather.responses) {
      ASSERT_EQ(response.code, wire::WireCode::kOk) << response.error;
      completed.insert(response.request_id);
      EXPECT_EQ(PerTableJson(response.per_table),
                PerTableJson(direct.per_table));
    }
  }
  EXPECT_EQ(completed.size(), kInFlight) << "every id completed exactly once";
  EXPECT_EQ((*client)->pending(), 0u);
  server.Stop();
  EXPECT_EQ(server.metrics().Count(ServerMetric::kResponsesOk), kInFlight);
}

TEST(AsyncClientTest, DetectSyncRoundTripsAgainstRealServer) {
  auto service = DetectionService::Create(BasePath(), LooseOptions());
  ASSERT_TRUE(service.ok()) << service.status();
  DetectionServer server(service->get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto client = AsyncUdwireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status();
  const std::vector<Table> tables =
      GenerateCorpus(WebCorpusSpec(2, 8301)).corpus.tables;
  wire::DetectRequest request;
  request.tables = tables;
  const wire::DetectResponse response =
      (*client)->DetectSync(std::move(request));
  ASSERT_EQ(response.code, wire::WireCode::kOk) << response.error;
  const auto direct = (*service)->DetectBatch(tables);
  EXPECT_EQ(PerTableJson(response.per_table), PerTableJson(direct.per_table));
  server.Stop();
}

}  // namespace
}  // namespace unidetect
