// DetectionServer: the network front end over DetectionService
// (DESIGN.md §16). The reactor is sharded: `ServerOptions::io_threads`
// epoll event loops, each owning a disjoint set of sockets, so every
// Connection stays confined to exactly one loop thread and needs no
// locking. With io_threads > 1 every shard binds its own SO_REUSEPORT
// listener on the same port and the kernel spreads incoming
// connections across them; there is no cross-thread accept path.
//
// Each request runs to completion on the loop thread that read it:
// decode, a deadline check against the time of the read that delivered
// the frame (kDeadlineExceeded once `deadline_ms` has passed), an
// inline DetectionService::DetectBatch call, encode, and the write.
// The trade: a slow table holds up the other connections of its shard
// (health and metrics probes included) until it finishes.
//
// Both protocols share the listen port and are distinguished by the
// first bytes of the stream: a prefix of "UDW1" selects the UDWIRE
// binary protocol (server/wire.h), anything else the minimal HTTP/1.1
// adapter (server/http.h) serving GET /healthz, GET /metrics
// (Prometheus text exposition) and POST /detect (CSV body in, findings
// JSON out).
//
// Every accepted socket has Nagle turned off (server/socket_options.h).
// Connections beyond max_connections, and connections pending while the
// process is out of file descriptors, are accepted and immediately
// closed after counting kConnectionsRejected. Stop() is graceful: each
// shard closes its listener, flushes the responses already queued —
// every decoded request was answered inline, so that is all of them —
// and only then closes its connections and exits.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/event_loop.h"
#include "server/http.h"
#include "server/metrics.h"
#include "server/wire.h"
#include "serving/detection_service.h"
#include "util/status.h"

namespace unidetect {

struct ServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back
  /// with port() after Start()).
  uint16_t port = 0;
  /// Listen only on 127.0.0.1 (the default) or on all interfaces.
  bool loopback_only = true;
  /// Concurrent-connection cap across all shards; accepts beyond it are
  /// closed at once.
  size_t max_connections = 1024;
  /// Per-frame payload bound for UDWIRE requests.
  uint32_t max_frame_payload = 64u << 20;
  /// Number of IO reactor shards, each serving its connections'
  /// requests to completion. Above 1, every shard binds its own
  /// SO_REUSEPORT listener.
  size_t io_threads = 1;
  http::Limits http_limits;
};

class DetectionServer {
 public:
  /// `service` must outlive the server.
  DetectionServer(DetectionService* service, ServerOptions options);
  ~DetectionServer();

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  /// \brief Binds one listener per shard and starts the IO shards. A
  /// kernel that refuses SO_REUSEPORT fails this with an IOError.
  Status Start();

  /// \brief Graceful shutdown: stop accepting, flush the responses of
  /// every decoded request on every shard, join the IO threads.
  /// Idempotent.
  void Stop();

  /// \brief The bound port (resolves ephemeral port 0); valid after a
  /// successful Start(). All shards share it.
  uint16_t port() const { return bound_port_; }

  /// \brief Number of reactor shards actually running.
  size_t io_threads() const { return shards_.size(); }

  const MetricsRegistry& metrics() const { return metrics_; }

  /// \brief The /metrics document: server counters, gauges, latency
  /// histograms, per-shard accept/connection series and the underlying
  /// ServiceStats, in Prometheus text exposition format.
  std::string MetricsText() const;

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    std::string rx;
    std::string tx;
    enum class Protocol { kUnknown, kUdwire, kHttp } protocol =
        Protocol::kUnknown;
    /// Close once tx drains (HTTP Connection: close, or fatal protocol
    /// error after the error response).
    bool close_after_flush = false;
    /// EPOLLOUT currently armed.
    bool want_write = false;
  };

  /// One reactor shard: an event loop, its thread, its listener, and
  /// the connection state confined to that loop's thread. Shards live
  /// in stable unique_ptr slots for the server's whole lifetime, so raw
  /// Shard pointers may be captured by loop callbacks.
  struct Shard {
    EventLoop loop;
    std::thread thread;
    int listen_fd = -1;
    /// A reserved fd (on /dev/null) that ShedPendingConnection frees
    /// so it can accept, and close, a connection the process has no fd
    /// for.
    int spare_fd = -1;
    /// Monotonic accept counter and open-connection gauge, readable
    /// cross-thread by MetricsText.
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> open_connections{0};
    // Loop-thread state: connections keyed by id (ids are never reused,
    // so a freed connection is detected by a failed lookup).
    std::map<uint64_t, std::unique_ptr<Connection>> connections;
  };

  /// Creates one nonblocking listener bound to the configured address.
  /// `reuse_port` additionally sets SO_REUSEPORT before bind. On
  /// success returns the fd and fills `bound_port` with the resolved
  /// port.
  Result<int> OpenListener(uint16_t port, bool reuse_port,
                           uint16_t* bound_port);

  using Clock = std::chrono::steady_clock;

  void OnListenReady(Shard* shard);
  /// Called when accept fails with EMFILE/ENFILE. The listener is
  /// level-triggered, so a connection left in the backlog would wake
  /// the loop again at once and spin it. Closes the spare fd, accepts
  /// and closes one pending connection (counted kConnectionsRejected;
  /// the peer sees EOF), then reopens the spare. Further pending
  /// connections keep the listener ready and are shed one per wakeup,
  /// so one that arrives after fds are free again is served.
  void ShedPendingConnection(Shard* shard);
  /// Registers an accepted fd on `shard` (the connection-cap slot was
  /// already claimed).
  void RegisterConnection(Shard* shard, int fd);
  void OnConnectionReady(Shard* shard, uint64_t id, uint32_t events);
  /// Serves as many complete requests as rx holds, in order; `read_at`
  /// is when the read that delivered them returned. Returns false when
  /// the connection must close now (peer error / unrecoverable bytes).
  bool ConsumeRx(Shard* shard, Connection* conn, Clock::time_point read_at);
  bool ConsumeUdwire(Shard* shard, Connection* conn,
                     Clock::time_point read_at);
  bool ConsumeHttp(Shard* shard, Connection* conn, Clock::time_point read_at);
  /// Answers one decoded request: kDeadlineExceeded once its deadline
  /// has passed since `read_at`, else the findings of an inline
  /// DetectBatch call under the service's options (plus the request's
  /// override).
  wire::DetectResponse Detect(const wire::DetectRequest& request,
                              Clock::time_point read_at);
  void HandleHttpRequest(Shard* shard, Connection* conn,
                         const http::Request& request,
                         Clock::time_point read_at);
  /// Appends bytes to tx and flushes opportunistically.
  void QueueWrite(Shard* shard, Connection* conn, std::string_view bytes);
  /// Writes as much tx as the socket takes; arms/disarms EPOLLOUT.
  void FlushTx(Shard* shard, Connection* conn);
  void CloseConnection(Shard* shard, uint64_t id);
  /// Runs on a shard's loop thread: closes its listener, flushes every
  /// remaining tx buffer (bounded), closes all fds, stops the loop.
  void FinalFlushAndStop(Shard* shard);

  DetectionService* const service_;
  const ServerOptions options_;

  MetricsRegistry metrics_;

  std::vector<std::unique_ptr<Shard>> shards_;
  uint16_t bound_port_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  /// Globally unique connection ids (shards accept concurrently).
  std::atomic<uint64_t> next_connection_id_{1};
  /// Open connections across all shards, against max_connections.
  std::atomic<size_t> total_connections_{0};
};

}  // namespace unidetect
