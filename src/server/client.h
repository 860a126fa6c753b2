// UDWIRE clients: the counterparts of DetectionServer used by
// tools/udclient, the loopback tests and udbench.
//
//   * AsyncUdwireClient — the client: one connection, many in-flight
//     pipelined requests multiplexed by the wire request id,
//     completions delivered out of order via callback (or the blocking
//     DetectSync round trip), with optional per-request client-side
//     deadlines.
//   * UdwireClient — a raw-bytes connection for robustness tests: it
//     writes whatever bytes it is given (hand-corrupted frames,
//     pipelines split mid-frame) and reads response frames back, and
//     it exposes its socket.
//
// A tiny HTTP helper covers the /healthz-style probes without pulling
// in a real HTTP client.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "server/wire.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"

namespace unidetect {

/// \brief A raw-bytes UDWIRE connection: no request encoding, no id
/// matching. Tests use it to put exact bytes on the wire; everything
/// else talks to a server through AsyncUdwireClient.
class UdwireClient {
 public:
  /// \brief Connects (blocking) to `host`:`port`; host is a dotted-quad
  /// IPv4 literal such as "127.0.0.1".
  static Result<UdwireClient> Connect(const std::string& host, uint16_t port);

  UdwireClient(UdwireClient&& other) noexcept;
  UdwireClient& operator=(UdwireClient&& other) noexcept;
  UdwireClient(const UdwireClient&) = delete;
  UdwireClient& operator=(const UdwireClient&) = delete;
  ~UdwireClient();

  /// \brief Writes arbitrary bytes down the connection (robustness
  /// tests feed corrupted frames through this).
  Status SendRaw(std::string_view bytes);

  /// \brief Blocks until one complete response frame arrives.
  Result<wire::DetectResponse> ReadResponse();

  int fd() const { return fd_; }

 private:
  explicit UdwireClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string rx_;  // bytes past the last decoded frame
};

/// \brief Pipelined multiplexing UDWIRE client: one TCP connection,
/// many requests in flight, completions matched to callers by the wire
/// request id so they may arrive in any order.
///
/// Completion contract — the callback for every submitted request fires
/// **exactly once**, with a typed wire::DetectResponse:
///   * the server's response (whatever its code), or
///   * kDeadlineExceeded when the per-request client deadline lapses
///     first (a late server response for that id is then dropped), or
///   * kUnavailable when the connection breaks (server close, transport
///     error) or the client is destroyed with the request outstanding.
///
/// Callbacks run on the internal receiver thread (or inline on the
/// submitting thread when the connection is already broken). They must
/// not block and must not call DetectSync (self-deadlock: DetectSync
/// waits on a completion only the receiver thread can deliver).
/// Detect/DetectSync may be called from any thread concurrently.
class AsyncUdwireClient {
 public:
  using Callback = std::function<void(wire::DetectResponse)>;

  /// \brief Connects (blocking) and starts the receiver thread. `host`
  /// is a dotted-quad IPv4 literal such as "127.0.0.1".
  static Result<std::unique_ptr<AsyncUdwireClient>> Connect(
      const std::string& host, uint16_t port);

  AsyncUdwireClient(const AsyncUdwireClient&) = delete;
  AsyncUdwireClient& operator=(const AsyncUdwireClient&) = delete;

  /// Fails every outstanding request with kUnavailable, then joins the
  /// receiver thread.
  ~AsyncUdwireClient();

  /// \brief Submits one request. The client overwrites
  /// `request.request_id` with an internally assigned id (returned).
  /// `timeout_ms` > 0 bounds the wait client-side: if no response
  /// arrives in time, `done` fires with kDeadlineExceeded (this is
  /// independent of `request.deadline_ms`, the server-side
  /// deadline, which the caller sets — or not — as usual).
  uint64_t Detect(wire::DetectRequest request, Callback done,
                  int64_t timeout_ms = 0);

  /// \brief Blocking convenience over Detect(): submits and waits for
  /// that one completion. Other in-flight requests on this connection
  /// proceed concurrently. Must not be called from a completion
  /// callback.
  wire::DetectResponse DetectSync(wire::DetectRequest request,
                                  int64_t timeout_ms = 0);

  /// \brief Requests submitted and not yet completed.
  size_t pending() const;

  /// \brief True once the connection has failed; further Detect()
  /// calls complete immediately with kUnavailable.
  bool broken() const { return broken_.load(std::memory_order_acquire); }

 private:
  struct Pending {
    Callback done;
    /// Unset when the request has no client-side deadline.
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  AsyncUdwireClient(int fd, int wakeup_fd);

  /// Receiver thread: poll(fd, wakeup) with the nearest pending
  /// deadline as timeout; decode frames, expire deadlines, and on
  /// connection failure (or shutdown) fail everything outstanding.
  void ReceiverLoop();
  void Wake();
  /// Decodes every complete frame in rx_, completing matched pending
  /// entries; returns false on a framing error (connection unusable).
  bool DecodeFrames();
  /// Fires kDeadlineExceeded for every pending entry whose client
  /// deadline has passed.
  void ExpireDeadlines(std::chrono::steady_clock::time_point now);
  /// Marks the connection broken and extracts all pending entries, both
  /// under mu_ (so a concurrent Detect() either sees broken_ or has its
  /// entry taken — never orphaned).
  std::map<uint64_t, Pending> BreakAndTakeAll();

  const int fd_;
  const int wakeup_fd_;

  mutable Mutex mu_;
  std::map<uint64_t, Pending> pending_;  // guarded by mu_
  uint64_t next_id_ = 1;                 // guarded by mu_

  /// Serializes writes so concurrent Detect() calls cannot interleave
  /// frame bytes.
  Mutex write_mu_;

  std::atomic<bool> broken_{false};
  std::atomic<bool> stop_{false};
  std::thread receiver_;
  std::string rx_;  // receiver thread only
};

/// \brief One blocking HTTP/1.1 request against a local server; returns
/// the raw response (status line + headers + body). `body` non-empty
/// implies a Content-Length header.
Result<std::string> HttpFetch(const std::string& host, uint16_t port,
                              std::string_view method, std::string_view target,
                              std::string_view body = {});

}  // namespace unidetect
