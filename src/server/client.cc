#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "server/socket_options.h"
#include "util/string_util.h"

namespace unidetect {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrCat(what, ": ", strerror(errno)));
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument(
        StrCat("not an IPv4 literal: '", host, "'"));
  }
  // sockaddr_in -> sockaddr is the BSD socket ABI contract, a trusted
  // in-memory cast, not wire decoding. NOLINTNEXTLINE(unsafe-bytes)
  if (connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
              sizeof(addr)) != 0) {
    const Status status = Errno("connect");
    close(fd);
    return status;
  }
  const Status no_delay = SetTcpNoDelay(fd);
  if (!no_delay.ok()) {
    close(fd);
    return no_delay;
  }
  return fd;
}

Status WriteAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("write");
  }
  return Status::OK();
}

}  // namespace

Result<UdwireClient> UdwireClient::Connect(const std::string& host,
                                           uint16_t port) {
  UNIDETECT_ASSIGN_OR_RETURN(const int fd, ConnectTcp(host, port));
  return UdwireClient(fd);
}

UdwireClient::UdwireClient(UdwireClient&& other) noexcept
    : fd_(other.fd_), rx_(std::move(other.rx_)) {
  other.fd_ = -1;
}

UdwireClient& UdwireClient::operator=(UdwireClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = other.fd_;
    rx_ = std::move(other.rx_);
    other.fd_ = -1;
  }
  return *this;
}

UdwireClient::~UdwireClient() {
  if (fd_ >= 0) close(fd_);
}

Status UdwireClient::SendRaw(std::string_view bytes) {
  return WriteAll(fd_, bytes);
}

Result<wire::DetectResponse> UdwireClient::ReadResponse() {
  char buf[64 << 10];
  for (;;) {
    Result<std::optional<wire::FrameView>> parsed =
        wire::TryParseFrame(rx_, wire::kAbsoluteMaxPayload);
    UNIDETECT_RETURN_NOT_OK(parsed.status());
    if (parsed->has_value()) {
      const wire::FrameView frame = **parsed;
      if (frame.type != wire::FrameType::kDetectResponse) {
        return Status::Corruption("UDWIRE client: unexpected frame type");
      }
      Result<wire::DetectResponse> response =
          wire::DecodeDetectResponsePayload(frame.payload);
      rx_.erase(0, frame.frame_bytes);
      return response;
    }
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      rx_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::IOError("UDWIRE client: server closed the connection");
    }
    if (errno == EINTR) continue;
    return Errno("read");
  }
}

namespace {

wire::DetectResponse TypedClientError(uint64_t request_id, wire::WireCode code,
                                      std::string_view message) {
  wire::DetectResponse response;
  response.request_id = request_id;
  response.code = code;
  response.error = std::string(message);
  return response;
}

}  // namespace

Result<std::unique_ptr<AsyncUdwireClient>> AsyncUdwireClient::Connect(
    const std::string& host, uint16_t port) {
  UNIDETECT_ASSIGN_OR_RETURN(const int fd, ConnectTcp(host, port));
  const int wakeup = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup < 0) {
    const Status status = Errno("eventfd");
    close(fd);
    return status;
  }
  return std::unique_ptr<AsyncUdwireClient>(new AsyncUdwireClient(fd, wakeup));
}

AsyncUdwireClient::AsyncUdwireClient(int fd, int wakeup_fd)
    : fd_(fd), wakeup_fd_(wakeup_fd) {
  receiver_ = std::thread([this] { ReceiverLoop(); });
}

AsyncUdwireClient::~AsyncUdwireClient() {
  stop_.store(true, std::memory_order_release);
  Wake();
  if (receiver_.joinable()) receiver_.join();
  // The receiver failed every outstanding request before exiting.
  close(wakeup_fd_);
  close(fd_);
}

void AsyncUdwireClient::Wake() {
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the poll; nothing to do.
  [[maybe_unused]] const ssize_t ignored =
      write(wakeup_fd_, &one, sizeof(one));
}

uint64_t AsyncUdwireClient::Detect(wire::DetectRequest request, Callback done,
                                   int64_t timeout_ms) {
  uint64_t id = 0;
  bool rejected = false;
  const bool has_deadline = timeout_ms > 0;
  {
    MutexLock lock(&mu_);
    id = next_id_++;
    if (broken_.load(std::memory_order_acquire) ||
        stop_.load(std::memory_order_acquire)) {
      rejected = true;
    } else {
      Pending entry;
      entry.done = std::move(done);
      if (has_deadline) {
        entry.deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeout_ms);
      }
      pending_.emplace(id, std::move(entry));
    }
  }
  if (rejected) {
    done(TypedClientError(id, wire::WireCode::kUnavailable,
                          "async client: connection is broken"));
    return id;
  }

  request.request_id = id;
  const std::string frame = wire::EncodeDetectRequest(request);
  Status sent;
  {
    // Whole-frame writes under one lock: concurrent Detect() calls must
    // not interleave bytes on the stream.
    MutexLock lock(&write_mu_);
    sent = WriteAll(fd_, frame);
  }
  if (!sent.ok()) {
    // The receiver fails everything outstanding (this request
    // included) once it observes broken_.
    broken_.store(true, std::memory_order_release);
    Wake();
  } else if (has_deadline) {
    Wake();  // recompute the poll timeout against the new deadline
  }
  return id;
}

wire::DetectResponse AsyncUdwireClient::DetectSync(wire::DetectRequest request,
                                                   int64_t timeout_ms) {
  struct Slot {
    Mutex mu;
    CondVar cv;
    bool done = false;
    wire::DetectResponse response;
  };
  // shared_ptr: the callback may outlive this stack frame only in the
  // broken-inline path ordering sense; keep it safe unconditionally.
  auto slot = std::make_shared<Slot>();
  Detect(
      std::move(request),
      [slot](wire::DetectResponse response) {
        MutexLock lock(&slot->mu);
        slot->response = std::move(response);
        slot->done = true;
        slot->cv.NotifyAll();
      },
      timeout_ms);
  MutexLock lock(&slot->mu);
  while (!slot->done) slot->cv.Wait(slot->mu);
  return std::move(slot->response);
}

size_t AsyncUdwireClient::pending() const {
  MutexLock lock(&mu_);
  return pending_.size();
}

std::map<uint64_t, AsyncUdwireClient::Pending>
AsyncUdwireClient::BreakAndTakeAll() {
  std::map<uint64_t, Pending> taken;
  MutexLock lock(&mu_);
  broken_.store(true, std::memory_order_release);
  taken.swap(pending_);
  return taken;
}

bool AsyncUdwireClient::DecodeFrames() {
  for (;;) {
    Result<std::optional<wire::FrameView>> parsed =
        wire::TryParseFrame(rx_, wire::kAbsoluteMaxPayload);
    if (!parsed.ok()) return false;  // framing lost; no resync point
    if (!parsed->has_value()) return true;
    const wire::FrameView frame = **parsed;
    if (frame.type != wire::FrameType::kDetectResponse) return false;
    Result<wire::DetectResponse> response =
        wire::DecodeDetectResponsePayload(frame.payload);
    rx_.erase(0, frame.frame_bytes);
    if (!response.ok()) return false;
    // Extraction under mu_ is the exactly-once gate: whichever of
    // {response, deadline, teardown} takes the entry first completes it;
    // the others find nothing.
    std::optional<Pending> entry;
    {
      MutexLock lock(&mu_);
      const auto it = pending_.find(response->request_id);
      if (it != pending_.end()) {
        entry = std::move(it->second);
        pending_.erase(it);
      }
    }
    if (entry.has_value()) {
      entry->done(std::move(response).ValueOrDie());
    }
    // else: a late response for a deadline-expired id — dropped.
  }
}

void AsyncUdwireClient::ExpireDeadlines(
    std::chrono::steady_clock::time_point now) {
  std::vector<std::pair<uint64_t, Pending>> expired;
  {
    MutexLock lock(&mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.deadline.has_value() && *it->second.deadline <= now) {
        expired.emplace_back(it->first, std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [id, entry] : expired) {
    entry.done(TypedClientError(id, wire::WireCode::kDeadlineExceeded,
                                "async client: deadline exceeded"));
  }
}

void AsyncUdwireClient::ReceiverLoop() {
  char buf[64 << 10];
  while (!stop_.load(std::memory_order_acquire) &&
         !broken_.load(std::memory_order_acquire)) {
    // Poll until the nearest client-side deadline (or forever).
    int timeout_ms = -1;
    const auto now = std::chrono::steady_clock::now();
    {
      MutexLock lock(&mu_);
      for (const auto& [id, entry] : pending_) {
        if (!entry.deadline.has_value()) continue;
        const auto remaining = std::chrono::duration_cast<
            std::chrono::milliseconds>(*entry.deadline - now).count();
        const int clamped =
            remaining <= 0 ? 0
                           : static_cast<int>(std::min<int64_t>(
                                 remaining + 1, 60 * 1000));
        if (timeout_ms < 0 || clamped < timeout_ms) timeout_ms = clamped;
      }
    }

    struct pollfd fds[2] = {};
    fds[0].fd = fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wakeup_fd_;
    fds[1].events = POLLIN;
    const int n = poll(fds, 2, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failed; tear down
    }
    if (fds[1].revents & POLLIN) {
      uint64_t counter = 0;
      while (read(wakeup_fd_, &counter, sizeof(counter)) > 0) {
      }
    }
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      const ssize_t r = read(fd_, buf, sizeof(buf));
      if (r > 0) {
        rx_.append(buf, static_cast<size_t>(r));
        if (!DecodeFrames()) break;  // protocol broken
      } else if (r == 0) {
        break;  // server closed the connection
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        break;  // transport error
      }
    }
    ExpireDeadlines(std::chrono::steady_clock::now());
  }
  // Fail everything still outstanding, exactly once, under the same
  // lock discipline Detect() inserts with.
  std::map<uint64_t, Pending> orphaned = BreakAndTakeAll();
  for (auto& [id, entry] : orphaned) {
    entry.done(TypedClientError(id, wire::WireCode::kUnavailable,
                                "async client: connection closed"));
  }
}

Result<std::string> HttpFetch(const std::string& host, uint16_t port,
                              std::string_view method, std::string_view target,
                              std::string_view body) {
  UNIDETECT_ASSIGN_OR_RETURN(const int fd, ConnectTcp(host, port));
  std::string request = StrCat(method, " ", target,
                               " HTTP/1.1\r\nHost: ", host,
                               "\r\nConnection: close\r\n");
  if (!body.empty()) {
    StrAppend(&request, "Content-Length: ", body.size(), "\r\n");
  }
  request.append("\r\n");
  request.append(body);
  const Status sent = WriteAll(fd, request);
  if (!sent.ok()) {
    close(fd);
    return sent;
  }
  // Connection: close — the response is simply everything until EOF.
  std::string response;
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      response.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Status status = Errno("read");
      close(fd);
      return status;
    }
    break;
  }
  close(fd);
  return response;
}

}  // namespace unidetect
