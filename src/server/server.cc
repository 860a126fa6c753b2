#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "detect/finding_json.h"
#include "server/socket_options.h"
#include "table/table.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace unidetect {

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrCat(what, ": ", strerror(errno)));
}

// Maps a wire code onto the closest HTTP status for the /detect route.
int HttpStatusFor(wire::WireCode code) {
  switch (code) {
    case wire::WireCode::kOk:
      return 200;
    case wire::WireCode::kInvalidArgument:
    case wire::WireCode::kMalformed:
      return 400;
    case wire::WireCode::kOverloaded:
    case wire::WireCode::kUnavailable:
      return 503;
    case wire::WireCode::kDeadlineExceeded:
      return 504;
    case wire::WireCode::kInternal:
      return 500;
  }
  return 500;
}

}  // namespace

DetectionServer::DetectionServer(DetectionService* service,
                                 ServerOptions options)
    : service_(service), options_(std::move(options)) {}

DetectionServer::~DetectionServer() { Stop(); }

Result<int> DetectionServer::OpenListener(uint16_t port, bool reuse_port,
                                          uint16_t* bound_port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int enable = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  if (reuse_port &&
      setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &enable, sizeof(enable)) != 0) {
    const Status status = Errno("setsockopt(SO_REUSEPORT)");
    close(fd);
    return status;
  }

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr =
      htonl(options_.loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  // sockaddr_in -> sockaddr is the BSD socket ABI contract, a trusted
  // in-memory cast, not wire decoding. NOLINTNEXTLINE(unsafe-bytes)
  if (bind(fd, reinterpret_cast<const struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    const Status status = Errno("bind");
    close(fd);
    return status;
  }
  if (listen(fd, SOMAXCONN) != 0) {
    const Status status = Errno("listen");
    close(fd);
    return status;
  }

  struct sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  // NOLINTNEXTLINE(unsafe-bytes) — same trusted sockaddr ABI cast.
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                  &bound_len) != 0) {
    const Status status = Errno("getsockname");
    close(fd);
    return status;
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

Status DetectionServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  const size_t shard_count = std::max<size_t>(1, options_.io_threads);
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    if (!shard->loop.ok()) {
      const Status status = shard->loop.status();
      shards_.clear();
      return status;
    }
    shards_.push_back(std::move(shard));
  }

  auto abort_start = [this](Status status) {
    for (auto& shard : shards_) {
      if (shard->listen_fd >= 0) close(shard->listen_fd);
      if (shard->spare_fd >= 0) close(shard->spare_fd);
    }
    shards_.clear();
    return status;
  };

  // Every shard binds its own listener; shard 0's resolves the (possibly
  // ephemeral) port the others share through SO_REUSEPORT.
  const bool reuse_port = shard_count > 1;
  for (size_t i = 0; i < shard_count; ++i) {
    uint16_t bound_port = 0;
    Result<int> fd = OpenListener(i == 0 ? options_.port : bound_port_,
                                  reuse_port, &bound_port);
    if (!fd.ok()) return abort_start(fd.status());
    if (i == 0) bound_port_ = bound_port;
    Shard* raw = shards_[i].get();
    raw->listen_fd = *fd;
    raw->spare_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (raw->spare_fd < 0) return abort_start(Errno("open(/dev/null)"));
    const Status added = raw->loop.Add(
        raw->listen_fd, EPOLLIN,
        [this, raw](uint32_t /*events*/) { OnListenReady(raw); });
    if (!added.ok()) return abort_start(added);
  }

  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->thread = std::thread([raw] { raw->loop.Run(); });
  }
  started_ = true;
  return Status::OK();
}

void DetectionServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Every decoded request was answered inline on its loop thread, so by
  // the time a shard runs this post its responses are all in tx.
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    raw->loop.Post([this, raw] { FinalFlushAndStop(raw); });
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void DetectionServer::OnListenReady(Shard* shard) {
  for (;;) {
    const int fd = accept4(shard->listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) ShedPendingConnection(shard);
      return;
    }
    if (!SetTcpNoDelay(fd).ok()) {
      metrics_.Add(ServerMetric::kConnectionsRejected);
      close(fd);
      continue;
    }
    // Claim a connection slot up front so the cap is one global bound
    // even when several shards accept concurrently.
    if (total_connections_.fetch_add(1, std::memory_order_relaxed) >=
        options_.max_connections) {
      total_connections_.fetch_sub(1, std::memory_order_relaxed);
      metrics_.Add(ServerMetric::kConnectionsRejected);
      close(fd);
      continue;
    }
    RegisterConnection(shard, fd);
  }
}

void DetectionServer::ShedPendingConnection(Shard* shard) {
  if (shard->spare_fd >= 0) close(shard->spare_fd);
  int fd = -1;
  do {
    fd = accept4(shard->listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  // Fails only if another thread took the freed slot first; the
  // listener stays ready and the next wakeup tries again.
  if (fd >= 0) {
    metrics_.Add(ServerMetric::kConnectionsRejected);
    close(fd);
  }
  shard->spare_fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
}

void DetectionServer::RegisterConnection(Shard* shard, int fd) {
  auto conn = std::make_unique<Connection>();
  conn->id = next_connection_id_.fetch_add(1, std::memory_order_relaxed);
  conn->fd = fd;
  const uint64_t id = conn->id;
  shard->connections[id] = std::move(conn);
  shard->accepted.fetch_add(1, std::memory_order_relaxed);
  shard->open_connections.fetch_add(1, std::memory_order_relaxed);
  metrics_.Add(ServerMetric::kConnectionsAccepted);
  const Status added = shard->loop.Add(
      fd, EPOLLIN, [this, shard, id](uint32_t events) {
        OnConnectionReady(shard, id, events);
      });
  if (!added.ok()) CloseConnection(shard, id);
}

void DetectionServer::OnConnectionReady(Shard* shard, uint64_t id,
                                        uint32_t events) {
  const auto it = shard->connections.find(id);
  if (it == shard->connections.end()) return;
  Connection* conn = it->second.get();

  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConnection(shard, id);
    return;
  }

  if (events & EPOLLIN) {
    char buf[64 << 10];
    for (;;) {
      const ssize_t n = read(conn->fd, buf, sizeof(buf));
      if (n > 0) {
        metrics_.Add(ServerMetric::kBytesRead, static_cast<uint64_t>(n));
        conn->rx.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {  // peer closed its half; nothing more will decode
        CloseConnection(shard, id);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(shard, id);
      return;
    }
    const bool stream_ok = ConsumeRx(shard, conn, Clock::now());
    // ConsumeRx may have freed conn — an HTTP Connection: close
    // response that drained, or a hard send() failure inside QueueWrite
    // (peer RST while its responses were being written). Re-resolve by
    // id before touching conn again on EITHER return value; ids are
    // never reused.
    const auto again = shard->connections.find(id);
    if (again == shard->connections.end()) return;
    conn = again->second.get();
    if (!stream_ok) {
      if (conn->tx.empty()) {
        CloseConnection(shard, id);
        return;
      }
      conn->close_after_flush = true;
    }
  }

  if (events & EPOLLOUT) {
    FlushTx(shard, conn);
    // FlushTx may close; re-check before touching conn again.
    if (shard->connections.find(id) == shard->connections.end()) return;
  }
}

bool DetectionServer::ConsumeRx(Shard* shard, Connection* conn,
                                Clock::time_point read_at) {
  if (conn->protocol == Connection::Protocol::kUnknown) {
    const size_t probe = std::min(conn->rx.size(), wire::kMagic.size());
    if (conn->rx.compare(0, probe, wire::kMagic.substr(0, probe)) == 0) {
      if (conn->rx.size() < wire::kMagic.size()) return true;  // need more
      conn->protocol = Connection::Protocol::kUdwire;
    } else {
      conn->protocol = Connection::Protocol::kHttp;
    }
  }
  return conn->protocol == Connection::Protocol::kUdwire
             ? ConsumeUdwire(shard, conn, read_at)
             : ConsumeHttp(shard, conn, read_at);
}

bool DetectionServer::ConsumeUdwire(Shard* shard, Connection* conn,
                                    Clock::time_point read_at) {
  for (;;) {
    Result<std::optional<wire::FrameView>> parsed =
        wire::TryParseFrame(conn->rx, options_.max_frame_payload);
    if (!parsed.ok()) {
      // Framing is gone; after a bad header there is no resync point.
      metrics_.Add(ServerMetric::kProtocolErrors);
      metrics_.Add(ServerMetric::kResponsesError);
      QueueWrite(shard, conn,
                 wire::EncodeErrorResponseFrame(
                     0, wire::WireCode::kMalformed,
                     parsed.status().message()));
      return false;
    }
    if (!parsed->has_value()) return true;  // partial frame
    const wire::FrameView frame = **parsed;

    // QueueWrite may free conn on a write error; ids are never reused,
    // so re-resolving by id detects that before the loop touches rx.
    const uint64_t id = conn->id;

    if (frame.type != wire::FrameType::kDetectRequest) {
      metrics_.Add(ServerMetric::kProtocolErrors);
      metrics_.Add(ServerMetric::kResponsesError);
      conn->rx.erase(0, frame.frame_bytes);
      QueueWrite(shard, conn, wire::EncodeErrorResponseFrame(
                                  0, wire::WireCode::kInvalidArgument,
                                  "unexpected frame type (want detect request)"));
      if (shard->connections.find(id) == shard->connections.end()) return true;
      continue;
    }

    Result<wire::DetectRequest> request =
        wire::DecodeDetectRequestPayload(frame.payload);
    conn->rx.erase(0, frame.frame_bytes);
    if (!request.ok()) {
      // The frame boundary held, so the stream can continue; only this
      // request is rejected.
      metrics_.Add(ServerMetric::kProtocolErrors);
      metrics_.Add(ServerMetric::kResponsesError);
      QueueWrite(shard, conn, wire::EncodeErrorResponseFrame(
                                  0, wire::WireCode::kMalformed,
                                  request.status().message()));
      if (shard->connections.find(id) == shard->connections.end()) return true;
      continue;
    }
    metrics_.Add(ServerMetric::kRequests);
    const wire::DetectResponse response = Detect(*request, read_at);
    QueueWrite(shard, conn,
               response.code == wire::WireCode::kOk
                   ? wire::EncodeOkResponseFrame(response.request_id,
                                                 response.generation,
                                                 response.per_table)
                   : wire::EncodeErrorResponseFrame(
                         response.request_id, response.code, response.error));
    if (shard->connections.find(id) == shard->connections.end()) return true;
  }
}

wire::DetectResponse DetectionServer::Detect(const wire::DetectRequest& request,
                                             Clock::time_point read_at) {
  wire::DetectResponse response;
  response.request_id = request.request_id;
  const Clock::time_point start = Clock::now();
  metrics_.queue_latency().Observe(
      std::chrono::duration_cast<std::chrono::microseconds>(start - read_at)
          .count());
  if (request.deadline_ms != 0 &&
      start > read_at + std::chrono::milliseconds(request.deadline_ms)) {
    metrics_.Add(ServerMetric::kExpiredDeadline);
    metrics_.Add(ServerMetric::kResponsesError);
    response.code = wire::WireCode::kDeadlineExceeded;
    response.error = "deadline passed before detection started";
    return response;
  }

  std::optional<UniDetectOptions> override_options;
  if (request.options.has_override) {
    override_options =
        wire::ApplyRequestOptions(service_->options(), request.options);
  }
  metrics_.Add(ServerMetric::kBatches);
  metrics_.Add(ServerMetric::kBatchedTables, request.tables.size());
  DetectionService::BatchResult result = service_->DetectBatch(
      request.tables, override_options ? &*override_options : nullptr);
  response.code = wire::WireCode::kOk;
  response.generation = result.generation;
  response.per_table = std::move(result.per_table);

  const Clock::time_point now = Clock::now();
  metrics_.Add(ServerMetric::kResponsesOk);
  metrics_.request_latency().Observe(
      std::chrono::duration_cast<std::chrono::microseconds>(now - read_at)
          .count());
  return response;
}

bool DetectionServer::ConsumeHttp(Shard* shard, Connection* conn,
                                  Clock::time_point read_at) {
  for (;;) {
    Result<std::optional<http::Request>> parsed =
        http::TryParseRequest(conn->rx, options_.http_limits);
    if (!parsed.ok()) {
      metrics_.Add(ServerMetric::kProtocolErrors);
      QueueWrite(shard, conn, http::EncodeResponse(
                                  400, "Bad Request", "text/plain",
                                  StrCat(parsed.status().message(), "\n"),
                                  /*keep_alive=*/false));
      return false;
    }
    if (!parsed->has_value()) return true;  // partial request
    // `request` borrows views into conn->rx — rx must stay intact
    // until the handler returns.
    const http::Request request = **parsed;
    metrics_.Add(ServerMetric::kHttpRequests);
    const uint64_t id = conn->id;
    const size_t consumed = request.consumed;
    const bool keep_alive = request.keep_alive;
    // Connection: close — mark it before handling, so a synchronous
    // response closes the socket as its last byte drains.
    if (!keep_alive) conn->close_after_flush = true;
    HandleHttpRequest(shard, conn, request, read_at);
    // The handler may have freed conn (close-after-flush drained, or a
    // write error); ids are never reused, so re-resolve before rx.
    if (shard->connections.find(id) == shard->connections.end()) return true;
    if (!keep_alive) return true;  // no pipelining past a final request
    conn->rx.erase(0, consumed);
  }
}

void DetectionServer::HandleHttpRequest(Shard* shard, Connection* conn,
                                        const http::Request& request,
                                        Clock::time_point read_at) {
  if (request.method == "GET" && request.target == "/healthz") {
    QueueWrite(shard, conn, http::EncodeResponse(200, "OK", "text/plain",
                                                 "ok\n", request.keep_alive));
    return;
  }
  if (request.method == "GET" && request.target == "/metrics") {
    QueueWrite(shard, conn,
               http::EncodeResponse(200, "OK", "text/plain; version=0.0.4",
                                    MetricsText(), request.keep_alive));
    return;
  }
  if (request.method == "POST" && request.target == "/detect") {
    Result<CsvData> csv = ParseCsv(request.body);
    if (!csv.ok()) {
      QueueWrite(shard, conn, http::EncodeResponse(
                                  400, "Bad Request", "text/plain",
                                  StrCat(csv.status().message(), "\n"),
                                  request.keep_alive));
      return;
    }
    Result<Table> table = Table::FromCsv(*csv, "http");
    if (!table.ok()) {
      QueueWrite(shard, conn, http::EncodeResponse(
                                  400, "Bad Request", "text/plain",
                                  StrCat(table.status().message(), "\n"),
                                  request.keep_alive));
      return;
    }
    wire::DetectRequest detect;
    detect.tables.push_back(std::move(table).ValueOrDie());
    metrics_.Add(ServerMetric::kRequests);
    const wire::DetectResponse response = Detect(detect, read_at);
    if (response.code != wire::WireCode::kOk) {
      QueueWrite(shard, conn,
                 http::EncodeResponse(HttpStatusFor(response.code),
                                      wire::WireCodeName(response.code),
                                      "text/plain",
                                      StrCat(response.error, "\n"),
                                      request.keep_alive));
      return;
    }
    std::string body = StrCat("{\"generation\":", response.generation,
                              ",\"findings\":");
    body.append(FindingsToJson(response.per_table[0]));
    body.append("}\n");
    QueueWrite(shard, conn,
               http::EncodeResponse(200, "OK", "application/json", body,
                                    request.keep_alive));
    return;
  }
  QueueWrite(shard, conn,
             http::EncodeResponse(404, "Not Found", "text/plain",
                                  "no such route\n", request.keep_alive));
}

void DetectionServer::QueueWrite(Shard* shard, Connection* conn,
                                 std::string_view bytes) {
  conn->tx.append(bytes);
  FlushTx(shard, conn);
}

void DetectionServer::FlushTx(Shard* shard, Connection* conn) {
  while (!conn->tx.empty()) {
    const ssize_t n =
        send(conn->fd, conn->tx.data(), conn->tx.size(), MSG_NOSIGNAL);
    if (n > 0) {
      metrics_.Add(ServerMetric::kBytesWritten, static_cast<uint64_t>(n));
      conn->tx.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        shard->loop.Modify(conn->fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(shard, conn->id);  // peer reset mid-write
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    shard->loop.Modify(conn->fd, EPOLLIN);
  }
  if (conn->close_after_flush) CloseConnection(shard, conn->id);
}

void DetectionServer::CloseConnection(Shard* shard, uint64_t id) {
  const auto it = shard->connections.find(id);
  if (it == shard->connections.end()) return;
  Connection* conn = it->second.get();
  shard->loop.Remove(conn->fd);
  close(conn->fd);
  shard->connections.erase(it);
  shard->open_connections.fetch_sub(1, std::memory_order_relaxed);
  total_connections_.fetch_sub(1, std::memory_order_relaxed);
  metrics_.Add(ServerMetric::kConnectionsClosed);
}

void DetectionServer::FinalFlushAndStop(Shard* shard) {
  // New connections see ECONNREFUSED from here on.
  shard->loop.Remove(shard->listen_fd);
  close(shard->listen_fd);
  shard->listen_fd = -1;
  if (shard->spare_fd >= 0) close(shard->spare_fd);
  shard->spare_fd = -1;
  // Flush with bounded patience: a peer that stopped reading cannot
  // hold shutdown hostage.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (auto& [id, conn] : shard->connections) {
    while (!conn->tx.empty() && std::chrono::steady_clock::now() < give_up) {
      const ssize_t n =
          send(conn->fd, conn->tx.data(), conn->tx.size(), MSG_NOSIGNAL);
      if (n > 0) {
        metrics_.Add(ServerMetric::kBytesWritten, static_cast<uint64_t>(n));
        conn->tx.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      break;  // peer gone
    }
  }
  while (!shard->connections.empty()) {
    CloseConnection(shard, shard->connections.begin()->first);
  }
  shard->loop.Stop();
}

std::string DetectionServer::MetricsText() const {
  std::string out;
  out.reserve(4096);

  // Front-end counters, one Prometheus counter per ServerMetric entry.
  for (const ServerMetricEntry& entry : kServerMetricEntries) {
    const std::string name = StrCat("unidetect_", entry.name, "_total");
    StrAppend(&out, "# TYPE ", name, " counter\n");
    AppendPrometheusLine(name, "", metrics_.Count(entry.metric), &out);
  }

  // Gauges.
  out.append("# TYPE unidetect_io_threads gauge\n");
  AppendPrometheusLine("unidetect_io_threads", "", shards_.size(), &out);

  // Per-shard accept counters and open-connection gauges, labelled by
  // shard index so dashboards can see the kernel's SO_REUSEPORT spread.
  out.append("# TYPE unidetect_shard_accepted_total counter\n");
  for (size_t i = 0; i < shards_.size(); ++i) {
    AppendPrometheusLine("unidetect_shard_accepted_total",
                         StrCat("shard=\"", i, "\""),
                         shards_[i]->accepted.load(std::memory_order_relaxed),
                         &out);
  }
  out.append("# TYPE unidetect_shard_open_connections gauge\n");
  for (size_t i = 0; i < shards_.size(); ++i) {
    AppendPrometheusLine(
        "unidetect_shard_open_connections", StrCat("shard=\"", i, "\""),
        shards_[i]->open_connections.load(std::memory_order_relaxed), &out);
  }

  AppendPrometheusHistogram("unidetect_request_latency_microseconds",
                            metrics_.request_latency(), &out);
  AppendPrometheusHistogram("unidetect_queue_latency_microseconds",
                            metrics_.queue_latency(), &out);

  // The serving tier underneath, so one scrape covers the stack.
  const ServiceStats service = service_->Stats();
  const struct {
    const char* name;
    const char* type;
    uint64_t value;
  } service_rows[] = {
      {"unidetect_service_requests_total", "counter", service.requests},
      {"unidetect_service_tables_total", "counter", service.tables},
      {"unidetect_service_findings_total", "counter", service.findings},
      {"unidetect_service_reloads_total", "counter", service.reloads},
      {"unidetect_service_failed_reloads_total", "counter",
       service.failed_reloads},
      {"unidetect_service_applied_deltas_total", "counter",
       service.applied_deltas},
      {"unidetect_service_compactions_total", "counter", service.compactions},
      {"unidetect_service_cache_hits_total", "counter", service.cache_hits},
      {"unidetect_service_cache_misses_total", "counter",
       service.cache_misses},
      {"unidetect_service_generation", "gauge", service.generation},
      {"unidetect_service_delta_layers", "gauge", service.delta_layers},
      {"unidetect_service_model_resident_bytes", "gauge",
       service.model_resident_bytes},
      {"unidetect_service_model_mapped_bytes", "gauge",
       service.model_mapped_bytes},
  };
  for (const auto& row : service_rows) {
    StrAppend(&out, "# TYPE ", row.name, " ", row.type, "\n");
    AppendPrometheusLine(row.name, "", row.value, &out);
  }
  return out;
}

}  // namespace unidetect
