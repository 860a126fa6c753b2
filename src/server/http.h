// Minimal HTTP/1.1 adapter for the network front end: just enough of
// the protocol to serve `GET /healthz`, `GET /metrics` (the metrics
// registry as Prometheus text) and `POST /detect` (CSV body in,
// findings JSON out) to curl and load balancers. Everything fancier — chunked
// encoding, trailers, continuation lines, upgrade — is rejected with a
// typed error; UDWIRE is the production protocol and this adapter is
// the operational window onto it.
//
// Parsing is incremental over the connection's receive buffer, with
// hard bounds on header and body sizes: a peer that streams an
// unbounded header or declares a hostile Content-Length gets a typed
// error (and a 4xx) instead of growing the buffer without limit.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace unidetect {
namespace http {

/// \brief One parsed request. Header storage is borrowed from the
/// caller's buffer; copy anything that must outlive it.
struct Request {
  std::string_view method;
  std::string_view target;
  std::string_view body;
  /// False when the client sent `Connection: close`.
  bool keep_alive = true;
  /// Total bytes (head + body) to consume from the buffer.
  size_t consumed = 0;
};

struct Limits {
  size_t max_head_bytes = 64u << 10;
  size_t max_body_bytes = 8u << 20;
};

/// \brief Incremental request parser. Returns nullopt when the buffer
/// holds only a prefix (read more), a Request when one is complete, and
/// a typed error (Corruption) when the bytes cannot become an
/// acceptable request — oversized head or body, malformed request
/// line, or an unsupported transfer encoding.
Result<std::optional<Request>> TryParseRequest(std::string_view buffer,
                                               const Limits& limits);

/// \brief Serializes one response with Content-Length framing.
std::string EncodeResponse(int status, std::string_view reason,
                           std::string_view content_type,
                           std::string_view body, bool keep_alive);

}  // namespace http
}  // namespace unidetect
