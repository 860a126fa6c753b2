// UDWIRE v1: the length-prefixed binary protocol of the network front
// end (DESIGN.md §16).
//
// Every frame is a fixed 12-byte header followed by one payload:
//
//   [0..4)   magic "UDW1"
//   [4]      u8 frame type (1 = detect request, 2 = detect response)
//   [5..8)   reserved, must be zero
//   [8..12)  u32 payload length (little-endian, bounded by the server's
//            configured maximum)
//
// A detect request carries a client-chosen request id (echoed in the
// response so responses can complete out of order), a relative deadline
// in milliseconds (0 = none; checked just before detection starts),
// optional per-request option overrides, and the tables
// themselves encoded cell-exactly (length-prefixed strings — no CSV
// round-trip, so the served tables are byte-identical to the client's).
// A detect response is either per-table ranked findings plus the model
// generation that served them, or a typed error (WireCode) with a
// message — Overloaded and DeadlineExceeded are first-class codes, not
// dropped connections.
//
// All decoding flows through util/binary_io.h's bounded cursor with
// util/checked.h arithmetic, per the untrusted-bytes rules (DESIGN.md
// §14): a crafted length or count produces a typed error, never a crash
// or an unbounded allocation. The fuzz smoke replays mutated frames
// against these decoders (tests/snapshot_fuzz_smoke_test.cc).

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "detect/finding.h"
#include "detect/unidetect.h"
#include "table/table.h"
#include "util/result.h"
#include "util/status.h"

namespace unidetect {
namespace wire {

inline constexpr std::string_view kMagic = "UDW1";
inline constexpr size_t kHeaderBytes = 12;
/// Frames larger than this are rejected outright regardless of server
/// configuration; servers typically configure a smaller bound.
inline constexpr uint32_t kAbsoluteMaxPayload = 256u << 20;
/// Table-count bound per request; the per-table payloads are bounded by
/// the frame size itself.
inline constexpr uint32_t kMaxTablesPerRequest = 4096;

enum class FrameType : uint8_t {
  kDetectRequest = 1,
  kDetectResponse = 2,
};

/// \brief Typed response codes. kOk carries findings; everything else
/// carries a message. The admission-control outcomes (kOverloaded,
/// kDeadlineExceeded, kUnavailable) are deliberately distinct codes so
/// clients can tell "back off" from "your request was bad".
enum class WireCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,  ///< well-framed but semantically bad request
  kMalformed = 2,        ///< undecodable payload (corrupt bytes)
  kOverloaded = 3,       ///< reserved for load shedding; never sent
  kDeadlineExceeded = 4, ///< deadline passed before detection started
  kUnavailable = 5,      ///< connection lost before the response arrived
  kInternal = 6,
};

const char* WireCodeName(WireCode code);

/// \brief Per-request option overrides: a compact subset of
/// UniDetectOptions that is meaningful per request. `has_override`
/// false means "serve with the service defaults". An override replaces
/// alpha, the class mask and the dictionary switch together: each is
/// applied as sent, so an override that sets only alpha also sends
/// `use_dictionary = false` and turns +Dict off on a service whose
/// defaults turn it on (ApplyRequestOptions). FDR control is not
/// among them: it applies only to corpus scans (UniDetect::DetectCorpus),
/// and a request is served table by table. Its 8-byte slot in the v1
/// override block is reserved: encoded as zero, rejected when not.
struct RequestOptions {
  bool has_override = false;
  double alpha = 0.05;
  /// Bit i enables ErrorClass(i); only the low kNumErrorClasses bits
  /// are meaningful.
  uint8_t detect_mask = 0;
  bool use_dictionary = false;
};

/// \brief The RequestOptions::detect_mask that enables exactly the
/// classes `detect` enables (UniDetectOptions::detect's layout).
uint8_t DetectMask(const std::array<bool, kNumErrorClasses>& detect);

/// \brief Serving options for this request: `base` (the service's own
/// DetectionService::options()) with the override applied, when present.
UniDetectOptions ApplyRequestOptions(const UniDetectOptions& base,
                                     const RequestOptions& options);

struct DetectRequest {
  uint64_t request_id = 0;
  /// Relative deadline in milliseconds from the read that delivered
  /// the request; 0 = none. Checked just before detection starts.
  uint32_t deadline_ms = 0;
  RequestOptions options;
  std::vector<Table> tables;
};

struct DetectResponse {
  uint64_t request_id = 0;
  WireCode code = WireCode::kOk;
  std::string error;  ///< set when code != kOk
  uint64_t generation = 0;
  std::vector<std::vector<Finding>> per_table;
};

/// \brief A parsed frame header + payload view into the caller's buffer.
struct FrameView {
  FrameType type = FrameType::kDetectRequest;
  std::string_view payload;
  /// Total frame size (header + payload) to consume from the buffer.
  size_t frame_bytes = 0;
};

/// \brief Incremental frame parser over a receive buffer. Returns
/// nullopt when the buffer holds only a frame prefix (read more), a
/// FrameView when a complete frame is available, and a typed error
/// (InvalidArgument for a non-UDWIRE prefix, Corruption for a hostile
/// or oversized frame) when the bytes can never become a valid frame.
Result<std::optional<FrameView>> TryParseFrame(std::string_view buffer,
                                               uint32_t max_payload);

std::string EncodeDetectRequest(const DetectRequest& request);
Result<DetectRequest> DecodeDetectRequestPayload(std::string_view payload);

std::string EncodeDetectResponse(const DetectResponse& response);
Result<DetectResponse> DecodeDetectResponsePayload(std::string_view payload);

/// \brief A complete error-response frame (header included).
std::string EncodeErrorResponseFrame(uint64_t request_id, WireCode code,
                                     std::string_view message);

/// \brief Encodes per-table findings as a complete OK response frame.
std::string EncodeOkResponseFrame(
    uint64_t request_id, uint64_t generation,
    const std::vector<std::vector<Finding>>& per_table);

}  // namespace wire
}  // namespace unidetect
