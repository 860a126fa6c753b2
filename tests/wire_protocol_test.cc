// UDWIRE v1 protocol tests (server/wire.h): encode/decode round trips
// preserve every byte, and the decoders uphold the untrusted-bytes
// contract — truncated, oversized, or garbage frames produce typed
// errors (never a crash, never an unbounded allocation). The mutation
// sweep in tests/snapshot_fuzz_smoke_test.cc replays the same decoders
// under a seeded corruption menu; these tests pin the specific shapes.

#include "server/wire.h"

#include <array>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "server/http.h"
#include "table/table.h"
#include "util/binary_io.h"
#include "util/string_util.h"

namespace unidetect {
namespace wire {
namespace {

Table MakeTable(const std::string& name, size_t rows) {
  Table table(name);
  std::vector<std::string> ids, values;
  for (size_t i = 0; i < rows; ++i) {
    ids.push_back(std::to_string(i));
    values.push_back("v" + std::to_string(i * 7 % 13));
  }
  EXPECT_TRUE(table.AddColumn(Column("id", ids)).ok());
  EXPECT_TRUE(table.AddColumn(Column("value", values)).ok());
  return table;
}

DetectRequest MakeRequest() {
  DetectRequest request;
  request.request_id = 0xABCDEF0123456789ull;
  request.deadline_ms = 250;
  request.options.has_override = true;
  request.options.alpha = 0.01;
  request.options.detect_mask = 0x1F;
  request.options.use_dictionary = true;
  request.tables.push_back(MakeTable("alpha", 5));
  request.tables.push_back(MakeTable("beta", 3));
  return request;
}

// A complete encoded frame, parsed back to its payload view.
std::string_view PayloadOf(const std::string& frame) {
  auto parsed = TryParseFrame(frame, kAbsoluteMaxPayload);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->has_value());
  return (*parsed)->payload;
}

// ---------------------------------------------------------------------------
// Round trips

TEST(WireProtocolTest, RequestRoundTripIsCellExact) {
  const DetectRequest request = MakeRequest();
  const std::string frame = EncodeDetectRequest(request);
  auto decoded = DecodeDetectRequestPayload(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  EXPECT_EQ(decoded->request_id, request.request_id);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
  EXPECT_TRUE(decoded->options.has_override);
  EXPECT_EQ(decoded->options.alpha, request.options.alpha);
  EXPECT_EQ(decoded->options.detect_mask, request.options.detect_mask);
  EXPECT_EQ(decoded->options.use_dictionary, request.options.use_dictionary);

  // Cell-exact: the wire carries length-prefixed strings, not a CSV
  // re-serialization, so every byte of every cell survives.
  ASSERT_EQ(decoded->tables.size(), request.tables.size());
  for (size_t t = 0; t < request.tables.size(); ++t) {
    const Table& in = request.tables[t];
    const Table& out = decoded->tables[t];
    EXPECT_EQ(out.name(), in.name());
    ASSERT_EQ(out.num_columns(), in.num_columns());
    for (size_t c = 0; c < in.num_columns(); ++c) {
      EXPECT_EQ(out.column(c).name(), in.column(c).name());
      EXPECT_EQ(out.column(c).cells(), in.column(c).cells());
    }
  }
}

TEST(WireProtocolTest, HostileCellBytesSurviveRoundTrip) {
  Table table("hostile");
  ASSERT_TRUE(
      table
          .AddColumn(Column("c", {std::string("a\0b", 3), "comma,quote\"",
                                  "\r\n", std::string(1000, 'x')}))
          .ok());
  DetectRequest request;
  request.request_id = 1;
  request.tables.push_back(table);
  auto decoded =
      DecodeDetectRequestPayload(PayloadOf(EncodeDetectRequest(request)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tables[0].column(0).cells(), table.column(0).cells());
}

TEST(WireProtocolTest, OkResponseRoundTrip) {
  Finding finding;
  finding.error_class = ErrorClass::kSpelling;
  finding.table_name = "alpha";
  finding.table_index = 1;
  finding.column = 2;
  finding.rows = {3, 9};
  finding.value = "Mississippi|Missisippi";
  finding.score = 0.00042;
  finding.explanation = "edit distance 1 at length 11";
  std::vector<std::vector<Finding>> per_table = {{finding}, {}};

  const std::string frame = EncodeOkResponseFrame(7, 42, per_table);
  auto decoded = DecodeDetectResponsePayload(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_EQ(decoded->code, WireCode::kOk);
  EXPECT_EQ(decoded->generation, 42u);
  ASSERT_EQ(decoded->per_table.size(), 2u);
  ASSERT_EQ(decoded->per_table[0].size(), 1u);
  EXPECT_TRUE(decoded->per_table[1].empty());
  const Finding& out = decoded->per_table[0][0];
  EXPECT_EQ(out.error_class, finding.error_class);
  EXPECT_EQ(out.table_name, finding.table_name);
  EXPECT_EQ(out.table_index, finding.table_index);
  EXPECT_EQ(out.column, finding.column);
  EXPECT_EQ(out.column2, finding.column2);
  EXPECT_EQ(out.rows, finding.rows);
  EXPECT_EQ(out.value, finding.value);
  EXPECT_EQ(out.score, finding.score);
  EXPECT_EQ(out.explanation, finding.explanation);
}

TEST(WireProtocolTest, ErrorResponseRoundTrip) {
  const std::string frame = EncodeErrorResponseFrame(
      9, WireCode::kOverloaded, "admission queue full");
  auto decoded = DecodeDetectResponsePayload(PayloadOf(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, 9u);
  EXPECT_EQ(decoded->code, WireCode::kOverloaded);
  EXPECT_EQ(decoded->error, "admission queue full");
  EXPECT_TRUE(decoded->per_table.empty());
}

// ---------------------------------------------------------------------------
// Incremental framing

TEST(WireProtocolTest, PartialFramesAskForMoreBytes) {
  const std::string frame = EncodeDetectRequest(MakeRequest());
  // Every proper prefix — including a partial header — is "need more",
  // not an error.
  for (const size_t cut : {size_t{0}, size_t{1}, size_t{3},
                           kHeaderBytes - 1, kHeaderBytes,
                           frame.size() - 1}) {
    auto parsed = TryParseFrame(std::string_view(frame).substr(0, cut),
                                kAbsoluteMaxPayload);
    ASSERT_TRUE(parsed.ok()) << "prefix of " << cut << " bytes";
    EXPECT_FALSE(parsed->has_value()) << "prefix of " << cut << " bytes";
  }
  auto whole = TryParseFrame(frame, kAbsoluteMaxPayload);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(whole->has_value());
  EXPECT_EQ((*whole)->frame_bytes, frame.size());
}

TEST(WireProtocolTest, NonUdwirePrefixIsInvalidArgument) {
  // The protocol-sniff contract: bytes that can never extend the magic
  // come back InvalidArgument, which the server uses to fall through to
  // the HTTP adapter.
  auto parsed = TryParseFrame("GET /healthz HTTP/1.1\r\n", 1024);
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
}

TEST(WireProtocolTest, OversizedPayloadRejectedWithoutAllocation) {
  // A hostile length just under 4 GiB must be refused from the header
  // alone — before any buffering or allocation.
  std::string header = "UDW1";
  header.push_back('\x01');            // type: detect request
  header.append(3, '\0');              // reserved
  header.append("\xff\xff\xff\xfe");   // u32 payload length
  auto parsed = TryParseFrame(header, /*max_payload=*/1u << 20);
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
}

TEST(WireProtocolTest, UnknownFrameTypeAndReservedBytesRejected) {
  std::string frame = EncodeDetectRequest(MakeRequest());
  std::string bad_type = frame;
  bad_type[4] = '\x09';
  EXPECT_FALSE(TryParseFrame(bad_type, kAbsoluteMaxPayload).ok());

  std::string bad_reserved = frame;
  bad_reserved[6] = '\x01';
  EXPECT_FALSE(TryParseFrame(bad_reserved, kAbsoluteMaxPayload).ok());
}

// ---------------------------------------------------------------------------
// Hostile payloads: typed errors, never crashes

TEST(WireProtocolTest, TruncatedPayloadsAreTypedErrors) {
  const std::string frame = EncodeDetectRequest(MakeRequest());
  const std::string_view payload = PayloadOf(frame);
  // Chop the payload at every length: each truncation must decode to a
  // typed error (the frame said N bytes; fewer cannot satisfy it).
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeDetectRequestPayload(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "truncated at " << cut;
  }
}

TEST(WireProtocolTest, TrailingGarbageIsRejected) {
  const std::string frame = EncodeDetectRequest(MakeRequest());
  std::string padded(PayloadOf(frame));
  padded.append("junk");
  auto decoded = DecodeDetectRequestPayload(padded);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(WireProtocolTest, HostileTableCountRejectedByBounds) {
  // request_id + deadline + flags + a table count far beyond what the
  // remaining bytes could encode: the count guard must fire before any
  // reserve/allocate.
  std::string payload;
  payload.append(8, '\0');             // request_id
  payload.append(4, '\0');             // deadline_ms
  payload.push_back('\0');             // flags
  payload.append("\xff\xff\xff\x7f"); // table count ~2^31
  auto decoded = DecodeDetectRequestPayload(payload);
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(WireProtocolTest, HostileDeadlineRejected) {
  DetectRequest request = MakeRequest();
  request.deadline_ms = 0x7FFFFFFF;  // far past the one-hour bound
  const std::string frame = EncodeDetectRequest(request);
  auto decoded = DecodeDetectRequestPayload(PayloadOf(frame));
  EXPECT_FALSE(decoded.ok());
}

TEST(WireProtocolTest, NonzeroFdrSlotIsRejected) {
  // The override block keeps v1's 8-byte fdr_q slot, now reserved and
  // encoded as zero. A client asking for FDR control gets a typed error,
  // not findings the server never filtered.
  const std::string payload(PayloadOf(EncodeDetectRequest(MakeRequest())));
  constexpr size_t kFdrSlot = 8 + 4 + 1 + 8;  // id, deadline, flags, alpha
  ASSERT_EQ(payload.substr(kFdrSlot, 8), std::string(8, '\0'));
  for (const double q : {0.05, 1.0, -0.0}) {
    std::string bad = payload.substr(0, kFdrSlot);
    AppendF64(&bad, q);
    bad.append(payload.substr(kFdrSlot + 8));
    auto decoded = DecodeDetectRequestPayload(bad);
    ASSERT_FALSE(decoded.ok()) << q;
    EXPECT_TRUE(decoded.status().IsCorruption());
    EXPECT_NE(decoded.status().message().find("corpus scans"),
              std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(WireProtocolTest, GarbagePayloadNeverCrashes) {
  // A deterministic pseudo-random byte soup at several lengths; the only
  // contract is "typed error or valid decode", never a crash.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (const size_t len : {size_t{1}, size_t{13}, size_t{64}, size_t{257},
                           size_t{4096}}) {
    std::string payload;
    payload.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      payload.push_back(static_cast<char>(state >> 56));
    }
    (void)DecodeDetectRequestPayload(payload);
    (void)DecodeDetectResponsePayload(payload);
  }
}

// ---------------------------------------------------------------------------
// HTTP adapter framing

TEST(HttpAdapterTest, SingleContentLengthFramesTheBody) {
  auto parsed = http::TryParseRequest(
      "POST /detect HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody",
      http::Limits{});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->has_value());
  EXPECT_EQ((*parsed)->body, "body");
}

TEST(HttpAdapterTest, DuplicateContentLengthIsRejected) {
  // RFC 9112 §6.3: repeated Content-Length makes framing ambiguous
  // (CL/CL smuggling behind a proxy that picks the other value), so any
  // second occurrence — even an identical one — is a typed error.
  for (const char* second : {"Content-Length: 9\r\n", "Content-Length: 4\r\n"}) {
    const std::string raw = StrCat(
        "POST /detect HTTP/1.1\r\nContent-Length: 4\r\n", second, "\r\nbody");
    auto parsed = http::TryParseRequest(raw, http::Limits{});
    EXPECT_FALSE(parsed.ok()) << raw;
    EXPECT_TRUE(parsed.status().IsCorruption());
  }
}

// ---------------------------------------------------------------------------
// Options plumbing

TEST(WireProtocolTest, ApplyRequestOptionsOverridesOnlyNamedFields) {
  UniDetectOptions base;
  base.alpha = 0.05;
  base.pattern_pmi_threshold = -7.0;  // not a per-request field; must survive

  RequestOptions no_override;
  const UniDetectOptions same = ApplyRequestOptions(base, no_override);
  EXPECT_EQ(same.alpha, base.alpha);
  EXPECT_EQ(same.pattern_pmi_threshold, base.pattern_pmi_threshold);

  RequestOptions strict;
  strict.has_override = true;
  strict.alpha = 1e-4;
  strict.detect_mask = 0x03;
  const UniDetectOptions applied = ApplyRequestOptions(base, strict);
  EXPECT_EQ(applied.alpha, 1e-4);
  EXPECT_EQ(applied.pattern_pmi_threshold, base.pattern_pmi_threshold);
  EXPECT_TRUE(applied.detect[0]);
  EXPECT_TRUE(applied.detect[1]);
  EXPECT_FALSE(applied.detect[2]);
}

TEST(WireProtocolTest, DetectMaskRoundTripsTheClassEnables) {
  // udclient --alpha sends the default mask: an override that changes
  // alpha alone must leave the default classes (pattern off) as they are.
  EXPECT_EQ(DetectMask(kDefaultDetectorEnables), 0x0F);
  RequestOptions alpha_only;
  alpha_only.has_override = true;
  alpha_only.alpha = 1.0;
  alpha_only.detect_mask = DetectMask(kDefaultDetectorEnables);
  EXPECT_EQ(ApplyRequestOptions(UniDetectOptions(), alpha_only).detect,
            kDefaultDetectorEnables);

  std::array<bool, kNumErrorClasses> all;
  all.fill(true);
  EXPECT_EQ(DetectMask(all), 0x1F);
  all.fill(false);
  EXPECT_EQ(DetectMask(all), 0x00);
}

}  // namespace
}  // namespace wire
}  // namespace unidetect
