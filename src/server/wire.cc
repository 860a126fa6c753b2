#include "server/wire.h"

#include <cmath>
#include <utility>

#include "util/binary_io.h"
#include "util/checked.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace unidetect {
namespace wire {

namespace {

constexpr uint8_t kFlagHasOverride = 0x1;
// A deadline is relative and short-lived by design; anything past an
// hour is a corrupt or hostile value, not a real serving deadline.
constexpr uint32_t kMaxDeadlineMs = 60u * 60u * 1000u;

std::string FinishFrame(FrameType type, std::string_view payload) {
  UNIDETECT_CHECK(payload.size() <= kAbsoluteMaxPayload);
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(kMagic);
  AppendU8(&frame, static_cast<uint8_t>(type));
  AppendU8(&frame, 0);
  AppendU16(&frame, 0);
  AppendU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

void AppendTable(std::string* out, const Table& table) {
  AppendLengthPrefixed(out, table.name());
  AppendU32(out, static_cast<uint32_t>(table.num_columns()));
  AppendU64(out, table.num_rows());
  for (const Column& column : table.columns()) {
    AppendLengthPrefixed(out, column.name());
    for (const std::string& cell : column.cells()) {
      AppendLengthPrefixed(out, cell);
    }
  }
}

Status DecodeTableInto(BinaryReader& reader, Table* out) {
  std::string_view name;
  if (!reader.ReadLengthPrefixed(&name)) {
    return Status::Corruption("UDWIRE request: truncated table name");
  }
  Table table{std::string(name)};
  uint32_t num_columns = 0;
  uint64_t num_rows = 0;
  if (!reader.ReadU32(&num_columns) || !reader.ReadU64(&num_rows)) {
    return Status::Corruption("UDWIRE request: truncated table shape");
  }
  // Every encoded cell costs at least its 4-byte length prefix, so a
  // row count the remaining bytes cannot possibly satisfy is hostile —
  // reject it before any loop or allocation sees it.
  if (num_rows > reader.remaining() / 4) {
    return Status::Corruption(
        StrCat("UDWIRE request: row count ", num_rows,
               " exceeds what ", reader.remaining(), " bytes can encode"));
  }
  if (num_columns > reader.remaining() / 4) {
    return Status::Corruption(
        StrCat("UDWIRE request: column count ", num_columns,
               " exceeds what ", reader.remaining(), " bytes can encode"));
  }
  UNIDETECT_ASSIGN_OR_RETURN(const size_t rows,
                             CheckedCast<size_t>(num_rows, "table rows"));
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::string_view column_name;
    if (!reader.ReadLengthPrefixed(&column_name)) {
      return Status::Corruption("UDWIRE request: truncated column name");
    }
    std::vector<std::string> cells;
    for (size_t r = 0; r < rows; ++r) {
      std::string_view cell;
      if (!reader.ReadLengthPrefixed(&cell)) {
        return Status::Corruption("UDWIRE request: truncated cell");
      }
      cells.emplace_back(cell);
    }
    UNIDETECT_RETURN_NOT_OK(
        table.AddColumn(Column(std::string(column_name), std::move(cells))));
  }
  *out = std::move(table);
  return Status::OK();
}

void AppendFinding(std::string* out, const Finding& finding) {
  AppendU8(out, static_cast<uint8_t>(finding.error_class));
  AppendLengthPrefixed(out, finding.table_name);
  AppendU64(out, finding.table_index);
  AppendU64(out, finding.column);
  AppendU64(out, finding.column2);
  AppendU32(out, static_cast<uint32_t>(finding.rows.size()));
  for (const size_t row : finding.rows) AppendU64(out, row);
  AppendLengthPrefixed(out, finding.value);
  AppendF64(out, finding.score);
  AppendLengthPrefixed(out, finding.explanation);
}

Status DecodeFindingInto(BinaryReader& reader, Finding* out) {
  uint8_t error_class = 0;
  if (!reader.ReadU8(&error_class)) {
    return Status::Corruption("UDWIRE response: truncated finding");
  }
  if (error_class >= static_cast<uint8_t>(kNumErrorClasses)) {
    return Status::Corruption(
        StrCat("UDWIRE response: unknown error class ", error_class));
  }
  Finding finding;
  finding.error_class = static_cast<ErrorClass>(error_class);
  std::string_view table_name;
  uint64_t table_index = 0;
  uint64_t column = 0;
  uint64_t column2 = 0;
  uint32_t row_count = 0;
  if (!reader.ReadLengthPrefixed(&table_name) ||
      !reader.ReadU64(&table_index) || !reader.ReadU64(&column) ||
      !reader.ReadU64(&column2) || !reader.ReadU32(&row_count)) {
    return Status::Corruption("UDWIRE response: truncated finding fields");
  }
  finding.table_name.assign(table_name);
  UNIDETECT_ASSIGN_OR_RETURN(
      finding.table_index, CheckedCast<size_t>(table_index, "table index"));
  UNIDETECT_ASSIGN_OR_RETURN(finding.column,
                             CheckedCast<size_t>(column, "finding column"));
  UNIDETECT_ASSIGN_OR_RETURN(finding.column2,
                             CheckedCast<size_t>(column2, "finding column2"));
  if (row_count > reader.remaining() / 8) {
    return Status::Corruption(
        StrCat("UDWIRE response: row count ", row_count,
               " exceeds what ", reader.remaining(), " bytes can encode"));
  }
  for (uint32_t r = 0; r < row_count; ++r) {
    uint64_t row = 0;
    if (!reader.ReadU64(&row)) {
      return Status::Corruption("UDWIRE response: truncated finding rows");
    }
    UNIDETECT_ASSIGN_OR_RETURN(const size_t row_index,
                               CheckedCast<size_t>(row, "finding row"));
    finding.rows.push_back(row_index);
  }
  std::string_view value;
  std::string_view explanation;
  if (!reader.ReadLengthPrefixed(&value) || !reader.ReadF64(&finding.score) ||
      !reader.ReadLengthPrefixed(&explanation)) {
    return Status::Corruption("UDWIRE response: truncated finding tail");
  }
  finding.value.assign(value);
  finding.explanation.assign(explanation);
  *out = std::move(finding);
  return Status::OK();
}

std::string EncodeResponsePayload(const DetectResponse& response) {
  std::string payload;
  AppendU64(&payload, response.request_id);
  AppendU8(&payload, static_cast<uint8_t>(response.code));
  if (response.code != WireCode::kOk) {
    AppendLengthPrefixed(&payload, response.error);
    return payload;
  }
  AppendU64(&payload, response.generation);
  AppendU32(&payload, static_cast<uint32_t>(response.per_table.size()));
  for (const std::vector<Finding>& findings : response.per_table) {
    AppendU32(&payload, static_cast<uint32_t>(findings.size()));
    for (const Finding& finding : findings) AppendFinding(&payload, finding);
  }
  return payload;
}

}  // namespace

const char* WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOk:
      return "Ok";
    case WireCode::kInvalidArgument:
      return "InvalidArgument";
    case WireCode::kMalformed:
      return "Malformed";
    case WireCode::kOverloaded:
      return "Overloaded";
    case WireCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case WireCode::kUnavailable:
      return "Unavailable";
    case WireCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

uint8_t DetectMask(const std::array<bool, kNumErrorClasses>& detect) {
  uint8_t mask = 0;
  for (int c = 0; c < kNumErrorClasses; ++c) {
    if (detect[static_cast<size_t>(c)]) mask |= static_cast<uint8_t>(1u << c);
  }
  return mask;
}

UniDetectOptions ApplyRequestOptions(const UniDetectOptions& base,
                                     const RequestOptions& options) {
  UniDetectOptions out = base;
  if (!options.has_override) return out;
  out.alpha = options.alpha;
  out.use_dictionary = options.use_dictionary;
  for (int c = 0; c < kNumErrorClasses; ++c) {
    out.detect[static_cast<size_t>(c)] = ((options.detect_mask >> c) & 1) != 0;
  }
  return out;
}

Result<std::optional<FrameView>> TryParseFrame(std::string_view buffer,
                                               uint32_t max_payload) {
  // Reject a wrong protocol from the very first bytes: a buffer that
  // does not extend the magic can never become a UDWIRE frame, and the
  // server uses exactly this to fall back to the HTTP adapter.
  const size_t prefix = std::min(buffer.size(), kMagic.size());
  if (buffer.substr(0, prefix) != kMagic.substr(0, prefix)) {
    return Status::InvalidArgument("not a UDWIRE frame (bad magic)");
  }
  if (buffer.size() < kHeaderBytes) return std::optional<FrameView>();
  BinaryReader reader(buffer);
  std::string_view magic;
  uint8_t type = 0;
  uint8_t reserved8 = 0;
  uint16_t reserved16 = 0;
  uint32_t payload_len = 0;
  if (!reader.ReadBytes(kMagic.size(), &magic) || !reader.ReadU8(&type) ||
      !reader.ReadU8(&reserved8) || !reader.ReadU16(&reserved16) ||
      !reader.ReadU32(&payload_len)) {
    return Status::Corruption("UDWIRE: unreadable frame header");
  }
  if (type != static_cast<uint8_t>(FrameType::kDetectRequest) &&
      type != static_cast<uint8_t>(FrameType::kDetectResponse)) {
    return Status::Corruption(StrCat("UDWIRE: unknown frame type ", type));
  }
  if (reserved8 != 0 || reserved16 != 0) {
    return Status::Corruption("UDWIRE: nonzero reserved header bytes");
  }
  const uint32_t bound = std::min(max_payload, kAbsoluteMaxPayload);
  if (payload_len > bound) {
    return Status::Corruption(StrCat("UDWIRE: payload of ", payload_len,
                                     " bytes exceeds the limit of ", bound));
  }
  UNIDETECT_ASSIGN_OR_RETURN(
      const uint64_t total,
      CheckedAdd<uint64_t>(kHeaderBytes, payload_len, "frame size"));
  if (buffer.size() < total) return std::optional<FrameView>();
  FrameView view;
  view.type = static_cast<FrameType>(type);
  view.payload = buffer.substr(kHeaderBytes, payload_len);
  UNIDETECT_ASSIGN_OR_RETURN(view.frame_bytes,
                             CheckedCast<size_t>(total, "frame size"));
  return std::optional<FrameView>(view);
}

std::string EncodeDetectRequest(const DetectRequest& request) {
  std::string payload;
  AppendU64(&payload, request.request_id);
  AppendU32(&payload, request.deadline_ms);
  AppendU8(&payload, request.options.has_override ? kFlagHasOverride : 0);
  if (request.options.has_override) {
    AppendF64(&payload, request.options.alpha);
    AppendU64(&payload, 0);  // the reserved fdr_q slot (RequestOptions)
    AppendU8(&payload, request.options.detect_mask);
    AppendU8(&payload, request.options.use_dictionary ? 1 : 0);
  }
  AppendU32(&payload, static_cast<uint32_t>(request.tables.size()));
  for (const Table& table : request.tables) AppendTable(&payload, table);
  return FinishFrame(FrameType::kDetectRequest, payload);
}

Result<DetectRequest> DecodeDetectRequestPayload(std::string_view payload) {
  BinaryReader reader(payload);
  DetectRequest request;
  uint8_t flags = 0;
  if (!reader.ReadU64(&request.request_id) ||
      !reader.ReadU32(&request.deadline_ms) || !reader.ReadU8(&flags)) {
    return Status::Corruption("UDWIRE request: truncated preamble");
  }
  if (request.deadline_ms > kMaxDeadlineMs) {
    return Status::Corruption(StrCat("UDWIRE request: deadline of ",
                                     request.deadline_ms,
                                     "ms exceeds the one-hour bound"));
  }
  if ((flags & static_cast<uint8_t>(~kFlagHasOverride)) != 0) {
    return Status::Corruption(
        StrCat("UDWIRE request: unknown flag bits ", flags));
  }
  if ((flags & kFlagHasOverride) != 0) {
    request.options.has_override = true;
    uint64_t fdr_slot = 0;
    uint8_t detect_mask = 0;
    uint8_t use_dictionary = 0;
    if (!reader.ReadF64(&request.options.alpha) || !reader.ReadU64(&fdr_slot) ||
        !reader.ReadU8(&detect_mask) || !reader.ReadU8(&use_dictionary)) {
      return Status::Corruption("UDWIRE request: truncated option override");
    }
    if (!std::isfinite(request.options.alpha)) {
      return Status::Corruption("UDWIRE request: non-finite alpha override");
    }
    if (fdr_slot != 0) {
      // Any nonzero bytes, -0.0 and NaN included: a request is served
      // table by table, so an FDR level would be silently ignored.
      return Status::Corruption(
          "UDWIRE request: FDR control applies only to corpus scans; the "
          "fdr_q override slot must be zero");
    }
    if ((detect_mask >> kNumErrorClasses) != 0) {
      return Status::Corruption(
          StrCat("UDWIRE request: detect mask ", detect_mask,
                 " names undefined error classes"));
    }
    if (use_dictionary > 1) {
      return Status::Corruption("UDWIRE request: non-boolean use_dictionary");
    }
    request.options.detect_mask = detect_mask;
    request.options.use_dictionary = use_dictionary == 1;
  }
  uint32_t table_count = 0;
  if (!reader.ReadU32(&table_count)) {
    return Status::Corruption("UDWIRE request: truncated table count");
  }
  if (table_count > kMaxTablesPerRequest) {
    return Status::Corruption(StrCat("UDWIRE request: ", table_count,
                                     " tables exceeds the per-request cap of ",
                                     kMaxTablesPerRequest));
  }
  for (uint32_t i = 0; i < table_count; ++i) {
    Table table;
    UNIDETECT_RETURN_NOT_OK(DecodeTableInto(reader, &table));
    request.tables.push_back(std::move(table));
  }
  if (!reader.empty()) {
    return Status::Corruption(StrCat("UDWIRE request: ", reader.remaining(),
                                     " trailing bytes after the last table"));
  }
  return request;
}

std::string EncodeDetectResponse(const DetectResponse& response) {
  return FinishFrame(FrameType::kDetectResponse,
                     EncodeResponsePayload(response));
}

Result<DetectResponse> DecodeDetectResponsePayload(std::string_view payload) {
  BinaryReader reader(payload);
  DetectResponse response;
  uint8_t code = 0;
  if (!reader.ReadU64(&response.request_id) || !reader.ReadU8(&code)) {
    return Status::Corruption("UDWIRE response: truncated preamble");
  }
  if (code > static_cast<uint8_t>(WireCode::kInternal)) {
    return Status::Corruption(
        StrCat("UDWIRE response: unknown code ", code));
  }
  response.code = static_cast<WireCode>(code);
  if (response.code != WireCode::kOk) {
    std::string_view message;
    if (!reader.ReadLengthPrefixed(&message)) {
      return Status::Corruption("UDWIRE response: truncated error message");
    }
    response.error.assign(message);
    if (!reader.empty()) {
      return Status::Corruption(
          "UDWIRE response: trailing bytes after error message");
    }
    return response;
  }
  uint32_t table_count = 0;
  if (!reader.ReadU64(&response.generation) || !reader.ReadU32(&table_count)) {
    return Status::Corruption("UDWIRE response: truncated findings header");
  }
  if (table_count > kMaxTablesPerRequest) {
    return Status::Corruption(StrCat("UDWIRE response: ", table_count,
                                     " tables exceeds the per-request cap of ",
                                     kMaxTablesPerRequest));
  }
  for (uint32_t i = 0; i < table_count; ++i) {
    uint32_t finding_count = 0;
    if (!reader.ReadU32(&finding_count)) {
      return Status::Corruption("UDWIRE response: truncated finding count");
    }
    // The smallest encodable finding is well over 8 bytes; the bound
    // rejects hostile counts before the decode loop starts.
    if (finding_count > reader.remaining() / 8) {
      return Status::Corruption(
          StrCat("UDWIRE response: finding count ", finding_count,
                 " exceeds what ", reader.remaining(), " bytes can encode"));
    }
    std::vector<Finding> findings;
    for (uint32_t f = 0; f < finding_count; ++f) {
      Finding finding;
      UNIDETECT_RETURN_NOT_OK(DecodeFindingInto(reader, &finding));
      findings.push_back(std::move(finding));
    }
    response.per_table.push_back(std::move(findings));
  }
  if (!reader.empty()) {
    return Status::Corruption(
        StrCat("UDWIRE response: ", reader.remaining(),
               " trailing bytes after the last finding"));
  }
  return response;
}

std::string EncodeErrorResponseFrame(uint64_t request_id, WireCode code,
                                     std::string_view message) {
  UNIDETECT_CHECK(code != WireCode::kOk);
  DetectResponse response;
  response.request_id = request_id;
  response.code = code;
  response.error.assign(message);
  return EncodeDetectResponse(response);
}

std::string EncodeOkResponseFrame(
    uint64_t request_id, uint64_t generation,
    const std::vector<std::vector<Finding>>& per_table) {
  std::string payload;
  AppendU64(&payload, request_id);
  AppendU8(&payload, static_cast<uint8_t>(WireCode::kOk));
  AppendU64(&payload, generation);
  AppendU32(&payload, static_cast<uint32_t>(per_table.size()));
  for (const std::vector<Finding>& findings : per_table) {
    AppendU32(&payload, static_cast<uint32_t>(findings.size()));
    for (const Finding& finding : findings) AppendFinding(&payload, finding);
  }
  return FinishFrame(FrameType::kDetectResponse, payload);
}

}  // namespace wire
}  // namespace unidetect
