// Small string helpers shared across the library.

#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace unidetect {

/// \brief Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// \brief True for the bytes TokenizeCell splits on: ' ', '\t', '\n',
/// '\r' and , ; : / ( ) [ ] " '. Not '\v' or '\f', which Trim strips.
constexpr bool IsTokenSeparator(char c) {
  switch (c) {
    case ' ':
    case '\t':
    case '\n':
    case '\r':
    case ',':
    case ';':
    case ':':
    case '/':
    case '(':
    case ')':
    case '[':
    case ']':
    case '"':
    case '\'':
      return true;
    default:
      return false;
  }
}

/// \brief Calls fn(std::string_view token) for each token of `s`, in
/// order, without copying: the maximal runs of non-separator bytes.
template <typename Fn>
void ForEachCellToken(std::string_view s, Fn&& fn) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsTokenSeparator(s[i])) ++i;
    const size_t start = i;
    while (i < s.size() && !IsTokenSeparator(s[i])) ++i;
    if (i > start) fn(s.substr(start, i - start));
  }
}

/// \brief Splits on runs of whitespace and common punctuation, dropping
/// empty tokens. This is the canonical cell tokenizer used for token
/// prevalence and dictionary features (ForEachCellToken, collected).
std::vector<std::string> TokenizeCell(std::string_view s);

/// \brief Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// \brief ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// \brief ASCII uppercase copy.
std::string ToUpper(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// \brief Parses a numeric cell.
///
/// Accepts optional sign, decimal point, thousands separators ("8,011"),
/// leading/trailing whitespace, and a trailing '%'. Returns nullopt for
/// anything else (including empty strings).
std::optional<double> ParseNumeric(std::string_view s);

/// \brief True if the trimmed cell parses as an integer (no '.', no exponent).
bool LooksLikeInteger(std::string_view s);

/// \brief Parses all of `s` as a base-10 unsigned integer in
/// [min_value, max_value], for command-line flags. An empty string, a
/// sign, whitespace, trailing bytes, overflow or a value out of range is
/// nullopt: never a prefix, a wrapped negative or a clamped value.
std::optional<uint64_t> ParseUnsigned(
    std::string_view s, uint64_t min_value = 0,
    uint64_t max_value = std::numeric_limits<uint64_t>::max());

/// \brief Parses all of `s` as a finite, non-negative decimal number, for
/// command-line flags ("0.05", "1", "5e-3"). An empty string, a sign,
/// whitespace, trailing bytes, NaN, infinity or an out-of-range value is
/// nullopt: never a prefix, and never the 0 that atof makes of junk.
std::optional<double> ParseNonNegativeDouble(std::string_view s);

/// \brief Formats a double the way the corpus generators and examples print
/// numbers: up to `precision` digits after the point, trailing zeros trimmed.
std::string FormatDouble(double v, int precision = 6);

// ---------------------------------------------------------------------------
// StrCat / StrAppend: cheap concatenation for hot explanation formatting.
//
// Doubles are rendered exactly as a default-formatted std::ostream would
// render them (printf "%.6g"), so replacing an ostringstream with StrCat
// is byte-for-byte output preserving.

namespace strcat_internal {
inline void AppendPiece(std::string* out, std::string_view v) {
  out->append(v);
}
inline void AppendPiece(std::string* out, const char* v) { out->append(v); }
inline void AppendPiece(std::string* out, char v) { out->push_back(v); }
void AppendPiece(std::string* out, double v);
inline void AppendPiece(std::string* out, float v) {
  AppendPiece(out, static_cast<double>(v));
}
void AppendPiece(std::string* out, long long v);
void AppendPiece(std::string* out, unsigned long long v);
inline void AppendPiece(std::string* out, int v) {
  AppendPiece(out, static_cast<long long>(v));
}
inline void AppendPiece(std::string* out, long v) {
  AppendPiece(out, static_cast<long long>(v));
}
inline void AppendPiece(std::string* out, unsigned v) {
  AppendPiece(out, static_cast<unsigned long long>(v));
}
inline void AppendPiece(std::string* out, unsigned long v) {
  AppendPiece(out, static_cast<unsigned long long>(v));
}
}  // namespace strcat_internal

/// \brief Appends every piece to *out without intermediate allocations.
template <typename... Pieces>
void StrAppend(std::string* out, const Pieces&... pieces) {
  (void)out;  // an empty pack expands to nothing
  (strcat_internal::AppendPiece(out, pieces), ...);
}

/// \brief Concatenates pieces (strings, string_views, chars, integers,
/// doubles) into one string. Doubles format as "%.6g", matching the
/// default std::ostream rendering.
template <typename... Pieces>
std::string StrCat(const Pieces&... pieces) {
  std::string out;
  StrAppend(&out, pieces...);
  return out;
}

}  // namespace unidetect
