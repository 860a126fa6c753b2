#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace unidetect {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> TokenizeCell(std::string_view s) {
  std::vector<std::string> out;
  ForEachCellToken(s, [&](std::string_view token) { out.emplace_back(token); });
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::optional<double> ParseNumeric(std::string_view raw) {
  std::string_view s = Trim(raw);
  if (s.empty()) return std::nullopt;
  if (s.back() == '%') s.remove_suffix(1);
  s = Trim(s);
  if (s.empty()) return std::nullopt;

  // Strip thousands separators, validating 3-digit grouping loosely
  // (real tables contain "8,011" and also "1,23,456"-style locales; we
  // accept any comma between digits).
  std::string cleaned;
  cleaned.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == ',') {
      const bool digit_before = i > 0 && std::isdigit(static_cast<unsigned char>(s[i - 1]));
      const bool digit_after =
          i + 1 < s.size() && std::isdigit(static_cast<unsigned char>(s[i + 1]));
      if (!digit_before || !digit_after) return std::nullopt;
      continue;
    }
    cleaned.push_back(s[i]);
  }
  if (cleaned.empty()) return std::nullopt;
  // std::from_chars does not accept an explicit '+'.
  if (cleaned[0] == '+') cleaned.erase(0, 1);
  if (cleaned.empty()) return std::nullopt;

  const char* begin = cleaned.data();
  const char* end = cleaned.data() + cleaned.size();
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

bool LooksLikeInteger(std::string_view raw) {
  std::string_view s = Trim(raw);
  if (s.empty()) return false;
  size_t i = 0;
  if (s[0] == '+' || s[0] == '-') i = 1;
  if (i == s.size()) return false;
  bool any_digit = false;
  for (; i < s.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(s[i]))) {
      any_digit = true;
      continue;
    }
    if (s[i] == ',') continue;  // thousands separator
    return false;
  }
  return any_digit;
}

std::optional<uint64_t> ParseUnsigned(std::string_view s, uint64_t min_value,
                                      uint64_t max_value) {
  uint64_t value = 0;
  const char* end = s.data() + s.size();
  // from_chars takes no sign, whitespace or base prefix for an unsigned
  // type and reports overflow; `end` rejects trailing bytes.
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if (value < min_value || value > max_value) return std::nullopt;
  return value;
}

std::optional<double> ParseNonNegativeDouble(std::string_view s) {
  // from_chars takes a leading '-' (never '+' or whitespace) and spells
  // out "nan" and "inf"; `end` rejects trailing bytes.
  if (!s.empty() && s.front() == '-') return std::nullopt;
  double value = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

namespace strcat_internal {

void AppendPiece(std::string* out, double v) {
  // "%.6g" is exactly what a default-constructed ostream produces for a
  // double (precision 6, defaultfloat); explanations built with StrCat
  // must stay byte-identical to the ostringstream originals.
  char buf[64];
  const int len = std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf, static_cast<size_t>(len));
}

void AppendPiece(std::string* out, long long v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(ptr - buf));
}

void AppendPiece(std::string* out, unsigned long long v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(ptr - buf));
}

}  // namespace strcat_internal

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  std::string out(buf);
  if (out.find('.') != std::string::npos) {
    size_t last = out.find_last_not_of('0');
    if (out[last] == '.') --last;
    out.erase(last + 1);
  }
  return out;
}

}  // namespace unidetect
