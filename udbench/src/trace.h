// In-memory span recorder of the traced run. Spans are recorded only in
// the benchmark's own code, around calls into the library's public
// functions; they are kept in memory and written out once, when the run
// ends. A disabled tracer records nothing, so the untraced runs that
// produce the end-to-end metrics pay one branch per span.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace udbench {

using Clock = std::chrono::steady_clock;

/// \brief One recorded interval. `parent` indexes the tracer's span list
/// (-1 = root); spans of one request share `request_id`.
struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;
  uint64_t request_id = 0;
};

/// \brief Per-name totals: span count, summed duration and summed self
/// time (duration minus the part of the interval its children cover).
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// \brief Records a finished span and returns its index (-1 when
  /// disabled). Thread-safe.
  int64_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t parent = -1,
                 uint64_t request_id = 0);

  /// \brief Reserves a parent slot before its children are recorded;
  /// Close() fills in the interval. Returns -1 when disabled.
  int64_t Open(const char* name, Clock::time_point start, int64_t parent = -1,
               uint64_t request_id = 0);
  void Close(int64_t index, Clock::time_point end);

  size_t size() const;

  /// \brief Totals per span name, self time computed over the union of
  /// each span's children intervals.
  std::map<std::string, SpanTotals> Totals() const;

  /// \brief Writes every span (name, start/end in microseconds from the
  /// first span, parent, request id) plus the per-name totals and
  /// `header_json` (an object) as one JSON document.
  bool WriteJson(const std::string& path, const std::string& header_json) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief Self time of a span given its children's intervals.
double SelfMicros(const Span& span, std::vector<std::pair<Clock::time_point,
                                                          Clock::time_point>>
                                        children);

/// \brief Keeps a timed call's result observable so the call cannot be
/// optimized away.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace udbench
