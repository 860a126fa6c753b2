#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"

namespace udbench {

int64_t Tracer::Record(const char* name, Clock::time_point start,
                       Clock::time_point end, int64_t parent,
                       uint64_t request_id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(const char* name, Clock::time_point start, int64_t parent,
                     uint64_t request_id) {
  return Record(name, start, start, parent, request_id);
}

void Tracer::Close(int64_t index, Clock::time_point end) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end = end;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double SelfMicros(
    const Span& span,
    std::vector<std::pair<Clock::time_point, Clock::time_point>> children) {
  std::sort(children.begin(), children.end());
  Clock::duration covered{0};
  Clock::time_point cursor = span.start;
  for (auto [start, end] : children) {
    start = std::max(start, cursor);
    end = std::min(end, span.end);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return Micros(span.end - span.start - covered);
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_us += Micros(spans_[i].end - spans_[i].start);
    t.self_us += SelfMicros(spans_[i], std::move(children[i]));
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& header_json) const {
  const std::map<std::string, SpanTotals> totals = Totals();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"header\": %s,\n\"totals\": {", header_json.c_str());
  bool first = true;
  for (const auto& [name, t] : totals) {
    std::fprintf(f, "%s\n  %s: {\"count\": %llu, \"total_us\": %.3f, "
                 "\"self_us\": %.3f}",
                 first ? "" : ",", unidetect::JsonString(name).c_str(),
                 static_cast<unsigned long long>(t.count), t.total_us,
                 t.self_us);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%s, %.3f, %.3f, %lld, %llu]", i == 0 ? "" : ",",
                 unidetect::JsonString(s.name).c_str(),
                 Micros(s.start - origin), Micros(s.end - origin),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace udbench
