#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "metric_names.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/string_util.h"

namespace udbench {

namespace {

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::ResultJson(bool trace, bool correct, uint64_t attempted,
                               uint64_t failed, std::string* error) const {
  std::string metrics;
  auto append = [&](const MetricDef& def) {
    const auto it = values_.find(std::string(def.name));
    if (it == values_.end() || !std::isfinite(it->second)) {
      *error = unidetect::StrCat("metric ", def.name,
                                 it == values_.end() ? " not measured"
                                                     : " not finite");
      return false;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += unidetect::StrCat(unidetect::JsonString(def.name),
                                 ": {\"value\": ", Number(it->second),
                                 ", \"unit\": ", unidetect::JsonString(def.unit),
                                 "}");
    return true;
  };
  if (trace) {
    for (const MetricDef& def : kPerLayerMetrics) {
      if (!append(def)) return "";
    }
  } else {
    for (const MetricDef& def : kEndToEndMetrics) {
      if (!append(def)) return "";
    }
  }
  return unidetect::StrCat("{\"correct\": ", correct ? "true" : "false",
                           ", \"attempted\": ", attempted,
                           ", \"failed\": ", failed, ", \"metrics\": {",
                           metrics, "}}");
}

bool IsReleaseBuild() { return std::strcmp(UDBENCH_BUILD_TYPE, "Release") == 0; }

std::string HostFactsJson(const RunConfig& config, size_t threads,
                          size_t connections) {
  using unidetect::JsonString;
  return unidetect::StrCat(
      "{\"workload\": ", JsonString(config.workload),
      ", \"seed\": ", config.seed, ", \"seconds\": ", Number(config.seconds),
      ", \"trace\": ", config.trace ? "true" : "false",
      ", \"nproc\": ", config.nproc, ", \"simd\": ",
      JsonString(unidetect::simd::SimdLevelName(unidetect::simd::ActiveSimdLevel())),
      ", \"build_type\": ", JsonString(UDBENCH_BUILD_TYPE),
      ", \"release_build\": ", IsReleaseBuild() ? "true" : "false",
      ", \"compiler\": ", JsonString(__VERSION__), ", \"threads\": ", threads,
      ", \"connections\": ", connections, "}");
}

HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  HostCpu out;
  stat >> cpu;
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) break;
    out.total += value;
    if (field == 7) out.steal = value;  // user nice system idle iowait irq softirq steal
  }
  return out;
}

double StealShare(const HostCpu& begin, const HostCpu& end) {
  const uint64_t total = end.total - begin.total;
  return total > 0 ? static_cast<double>(end.steal - begin.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace udbench
