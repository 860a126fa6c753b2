// udbench: the repository benchmark. One workload per invocation:
//
//   udbench --workload online_small|scan_tall|online_churn --seed N
//           --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//
// Prints the host facts, then (traced runs) the dominant-layer line, and
// as the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exits 0 only when every output matched its reference.
// udbench/run.py builds this program and is the command to use.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "report.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload online_small|scan_tall|online_churn "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-out FILE]\n",
               argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  udbench::RunConfig config;
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || config.seconds <= 0 ||
      (config.workload != "online_small" && config.workload != "scan_tall" &&
       config.workload != "online_churn")) {
    return Usage(argv[0]);
  }
  if (config.work_dir.empty()) {
    config.work_dir = ".bench_build/udbench-work/" + std::to_string(getpid());
  }
  std::signal(SIGPIPE, SIG_IGN);
  unidetect::SetLogLevel(unidetect::LogLevel::kWarning);
  std::filesystem::create_directories(config.work_dir);
  if (!udbench::IsReleaseBuild()) {
    std::fprintf(stderr, "udbench: WARNING: not a Release build (%s); "
                         "timings are not comparable\n",
                 UDBENCH_BUILD_TYPE);
  }

  udbench::Report report;
  const udbench::HostCpu cpu_begin = udbench::ReadHostCpu();
  const udbench::RunOutcome outcome =
      config.workload == "scan_tall"
          ? udbench::RunScan(config, &report)
          : udbench::RunOnline(config, config.workload == "online_churn",
                               &report);
  std::error_code ignored;
  std::filesystem::remove_all(config.work_dir, ignored);

  std::printf("{\"host\": %s, \"steal_share\": %.4f}\n",
              outcome.host_json.c_str(),
              udbench::StealShare(cpu_begin, udbench::ReadHostCpu()));
  if (!outcome.fatal.empty()) {
    std::fprintf(stderr, "udbench: %s\n", outcome.fatal.c_str());
    return 1;
  }
  if (!outcome.dominant_layer.empty()) {
    std::printf("# %s\n", outcome.dominant_layer.c_str());
  }
  if (!outcome.first_error.empty()) {
    std::fprintf(stderr, "udbench: %llu of %llu operations failed; first: %s\n",
                 static_cast<unsigned long long>(outcome.failed),
                 static_cast<unsigned long long>(outcome.attempted),
                 outcome.first_error.c_str());
  }
  std::string error;
  const bool correct = outcome.failed == 0;
  const std::string line = report.ResultJson(config.trace, correct,
                                             outcome.attempted, outcome.failed,
                                             &error);
  if (line.empty()) {
    std::fprintf(stderr, "udbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 2;
}
