// udclient: command-line UDWIRE client against a running udserve.
//
//   $ udclient --port 8080 detect table.csv [more.csv ...]
//       [--deadline-ms N] [--timeout-ms N] [--alpha X] [--pipeline]
//       [--host 127.0.0.1]
//   $ udclient --port 8080 health    # GET /healthz
//   $ udclient --port 8080 metrics   # GET /metrics (Prometheus text)
//
// `detect` rides the pipelined AsyncUdwireClient. By default every CSV
// travels as one table in a single request; --pipeline sends one
// request per CSV down the same connection concurrently (completions
// arrive in any order, output stays in input order). --deadline-ms is
// the server-side deadline, checked before detection starts;
// --timeout-ms bounds the wait client-side. Typed server outcomes
// (DeadlineExceeded, Malformed, ...) print as errors with their
// wire-code name and exit nonzero — distinguishable from transport
// failures by message. Numeric flags take a plain decimal number in
// range (--port 1-65535; --alpha a finite, non-negative one such as
// 0.05 or 1e-3); anything else prints usage and exits 2.
//
// --alpha sends a per-request override, and an override replaces alpha,
// the class mask and the +Dict switch together: udclient sends the
// paper's four classes and +Dict off. Against a service whose defaults
// turn +Dict on, --alpha therefore turns it off as well.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "detect/finding_json.h"
#include "detect/unidetect.h"
#include "server/client.h"
#include "server/wire.h"
#include "table/table.h"
#include "util/csv.h"
#include "util/string_util.h"

using namespace unidetect;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port N [--host IP] detect CSV... "
               "[--deadline-ms N] [--timeout-ms N] [--alpha X] [--pipeline]\n"
               "       %s --port N [--host IP] health|metrics\n"
               "  --port 1-65535; --deadline-ms and --timeout-ms are "
               "decimal milliseconds; --alpha is a non-negative number\n"
               "  --alpha overrides the server's options for the request: "
               "alpha, the paper's\n"
               "  four classes, and +Dict off (even if the server's "
               "defaults turn it on)\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string command;
  std::vector<std::string> csv_paths;
  uint32_t deadline_ms = 0;
  int64_t timeout_ms = 0;
  std::optional<double> alpha;
  bool pipeline = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The next argument as a decimal number in [lo, hi], or nullopt.
    auto next_number = [&](uint64_t lo, uint64_t hi) {
      const char* v = next();
      return v ? ParseUnsigned(v, lo, hi) : std::nullopt;
    };
    if (arg == "--host") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      host = v;
    } else if (arg == "--port") {
      const std::optional<uint64_t> v = next_number(1, UINT16_MAX);
      if (!v) return Usage(argv[0]);
      port = static_cast<uint16_t>(*v);
    } else if (arg == "--deadline-ms") {
      const std::optional<uint64_t> v = next_number(0, UINT32_MAX);
      if (!v) return Usage(argv[0]);
      deadline_ms = static_cast<uint32_t>(*v);
    } else if (arg == "--timeout-ms") {
      const std::optional<uint64_t> v = next_number(0, INT64_MAX);
      if (!v) return Usage(argv[0]);
      timeout_ms = static_cast<int64_t>(*v);
    } else if (arg == "--alpha") {
      const char* v = next();
      const std::optional<double> a = v ? ParseNonNegativeDouble(v)
                                        : std::nullopt;
      if (!a) return Usage(argv[0]);
      alpha = *a;
    } else if (arg == "--pipeline") {
      pipeline = true;
    } else if (command.empty()) {
      command = arg;
    } else {
      csv_paths.push_back(arg);
    }
  }
  if (port == 0 || command.empty()) return Usage(argv[0]);

  if (command == "health" || command == "metrics") {
    const char* target = command == "health" ? "/healthz" : "/metrics";
    const auto response = HttpFetch(host, port, "GET", target);
    if (!response.ok()) {
      std::fprintf(stderr, "udclient: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    // Print just the body (everything past the blank line).
    const size_t split = response->find("\r\n\r\n");
    std::fputs(split == std::string::npos ? response->c_str()
                                          : response->c_str() + split + 4,
               stdout);
    return 0;
  }

  if (command != "detect" || csv_paths.empty()) return Usage(argv[0]);

  wire::RequestOptions options;
  if (alpha) {
    options.has_override = true;
    options.alpha = *alpha;
    // An override replaces the class mask and the +Dict switch too: send
    // the default mask, and +Dict off (wire::RequestOptions).
    options.detect_mask = wire::DetectMask(kDefaultDetectorEnables);
  }

  std::vector<Table> tables;
  for (const std::string& path : csv_paths) {
    auto csv = ReadCsvFile(path);
    if (!csv.ok()) {
      std::fprintf(stderr, "udclient: %s: %s\n", path.c_str(),
                   csv.status().ToString().c_str());
      return 1;
    }
    auto table = Table::FromCsv(*csv, path);
    if (!table.ok()) {
      std::fprintf(stderr, "udclient: %s: %s\n", path.c_str(),
                   table.status().ToString().c_str());
      return 1;
    }
    tables.push_back(std::move(table).ValueOrDie());
  }

  auto client = AsyncUdwireClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "udclient: %s\n", client.status().ToString().c_str());
    return 1;
  }

  // Gather one response per request; in pipeline mode each CSV is its
  // own request, otherwise all tables share request 0.
  std::vector<wire::DetectResponse> responses;
  if (pipeline) {
    responses.resize(tables.size());
    std::vector<uint64_t> ids;
    // DetectSync would serialize; submit everything first, then the
    // blocking waits below ride completions already in flight.
    struct Waiter {
      Mutex mu;
      CondVar cv;
      size_t remaining;
    } waiter;
    waiter.remaining = tables.size();
    for (size_t i = 0; i < tables.size(); ++i) {
      wire::DetectRequest request;
      request.deadline_ms = deadline_ms;
      request.options = options;
      request.tables.push_back(std::move(tables[i]));
      (*client)->Detect(
          std::move(request),
          [&responses, &waiter, i](wire::DetectResponse response) {
            MutexLock lock(&waiter.mu);
            responses[i] = std::move(response);
            --waiter.remaining;
            waiter.cv.NotifyAll();
          },
          timeout_ms);
    }
    MutexLock lock(&waiter.mu);
    while (waiter.remaining != 0) waiter.cv.Wait(waiter.mu);
  } else {
    wire::DetectRequest request;
    request.deadline_ms = deadline_ms;
    request.options = options;
    request.tables = std::move(tables);
    responses.push_back((*client)->DetectSync(std::move(request), timeout_ms));
  }

  for (const wire::DetectResponse& response : responses) {
    if (response.code != wire::WireCode::kOk) {
      std::fprintf(stderr, "udclient: server says %s: %s\n",
                   wire::WireCodeName(response.code), response.error.c_str());
      return 1;
    }
  }

  std::printf("{\"generation\":%llu,\"tables\":[\n",
              static_cast<unsigned long long>(responses[0].generation));
  size_t printed = 0;
  const size_t total = pipeline ? responses.size() : responses[0].per_table.size();
  for (size_t r = 0; r < responses.size(); ++r) {
    for (size_t t = 0; t < responses[r].per_table.size(); ++t) {
      const size_t path_index = pipeline ? r : t;
      std::printf("{\"table\":\"%s\",\"findings\":%s}%s\n",
                  csv_paths[path_index].c_str(),
                  FindingsToJson(responses[r].per_table[t]).c_str(),
                  ++printed < total ? "," : "");
    }
  }
  std::printf("]}\n");
  return 0;
}
