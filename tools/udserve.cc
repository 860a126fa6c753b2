// udserve: stand up a DetectionServer over a model snapshot.
//
//   $ udserve --model m.udsnap [--port 8080] [--cache-bytes 8388608]
//             [--io-threads 1] [--train-if-missing]
//
// Serves both protocols on one port: UDWIRE (udclient) and HTTP (curl
// /healthz, /metrics in Prometheus text format, POST /detect with a
// CSV body). Each IO shard serves its connections' requests to
// completion; --io-threads > 1 runs that many shards, each on its own
// SO_REUSEPORT listener. --train-if-missing trains a small demo model
// when --model does not load, so the tool is self-contained for smoke
// tests. SIGINT/SIGTERM shut down gracefully: the listeners close,
// pending responses flush, and the final /metrics text is printed.
//
// Numeric flags take a plain decimal number in range (--port 0-65535,
// where 0 picks a free port; --io-threads 1 to kMaxIoThreads); anything
// else prints usage and exits 2.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "corpus/generator.h"
#include "learn/trainer.h"
#include "server/server.h"
#include "serving/detection_service.h"
#include "util/logging.h"
#include "util/string_util.h"

using namespace unidetect;

namespace {

// Ceiling on --io-threads: each IO shard is a thread with its own
// listener, and shards beyond the core count only add wakeups.
constexpr uint64_t kMaxIoThreads = 64;

std::atomic<bool> g_shutdown{false};

void HandleSignal(int /*sig*/) { g_shutdown.store(true); }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --model PATH [--port N] [--cache-bytes N]\n"
      "          [--io-threads N] [--train-if-missing]\n"
      "  --port 0-65535 (0 picks a free port), --io-threads 1-%llu,\n"
      "  --cache-bytes any decimal byte count\n",
      argv0, static_cast<unsigned long long>(kMaxIoThreads));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kInfo);
  std::string model_path;
  uint64_t cache_bytes = 8u << 20;
  bool train_if_missing = false;
  ServerOptions options;
  options.port = 8080;

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
    if (arg == "--model") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      model_path = v;
    } else if (arg == "--port") {
      const std::optional<uint64_t> v = next_number(0, UINT16_MAX);
      if (!v) return Usage(argv[0]);
      options.port = static_cast<uint16_t>(*v);
    } else if (arg == "--cache-bytes") {
      const std::optional<uint64_t> v = next_number(0, UINT64_MAX);
      if (!v) return Usage(argv[0]);
      cache_bytes = *v;
    } else if (arg == "--io-threads") {
      const std::optional<uint64_t> v = next_number(1, kMaxIoThreads);
      if (!v) return Usage(argv[0]);
      options.io_threads = static_cast<size_t>(*v);
    } else if (arg == "--train-if-missing") {
      train_if_missing = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (model_path.empty()) return Usage(argv[0]);

  if (!Model::Load(model_path).ok()) {
    if (!train_if_missing) {
      std::fprintf(stderr, "udserve: no loadable model at %s "
                   "(pass --train-if-missing to train a demo model)\n",
                   model_path.c_str());
      return 1;
    }
    std::printf("udserve: training a demo model into %s...\n",
                model_path.c_str());
    Trainer trainer;
    const Model model =
        trainer.Train(GenerateCorpus(WebCorpusSpec(2000, 7)).corpus);
    const Status saved = model.Save(model_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "udserve: save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
  }

  auto service = DetectionService::Create(model_path, UniDetectOptions{},
                                          cache_bytes);
  if (!service.ok()) {
    std::fprintf(stderr, "udserve: %s\n", service.status().ToString().c_str());
    return 1;
  }

  DetectionServer server(service->get(), options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "udserve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("udserve: serving %s on port %u with %zu IO shard%s "
              "(UDWIRE + HTTP /healthz /metrics /detect)\n",
              model_path.c_str(), server.port(), server.io_threads(),
              server.io_threads() == 1 ? "" : "s");

  struct sigaction action = {};
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  while (!g_shutdown.load()) pause();

  std::printf("udserve: shutting down...\n");
  server.Stop();
  std::fputs(server.MetricsText().c_str(), stdout);
  return 0;
}
