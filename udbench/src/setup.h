// The set-up every workload shares: train and save a base model, build
// delta layers, open the model, and start the loopback server exactly as
// tools/udserve starts it by default (default ServerOptions, an 8 MiB
// findings cache, default UniDetectOptions).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/server.h"
#include "serving/detection_service.h"
#include "util/result.h"

namespace udbench {

/// udserve's default findings-cache budget.
inline constexpr uint64_t kServeCacheBytes = 8u << 20;
/// Tables in the trained base corpus (WEB-shaped).
inline constexpr size_t kBaseTables = 1000;
/// Tables behind each delta layer (WEB-shaped).
inline constexpr size_t kDeltaTables = 20;
/// Delta layers per chain: the depth at which the churn workload
/// compacts, and the depth every other workload serves at.
inline constexpr size_t kChainDepth = 4;

/// \brief Set-up phase durations of one repetition.
struct SetupTimes {
  double generate_s = 0.0;
  double train_s = 0.0;
  double save_s = 0.0;
  double delta_build_s = 0.0;
  double server_start_ms = 0.0;
  std::vector<double> open_base_us;
  std::vector<double> open_delta_us;
  /// ApplyDelta milliseconds of the set-up, in depth order.
  std::vector<double> publish_ms;
};

/// \brief Model artifacts on disk. bases[c] is the base of cycle c
/// (bases[0] trained, bases[c > 0] the compactor's fold of cycle c-1);
/// deltas[c] are kChainDepth delta layers chained onto bases[c].
struct ChainFiles {
  std::vector<std::string> bases;
  std::vector<std::vector<std::string>> deltas;
};

/// \brief The set-up ApplyDelta milliseconds of all repetitions, grouped
/// by the depth of the chain each call extended.
std::vector<std::vector<double>> SetupPublishByDepth(
    const std::vector<SetupTimes>& reps);

/// \brief Seed of one input stream, derived from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// \brief Trains and saves the base, then builds `cycles` chains of
/// kChainDepth deltas. A cycle after the first starts from the fold of
/// the previous chain, made by Compactor::CompactOnce, so its deltas chain
/// onto the base the serving compactor produces. The model artifacts do
/// not depend on the run seed: every run serves the same model, and the
/// seed varies only the traffic, the tables and the injected errors.
unidetect::Result<ChainFiles> BuildChain(const std::string& dir, size_t cycles,
                                         size_t threads, SetupTimes* times);

/// \brief A running service and loopback server.
struct Serving {
  std::unique_ptr<unidetect::DetectionService> service;
  std::unique_ptr<unidetect::DetectionServer> server;
  ~Serving();
};

/// \brief Opens the service over `base` (udserve defaults), applies
/// `publish` in order (timing each ApplyDelta), and starts the server.
unidetect::Result<std::unique_ptr<Serving>> StartServing(
    const std::string& base, const std::vector<std::string>& publish,
    SetupTimes* times);

/// \brief The serving options (udserve's: library defaults).
unidetect::UniDetectOptions ServeOptions();

}  // namespace udbench
