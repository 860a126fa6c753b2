// Trainer: the offline "learning" component of Section 2.2.3.
//
// Crunches the background corpus T in two passes — (1) token prevalence
// index, (2) per-class metric/perturbation observations — each one
// ParallelFor over contiguous shards, mirroring the paper's MapReduce-like
// jobs. The output is a finalized Model ready for online detection.

#pragma once

#include <cstddef>

#include "corpus/corpus.h"
#include "corpus/token_index.h"
#include "learn/model.h"
#include "table/table.h"

namespace unidetect {

/// \brief Records every error class's observation for one table into the
/// build-phase partial model `out`. `index` must be the token prevalence
/// index of the FULL corpus (featurization consults global prevalence),
/// not just the shard the table came from.
///
/// This is the single per-table observation step shared by
/// Trainer::Train's in-process pass 2 and the offline shard builder
/// (src/offline/shard_builder.h).
void AddTableObservations(const Table& table, const TokenIndex& index,
                          const ModelOptions& options, size_t max_fd_pairs,
                          Model* out);

/// \brief Training configuration.
struct TrainerOptions {
  ModelOptions model;
  /// Worker threads; 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Ordered column pairs per table considered for FD statistics; tables
  /// wider than this contribute only the first pairs (quadratic blowup
  /// guard for wide enterprise sheets).
  size_t max_fd_pairs_per_table = 30;
};

/// \brief Builds a Model from a background corpus.
class Trainer {
 public:
  explicit Trainer(TrainerOptions options = {}) : options_(options) {}

  /// \brief Runs both passes over `corpus` and returns the trained model.
  Model Train(const Corpus& corpus) const;

 private:
  TrainerOptions options_;
};

}  // namespace unidetect
