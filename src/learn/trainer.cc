#include "learn/trainer.h"

#include <vector>

#include "learn/candidates.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace unidetect {

void AddTableObservations(const Table& table, const TokenIndex& index,
                          const ModelOptions& options, size_t max_fd_pairs,
                          Model* out) {
  // One single-layer view up front; the extractors take the layered
  // TokenPrevalence interface (serving queries stacks, training always
  // featurizes against one full-corpus index). The table's encoding is
  // built once, exactly as UniDetect::DetectTable builds it online.
  const TokenPrevalence prevalence(index);
  const TableColumns columns(table, prevalence);

  // Column-level classes.
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);

    const OutlierCandidate outlier = ExtractOutlierCandidate(column, options);
    if (outlier.valid) {
      out->AddObservation(outlier.key, outlier.theta1, outlier.theta2);
    }

    const SpellingCandidate spelling =
        ExtractSpellingCandidate(columns.column(c), options);
    if (spelling.valid) {
      out->AddObservation(spelling.key, spelling.theta1, spelling.theta2);
    }

    const UniquenessCandidate uniqueness =
        ExtractUniquenessCandidate(columns.column(c), options);
    if (uniqueness.valid) {
      out->AddObservation(UniquenessKey(columns.column(c), c, options),
                          uniqueness.theta1, uniqueness.theta2);
    }
  }

  // FD pairs (ordered, distinct columns).
  size_t pairs = 0;
  for (size_t l = 0; l < table.num_columns() && pairs < max_fd_pairs; ++l) {
    for (size_t r = 0; r < table.num_columns() && pairs < max_fd_pairs; ++r) {
      if (l == r) continue;
      ++pairs;
      const FdCandidate fd =
          ExtractFdCandidate(columns.column(l), columns.column(r), options);
      if (fd.valid) {
        out->AddObservation(
            FdKey(columns.column(l), columns.column(r), options), fd.theta1,
            fd.theta2);
      }
    }
  }
}

Model Trainer::Train(const Corpus& corpus) const {
  const size_t n = corpus.tables.size();
  const size_t workers = ForkJoinWorkers(options_.num_threads, n);

  // Both passes reduce per-shard *partial models* with Model::Merge —
  // the same associative/commutative fold the offline shard pipeline
  // (src/offline/) applies to persisted shard snapshots, so the two
  // paths cannot drift. ParallelFor shards are contiguous and merged in
  // shard order, so the in-memory token index lists tokens in the same
  // order at every thread count.

  // Pass 1: token prevalence + pattern co-occurrence indexes.
  UNIDETECT_LOG(Info) << "training pass 1 (token index) over " << n
                      << " tables, " << workers << " threads";
  std::vector<Model> index_partials;
  index_partials.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    index_partials.emplace_back(options_.model);
  }
  ParallelFor(options_.num_threads, n,
              [&](size_t shard, size_t begin, size_t end) {
                Model& partial = index_partials[shard];
                for (size_t i = begin; i < end; ++i) {
                  partial.mutable_token_index()->AddTable(corpus.tables[i]);
                  partial.mutable_pattern_index()->AddTable(corpus.tables[i]);
                }
              });
  Model model(options_.model);
  for (const Model& partial : index_partials) model.Merge(partial);

  // Pass 2: per-class observations against the full merged index.
  UNIDETECT_LOG(Info) << "training pass 2 (metric observations)";
  std::vector<Model> obs_partials;
  obs_partials.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    obs_partials.emplace_back(options_.model);
  }
  const TokenIndex& index = model.token_index();
  ParallelFor(options_.num_threads, n,
              [&](size_t shard, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  AddTableObservations(corpus.tables[i], index,
                                       options_.model,
                                       options_.max_fd_pairs_per_table,
                                       &obs_partials[shard]);
                }
              });
  for (const Model& partial : obs_partials) model.Merge(partial);

  model.Finalize();
  UNIDETECT_LOG(Info) << "trained model: " << model.num_subsets()
                      << " subsets, " << model.num_observations()
                      << " observations, " << model.token_index().num_tokens()
                      << " tokens";
  return model;
}

}  // namespace unidetect
