#include "learn/trainer.h"

#include <gtest/gtest.h>

#include <string>

#include "corpus/generator.h"
#include "learn/candidates.h"
#include "model_format/model_snapshot.h"

namespace unidetect {
namespace {

Corpus SmallCorpus(size_t tables = 200, uint64_t seed = 21) {
  return GenerateCorpus(WebCorpusSpec(tables, seed)).corpus;
}

TEST(TrainerTest, ProducesObservationsForEveryClass) {
  Trainer trainer;
  const Model model = trainer.Train(SmallCorpus());
  EXPECT_GT(model.num_subsets(), 10u);
  EXPECT_GT(model.num_observations(), 200u);
  EXPECT_GT(model.token_index().num_tables(), 0u);
  EXPECT_GT(model.token_index().num_tokens(), 100u);
}

TEST(TrainerTest, ThreadCountDoesNotChangeStatistics) {
  const Corpus corpus = SmallCorpus();
  TrainerOptions one;
  one.num_threads = 1;
  const Model a = Trainer(one).Train(corpus);
  const std::string a_bytes = EncodeModelSnapshot(a);
  // 200 tables split 2, 3, 4 and 7 ways: even, ragged and prime shard
  // counts must all merge to the serial model, byte for byte.
  for (size_t threads : {size_t{2}, size_t{3}, size_t{4}, size_t{7}}) {
    TrainerOptions options;
    options.num_threads = threads;
    const Model b = Trainer(options).Train(corpus);
    EXPECT_EQ(EncodeModelSnapshot(b), a_bytes) << threads << " threads";
    EXPECT_EQ(a.num_subsets(), b.num_subsets());
    EXPECT_EQ(a.num_observations(), b.num_observations());
    EXPECT_EQ(a.token_index().num_tokens(), b.token_index().num_tokens());

    // LR queries agree on a real candidate.
    const Column probe("Hometown",
                       {"London", "Paris", "Paris", "Berlin", "Madrid",
                        "Rome", "Tokyo", "Delhi", "Oslo", "Cairo"});
    const auto cand =
        ExtractUniquenessCandidate(probe, 0, a.token_index(), a.options());
    if (cand.valid) {
      EXPECT_DOUBLE_EQ(a.LikelihoodRatio(ErrorClass::kUniqueness, cand.key,
                                         cand.theta1, cand.theta2),
                       b.LikelihoodRatio(ErrorClass::kUniqueness, cand.key,
                                         cand.theta1, cand.theta2));
    }
  }
}

TEST(TrainerTest, FdPairCapLimitsWork) {
  TrainerOptions options;
  options.max_fd_pairs_per_table = 2;
  const Model capped = Trainer(options).Train(SmallCorpus(50));
  TrainerOptions uncapped_options;
  uncapped_options.max_fd_pairs_per_table = 100;
  const Model uncapped = Trainer(uncapped_options).Train(SmallCorpus(50));
  EXPECT_LT(capped.num_observations(), uncapped.num_observations());
}

TEST(TrainerTest, ModelOptionsArePropagated) {
  TrainerOptions options;
  options.model.min_support = 77;
  options.model.featurize.enabled = false;
  const Model model = Trainer(options).Train(SmallCorpus(30));
  EXPECT_EQ(model.options().min_support, 77u);
  EXPECT_FALSE(model.options().featurize.enabled);
  // With featurization off there is at most one subset per error class.
  EXPECT_LE(model.num_subsets(), 4u);
}

}  // namespace
}  // namespace unidetect
