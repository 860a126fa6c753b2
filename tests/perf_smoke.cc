// Fast perf-smoke check (ctest label "perf"): asserts that the
// optimized hot paths (LR counts, the MPD pair scan, Prev(C) over the
// column codes) agree with their reference implementations on freshly
// generated corpora. Runs in well under a second; CI executes it
// alongside the benchmark job so a correctness regression in either
// optimization fails fast without waiting for the full test suite.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/token_index.h"
#include "learn/subset_stats.h"
#include "learn/table_columns.h"
#include "metrics/metric_functions.h"
#include "reference/mpd_reference.h"
#include "reference/prevalence_reference.h"
#include "reference/subset_stats_reference.h"
#include "util/logging.h"
#include "util/random.h"

namespace unidetect {
namespace {

#define SMOKE_CHECK(cond, ...)                        \
  do {                                                \
    if (!(cond)) {                                    \
      std::fprintf(stderr, "perf_smoke FAILED: ");    \
      std::fprintf(stderr, __VA_ARGS__);              \
      std::fprintf(stderr, "\n");                     \
      std::exit(1);                                   \
    }                                                 \
  } while (0)

void CheckLrCounts() {
  Rng rng(2024);
  SubsetStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.Add(rng.Uniform(0, 30), rng.Uniform(0, 30));
  }
  stats.Finalize();
  for (int trial = 0; trial < 2000; ++trial) {
    const double t1 = rng.Uniform(0, 30);
    const double t2 = rng.Uniform(0, 30);
    for (const auto dir : {SurpriseDirection::kHigherMoreSurprising,
                           SurpriseDirection::kLowerMoreSurprising}) {
      const uint64_t tree = stats.CountSurprising(dir, t1, t2);
      const uint64_t linear = CountSurprisingLinear(stats, dir, t1, t2);
      SMOKE_CHECK(tree == linear,
                  "CountSurprising mismatch: tree=%llu linear=%llu "
                  "t1=%f t2=%f dir=%d",
                  static_cast<unsigned long long>(tree),
                  static_cast<unsigned long long>(linear), t1, t2,
                  static_cast<int>(dir));
    }
  }
}

// Every field of the single-pass kernel against the three-scan oracle,
// over a WEB corpus and a tall Enterprise one (the scan_tall shape: long
// columns, many distinct values, some past the max_values cap).
void CheckMpdProfiles(const char* name, const CorpusSpec& spec,
                      size_t more_than) {
  const AnnotatedCorpus corpus = GenerateCorpus(spec);
  size_t checked = 0;
  for (const auto& table : corpus.corpus.tables) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const MpdProfile fast = ComputeMpdProfile(table.column(c));
      const MpdProfile ref = ComputeMpdProfileReference(table.column(c));
      const std::string diff = MpdProfileDiff(fast, ref);
      SMOKE_CHECK(diff.empty(), "%s MPD profile mismatch in %s col %zu: %s",
                  name, table.name().c_str(), c, diff.c_str());
      if (fast.valid) ++checked;
    }
  }
  SMOKE_CHECK(checked > more_than, "%s: too few MPD-eligible columns: %zu",
              name, checked);
}

// Prev(C) over the column codes against the per-row string oracle, as
// bit-identical doubles, on an Enterprise corpus (the scan_tall shape)
// against a two-layer index: a WEB base plus an Enterprise layer, so
// that many of the scanned tokens have non-zero counts.
void CheckPrevalence() {
  TokenIndex base;
  for (const auto& table :
       GenerateCorpus(WebCorpusSpec(60, 557)).corpus.tables) {
    base.AddTable(table);
  }
  TokenIndex delta;
  for (const auto& table :
       GenerateCorpus(EnterpriseCorpusSpec(6, 558)).corpus.tables) {
    delta.AddTable(table);
  }
  const TokenPrevalence prevalence(
      std::vector<const TokenIndex*>{&base, &delta});
  const PrevalenceReference reference(prevalence);
  const AnnotatedCorpus corpus = GenerateCorpus(EnterpriseCorpusSpec(12, 559));
  size_t nonzero = 0;
  for (const auto& table : corpus.corpus.tables) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const double fast =
          EncodedColumn(table.column(c), prevalence).prevalence();
      const double ref = reference.AveragePrevalence(table.column(c));
      SMOKE_CHECK(fast == ref, "Prev(C) mismatch in %s col %zu: %.17g vs %.17g",
                  table.name().c_str(), c, fast, ref);
      if (fast > 0.0) ++nonzero;
    }
  }
  SMOKE_CHECK(nonzero > 20, "too few columns with non-zero Prev(C): %zu",
              nonzero);
}

}  // namespace
}  // namespace unidetect

int main() {
  unidetect::SetLogLevel(unidetect::LogLevel::kWarning);
  unidetect::CheckLrCounts();
  unidetect::CheckMpdProfiles("web", unidetect::WebCorpusSpec(40, 555), 20);
  unidetect::CheckMpdProfiles("enterprise",
                              unidetect::EnterpriseCorpusSpec(12, 556), 20);
  unidetect::CheckPrevalence();
  std::printf("perf_smoke OK\n");
  return 0;
}
