#include "detect/unidetect.h"

#include <atomic>
#include <memory>
#include <utility>

#include "autodetect/pmi_detector.h"
#include "detect/fd_detector.h"
#include "detect/fdr.h"
#include "detect/outlier_detector.h"
#include "detect/spelling_detector.h"
#include "detect/uniqueness_detector.h"
#include "util/parallel.h"

namespace unidetect {

UniDetect::UniDetect(const Model* model, UniDetectOptions options)
    : UniDetect(std::make_shared<const ModelStack>(ModelStack::Borrow(model)),
                std::move(options)) {}

UniDetect::UniDetect(std::shared_ptr<const ModelStack> stack,
                     UniDetectOptions options)
    : stack_(std::move(stack)), options_(std::move(options)) {
  if (options_.use_dictionary) {
    dictionary_ =
        std::make_unique<Dictionary>(Dictionary::FromTokenPrevalence(
            stack_->token_prevalence(), options_.dictionary_min_table_count));
  }
  const ModelStack* model = stack_.get();
  for (int c = 0; c < kNumErrorClasses; ++c) {
    const ErrorClass cls = static_cast<ErrorClass>(c);
    if (!options_.detects(cls)) continue;
    // One case per class and no default label: -Wswitch (in -Wall)
    // rejects an ErrorClass that has no detector at compile time.
    switch (cls) {
      case ErrorClass::kOutlier:
        detectors_.push_back(
            std::make_unique<OutlierDetector>(model, options_.alpha));
        break;
      case ErrorClass::kSpelling:
        detectors_.push_back(std::make_unique<SpellingDetector>(
            model, options_.alpha, dictionary_.get()));
        break;
      case ErrorClass::kUniqueness:
        detectors_.push_back(
            std::make_unique<UniquenessDetector>(model, options_.alpha));
        break;
      case ErrorClass::kFd:
        detectors_.push_back(std::make_unique<FdDetector>(
            model, options_.alpha, options_.max_fd_pairs_per_table));
        break;
      case ErrorClass::kPattern:
        detectors_.push_back(std::make_unique<PmiDetector>(
            model->pattern_prevalence(), options_.pattern_pmi_threshold));
        break;
    }
  }
}

std::vector<Finding> UniDetect::DetectTable(const Table& table) const {
  // One encoding per call, shared by every detector and freed on return.
  const TableColumns columns(table, stack_->token_prevalence());
  std::vector<Finding> findings;
  for (const auto& detector : detectors_) {
    detector->Detect(columns, &findings);
  }
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (auto& finding : findings) {
    if (finding.score < options_.alpha) {
      // Callers may hold findings for long (a corpus scan keeps them
      // all), so the strings give back their concatenation slack.
      finding.value.shrink_to_fit();
      finding.explanation.shrink_to_fit();
      kept.push_back(std::move(finding));
    }
  }
  SortFindings(&kept);
  return kept;
}

std::vector<Finding> UniDetect::DetectCorpus(const Corpus& corpus,
                                             size_t num_threads) const {
  const size_t total = corpus.tables.size();
  std::vector<std::vector<Finding>> per_table(total);
  // Detection is read-only over the model, so tables can go to any
  // worker. Workers claim the next table from a shared counter rather
  // than a fixed contiguous chunk: table costs vary by orders of
  // magnitude (rows x columns^2 FD pairs), and fixed chunks leave
  // threads idle behind the slowest one. The per-table slots keep the
  // merged order independent of the thread count and of who ran what.
  std::atomic<size_t> next{0};
  ForkJoin(num_threads, total, [&](size_t) {
    for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
      per_table[i] = DetectTable(corpus.tables[i]);
    }
  });
  size_t count = 0;
  for (const auto& findings : per_table) count += findings.size();
  std::vector<Finding> all;
  all.reserve(count);
  for (size_t i = 0; i < per_table.size(); ++i) {
    for (auto& finding : per_table[i]) {
      finding.table_index = i;
      all.push_back(std::move(finding));
    }
  }
  SortFindings(&all);
  if (options_.fdr_q > 0.0) {
    all = ControlFdr(all, options_.fdr_q);
  }
  return all;
}

}  // namespace unidetect
