#include "detect/unidetect.h"

#include <atomic>
#include <memory>
#include <utility>

#include "autodetect/pmi_detector.h"
#include "detect/detectors.h"
#include "detect/fdr.h"
#include "learn/table_columns.h"
#include "util/parallel.h"

namespace unidetect {

UniDetect::UniDetect(const Model* model, UniDetectOptions options)
    : UniDetect(std::make_shared<const ModelStack>(ModelStack::Borrow(model)),
                std::move(options)) {}

UniDetect::UniDetect(std::shared_ptr<const ModelStack> stack,
                     UniDetectOptions options)
    : UniDetect(std::move(stack), std::move(options), nullptr) {}

UniDetect::UniDetect(std::shared_ptr<const ModelStack> stack,
                     UniDetectOptions options,
                     std::shared_ptr<const Dictionary> dictionary)
    : stack_(std::move(stack)), options_(std::move(options)) {
  if (!options_.use_dictionary) return;
  dictionary_ = dictionary != nullptr
                    ? std::move(dictionary)
                    : std::make_shared<const Dictionary>(
                          Dictionary::FromTokenPrevalence(
                              stack_->token_prevalence(),
                              options_.dictionary_min_table_count));
}

std::vector<Finding> UniDetect::DetectTable(const Table& table) const {
  // One encoding per call, shared by every class and freed on return.
  const TableColumns columns(table, stack_->token_prevalence());
  const ModelStack& model = *stack_;
  const double alpha = options_.alpha;
  std::vector<Finding> findings;
  for (int c = 0; c < kNumErrorClasses; ++c) {
    const ErrorClass cls = static_cast<ErrorClass>(c);
    if (!options_.detects(cls)) continue;
    // One case per class and no default label: -Wswitch (in -Wall)
    // rejects an ErrorClass that no case detects at compile time.
    switch (cls) {
      case ErrorClass::kOutlier:
        DetectOutliers(columns, model, alpha, &findings);
        break;
      case ErrorClass::kSpelling:
        DetectSpellingErrors(columns, model, alpha, dictionary_.get(),
                             &findings);
        break;
      case ErrorClass::kUniqueness:
        DetectUniquenessViolations(columns, model, alpha, &findings);
        break;
      case ErrorClass::kFd:
        DetectFdViolations(columns, model, alpha,
                           options_.max_fd_pairs_per_table, &findings);
        break;
      case ErrorClass::kPattern:
        DetectPatternErrors(columns, model.pattern_prevalence(), alpha,
                            options_.pattern_pmi_threshold, &findings);
        break;
    }
  }
  // Callers may hold findings for long (a corpus scan keeps them all),
  // so the vector and the strings give back their growth slack.
  findings.shrink_to_fit();
  for (Finding& finding : findings) {
    finding.value.shrink_to_fit();
    finding.explanation.shrink_to_fit();
  }
  SortFindings(&findings);
  return findings;
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
