// UniDetect: the unified facade (Definition 4). Runs the enabled error
// classes over a table or corpus and returns one ranked list of
// findings, comparable across classes through their LR scores.

#pragma once

#include <array>
#include <memory>
#include <vector>

#include "corpus/corpus.h"
#include "detect/dictionary.h"
#include "detect/finding.h"
#include "learn/model.h"
#include "learn/model_stack.h"

namespace unidetect {

/// \brief Per-class default-enable flags, indexed by ErrorClass: the
/// four paper classes on. Pattern detection (the Auto-Detect mechanism
/// of Section 3.5) is off: the paper treats it as an orthogonal error
/// class.
inline constexpr std::array<bool, kNumErrorClasses> kDefaultDetectorEnables = {
    true,   // kOutlier, Section 3.1
    true,   // kSpelling, Section 3.2
    true,   // kUniqueness, Section 3.3
    true,   // kFd, Section 3.4
    false,  // kPattern, Section 3.5
};

/// \brief Facade configuration.
struct UniDetectOptions {
  /// Significance level alpha: findings with LR >= alpha are dropped.
  /// 1.0 keeps every finding with any surprise (useful for Precision@K
  /// sweeps where the consumer truncates the ranked list itself).
  double alpha = 0.05;
  /// Per-class enable flags, indexed by ErrorClass.
  std::array<bool, kNumErrorClasses> detect = kDefaultDetectorEnables;

  bool detects(ErrorClass cls) const {
    return detect[static_cast<size_t>(cls)];
  }
  void set_detect(ErrorClass cls, bool enabled) {
    detect[static_cast<size_t>(cls)] = enabled;
  }
  /// \brief Turns every class off (callers then re-enable selectively,
  /// e.g. the eval harness isolating one class per run).
  void DisableAllClasses() { detect.fill(false); }

  /// PMI threshold for pattern findings (more negative = stricter).
  double pattern_pmi_threshold = -2.0;
  /// When true, builds a dictionary from the model's token index and runs
  /// the UNIDETECT+Dict spelling variant (Section 4.3).
  bool use_dictionary = false;
  /// Tokens must appear in at least this many corpus tables to enter the
  /// dictionary (only used when use_dictionary is true).
  uint64_t dictionary_min_table_count = 20;
  /// FD pair enumeration cap per table.
  size_t max_fd_pairs_per_table = 30;
  /// When > 0, DetectCorpus additionally applies Benjamini-Hochberg FDR
  /// control at this level over the final ranked list (the multiple-
  /// testing safeguard Section 2.2.3 calls out); 0 disables.
  double fdr_q = 0.0;
};

/// \brief The unified error detector. DetectTable runs each enabled
/// class in ascending ErrorClass order, each with its own alpha bar
/// (detect/detectors.h), then ranks; corpus scans also apply FDR control.
class UniDetect {
 public:
  /// `model` must outlive the UniDetect instance (wrapped in a
  /// single-layer borrowed ModelStack internally).
  UniDetect(const Model* model, UniDetectOptions options = {});

  /// \brief Layered construction: detects against `stack` (base plus
  /// applied deltas). The shared_ptr keeps every layer's snapshot
  /// backing mapped for the detector's lifetime; answers are
  /// byte-identical to detecting against the Model::Merge fold of the
  /// stack's layers.
  UniDetect(std::shared_ptr<const ModelStack> stack,
            UniDetectOptions options = {});

  /// \brief Layered construction with a +Dict dictionary built elsewhere
  /// and shared, so a serving tier builds it once per model rather than
  /// once per request. Used only when `options.use_dictionary`; when
  /// null, the facade builds its own from the stack's token prevalence.
  UniDetect(std::shared_ptr<const ModelStack> stack, UniDetectOptions options,
            std::shared_ptr<const Dictionary> dictionary);

  /// \brief All findings in one table, ranked most-confident first.
  std::vector<Finding> DetectTable(const Table& table) const;

  /// \brief All findings across a corpus, ranked most-confident first;
  /// each finding's table_index identifies its table. With num_threads
  /// != 1, tables are scanned in parallel (0 = hardware concurrency);
  /// the ranked output is identical regardless of thread count.
  std::vector<Finding> DetectCorpus(const Corpus& corpus,
                                    size_t num_threads = 1) const;

  const UniDetectOptions& options() const { return options_; }

 private:
  // shared_ptr keeps delta layers alive while this facade can still
  // query them, and lets a serving tier share one stack across facades.
  std::shared_ptr<const ModelStack> stack_;
  UniDetectOptions options_;
  // Null unless options_.use_dictionary.
  std::shared_ptr<const Dictionary> dictionary_;
};

}  // namespace unidetect
