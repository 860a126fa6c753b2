#include "eval/harness.h"

#include <fstream>
#include <sstream>

#include "baselines/constraint_baselines.h"
#include "baselines/outlier_baselines.h"
#include "baselines/spelling_baselines.h"
#include "synthesis/fd_synthesis_detector.h"
#include "util/logging.h"

namespace unidetect {

namespace {

std::string ModelCachePath(const ExperimentConfig& config) {
  const ModelOptions& m = config.model_options;
  std::ostringstream os;
  os << config.model_cache_dir << "/unidetect_model_" << config.train_tables
     << "_" << config.train_seed << "_" << (m.featurize.enabled ? 1 : 0)
     << static_cast<int>(m.smoothing) << static_cast<int>(m.denominator)
     << "_" << m.min_support << ".model";
  return os.str();
}

}  // namespace

Model TrainBackgroundModel(const ExperimentConfig& config) {
  const std::string cache_path =
      config.model_cache_dir.empty() ? "" : ModelCachePath(config);
  if (!cache_path.empty()) {
    std::ifstream probe(cache_path);
    if (probe.good()) {
      probe.close();
      auto loaded = Model::Load(cache_path);
      if (loaded.ok()) {
        UNIDETECT_LOG(Info) << "loaded cached model " << cache_path;
        return std::move(loaded).ValueOrDie();
      }
      UNIDETECT_LOG(Warning) << "cached model unreadable, retraining: "
                             << loaded.status();
    }
  }
  const AnnotatedCorpus background =
      GenerateCorpus(WebCorpusSpec(config.train_tables, config.train_seed));
  TrainerOptions trainer_options;
  trainer_options.model = config.model_options;
  trainer_options.num_threads = config.threads;
  Trainer trainer(trainer_options);
  Model model = trainer.Train(background.corpus);
  if (!cache_path.empty()) {
    Status st = model.Save(cache_path);
    if (!st.ok()) {
      UNIDETECT_LOG(Warning) << "could not cache model: " << st;
    }
  }
  return model;
}

Experiment BuildExperiment(const CorpusSpec& test_spec,
                           const ExperimentConfig& config) {
  Experiment experiment{TrainBackgroundModel(config), {}, {}};
  experiment.test = GenerateCorpus(test_spec);
  experiment.truth = InjectErrors(&experiment.test, config.injection);
  UNIDETECT_LOG(Info) << test_spec.name << ": "
                      << experiment.test.corpus.tables.size() << " tables, "
                      << experiment.truth.errors.size()
                      << " injected errors";
  return experiment;
}

PrecisionCurve RunUniDetect(const Experiment& experiment, ErrorClass cls,
                            bool use_dictionary,
                            const std::string& display_name) {
  UniDetectOptions options;
  options.alpha = 1.0;  // keep the full ranked list; Precision@K truncates
  options.DisableAllClasses();  // per-class evaluation isolates one class
  options.set_detect(cls, true);
  options.use_dictionary = use_dictionary;
  UniDetect detector(&experiment.model, options);
  const std::vector<Finding> ranked =
      detector.DetectCorpus(experiment.test.corpus);
  std::string name = display_name;
  if (name.empty()) name = use_dictionary ? "UniDetect+Dict" : "UniDetect";
  return EvaluatePrecision(name, ranked, experiment.truth);
}

PrecisionCurve RunFdSynthesis(const Experiment& experiment,
                              const GroundTruth& truth,
                              const std::string& display_name) {
  const ModelStack model = ModelStack::Borrow(&experiment.model);
  std::vector<Finding> ranked;
  for (size_t i = 0; i < experiment.test.corpus.tables.size(); ++i) {
    std::vector<Finding> findings;
    const TableColumns columns(experiment.test.corpus.tables[i],
                               model.token_prevalence());
    DetectFdSynthesisViolations(columns, model, /*max_pairs_per_table=*/30,
                                &findings);
    for (auto& finding : findings) {
      finding.table_index = i;
      ranked.push_back(std::move(finding));
    }
  }
  SortFindings(&ranked);
  return EvaluatePrecision(display_name, ranked, truth);
}

PrecisionCurve RunBaseline(const Baseline& baseline,
                           const Experiment& experiment) {
  return RunBaselineAgainst(baseline, experiment, experiment.truth);
}

PrecisionCurve RunBaselineAgainst(const Baseline& baseline,
                                  const Experiment& experiment,
                                  const GroundTruth& truth) {
  const std::vector<Finding> ranked =
      baseline.DetectCorpus(experiment.test.corpus);
  return EvaluatePrecision(baseline.name(), ranked, truth);
}

void RunFigurePanels(const std::string& corpus_label,
                     const Experiment& experiment) {
  const WordFrequency frequency(experiment.model.token_index());

  // (a) spelling.
  {
    std::vector<PrecisionCurve> curves;
    curves.push_back(RunUniDetect(experiment, ErrorClass::kSpelling,
                                  /*use_dictionary=*/true));
    curves.push_back(RunUniDetect(experiment, ErrorClass::kSpelling));
    curves.push_back(RunBaseline(FuzzyClusterBaseline(), experiment));
    curves.push_back(RunBaseline(SpellerBaseline(&frequency), experiment));
    {
      SpellerOptions address_only;
      address_only.address_only = true;
      curves.push_back(
          RunBaseline(SpellerBaseline(&frequency, address_only), experiment));
    }
    curves.push_back(RunBaseline(
        OovBaseline(&experiment.model.token_index(), "Word2Vec", 40),
        experiment));
    curves.push_back(RunBaseline(
        OovBaseline(&experiment.model.token_index(), "GloVe", 10),
        experiment));
    PrintCurves("(a) spelling errors on " + corpus_label + " (Precision@K)",
                curves);
  }

  // (b) numeric outliers.
  {
    std::vector<PrecisionCurve> curves;
    curves.push_back(RunUniDetect(experiment, ErrorClass::kOutlier));
    curves.push_back(RunBaseline(MaxMadBaseline(), experiment));
    curves.push_back(RunBaseline(MaxSdBaseline(), experiment));
    curves.push_back(RunBaseline(DbodBaseline(), experiment));
    curves.push_back(RunBaseline(LofBaseline(), experiment));
    PrintCurves("(b) numeric outliers on " + corpus_label + " (Precision@K)",
                curves);
  }

  // (c) uniqueness violations.
  {
    std::vector<PrecisionCurve> curves;
    curves.push_back(RunUniDetect(experiment, ErrorClass::kUniqueness));
    curves.push_back(RunBaseline(UniqueRowRatioBaseline(), experiment));
    curves.push_back(RunBaseline(UniqueValueRatioBaseline(), experiment));
    PrintCurves(
        "(c) uniqueness violations on " + corpus_label + " (Precision@K)",
        curves);
  }
}

void RunFdPanels(const std::string& corpus_label,
                 const Experiment& experiment) {
  // FD panel: all injected FD errors.
  {
    std::vector<PrecisionCurve> curves;
    curves.push_back(RunUniDetect(experiment, ErrorClass::kFd));
    curves.push_back(RunBaseline(UniqueProjectionRatioBaseline(), experiment));
    curves.push_back(RunBaseline(ConformingRowRatioBaseline(), experiment));
    curves.push_back(RunBaseline(ConformingPairRatioBaseline(), experiment));
    PrintCurves("FD violations on " + corpus_label + " (Precision@K)",
                curves);
  }
  // FD-synthesis panel: errors on programmatic pairs only.
  {
    const GroundTruth synth_truth = SynthesizableFdTruth(experiment.truth);
    std::vector<PrecisionCurve> curves;
    curves.push_back(
        RunFdSynthesis(experiment, synth_truth, "UniDetect-FD-synthesis"));
    curves.push_back(RunBaselineAgainst(UniqueProjectionRatioBaseline(),
                                        experiment, synth_truth));
    curves.push_back(RunBaselineAgainst(ConformingRowRatioBaseline(),
                                        experiment, synth_truth));
    curves.push_back(RunBaselineAgainst(ConformingPairRatioBaseline(),
                                        experiment, synth_truth));
    PrintCurves(
        "FD-synthesis violations on " + corpus_label + " (Precision@K)",
        curves);
  }
}

GroundTruth SynthesizableFdTruth(const GroundTruth& truth) {
  GroundTruth out;
  for (const auto& error : truth.errors) {
    if (error.on_synthesizable_pair) out.errors.push_back(error);
  }
  return out;
}

}  // namespace unidetect
