// unidetect_cli: a single command-line front end over the library —
// train models, scan CSVs, evaluate on injected corpora, and run the
// Definition 5 configuration search.
//
//   unidetect_cli train  <model> [--tables N] [--seed S] [--from-dir D]
//   unidetect_cli detect <model> <sheet.csv> [--alpha A] [--fdr Q]
//                        [--patterns] [--repair]
//   unidetect_cli eval   <model> [--tables N] [--seed S]
//   unidetect_cli search [--background N] [--targets N]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "detect/finding_json.h"
#include "detect/unidetect.h"
#include "eval/harness.h"
#include "learn/trainer.h"
#include "repair/repair.h"
#include "search/config_search.h"
#include "util/logging.h"
#include "util/string_util.h"

using namespace unidetect;

namespace {

// The flags that take no value; every other --name takes the next token.
constexpr char kJsonFlag[] = "json";
constexpr char kPatternsFlag[] = "patterns";
constexpr char kRepairFlag[] = "repair";
constexpr const char* kBooleanFlags[] = {kJsonFlag, kPatternsFlag,
                                         kRepairFlag};

// Minimal flag scanner: --name value, or bare --name for kBooleanFlags.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }
  std::string Get(const std::string& name, const std::string& fallback) const {
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == "--" + name) return args_[i + 1];
    }
    return fallback;
  }
  // A numeric flag's value, `fallback` when the flag is absent, and
  // nullopt when the value is missing or malformed.
  std::optional<uint64_t> GetUnsigned(const std::string& name,
                                      uint64_t fallback) const {
    if (!Has(name)) return fallback;
    return ParseUnsigned(Get(name, ""));
  }
  std::optional<double> GetNonNegativeDouble(const std::string& name,
                                             double fallback) const {
    if (!Has(name)) return fallback;
    return ParseNonNegativeDouble(Get(name, ""));
  }
  bool Has(const std::string& name) const {
    for (const auto& arg : args_) {
      if (arg == "--" + name) return true;
    }
    return false;
  }
  // First argument that is not a flag or a flag value.
  std::string Positional(size_t index) const {
    size_t seen = 0;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind("--", 0) == 0) {
        if (!IsBoolean(args_[i].substr(2))) ++i;  // skip the flag's value
        continue;
      }
      if (seen++ == index) return args_[i];
    }
    return "";
  }

 private:
  static bool IsBoolean(const std::string& name) {
    return std::any_of(std::begin(kBooleanFlags), std::end(kBooleanFlags),
                       [&](const char* flag) { return name == flag; });
  }

  std::vector<std::string> args_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: unidetect_cli <command> ...\n"
      "  train  <model> [--tables N] [--seed S] [--from-dir D]\n"
      "  detect <model> <sheet.csv> [--alpha A] [--fdr Q] [--patterns]"
      " [--repair] [--json]\n"
      "  eval   <model> [--tables N] [--seed S]\n"
      "  search [--background N] [--targets N]\n");
  return 2;
}

// Every command parses its numeric flags before it opens any file, so a
// malformed value prints usage and exits 2 whatever the paths are.

int CmdTrain(const Flags& flags) {
  const std::optional<uint64_t> tables = flags.GetUnsigned("tables", 25000);
  const std::optional<uint64_t> seed = flags.GetUnsigned("seed", 1);
  if (!tables || !seed) return Usage();
  const std::string model_path = flags.Positional(0);
  if (model_path.empty()) {
    std::fprintf(stderr, "train: missing <model> path\n");
    return 2;
  }
  Corpus corpus;
  const std::string from_dir = flags.Get("from-dir", "");
  if (!from_dir.empty()) {
    auto loaded = LoadCorpusFromDirectory(from_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "train: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(loaded).ValueOrDie();
    std::printf("Loaded %zu tables from %s\n", corpus.tables.size(),
                from_dir.c_str());
  } else {
    corpus = GenerateCorpus(WebCorpusSpec(*tables, *seed)).corpus;
    std::printf("Generated background corpus: %zu tables\n",
                corpus.tables.size());
  }
  Trainer trainer;
  const Model model = trainer.Train(corpus);
  const Status st = model.Save(model_path);
  if (!st.ok()) {
    std::fprintf(stderr, "train: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Model (%zu subsets, %llu observations) saved to %s\n",
              model.num_subsets(),
              static_cast<unsigned long long>(model.num_observations()),
              model_path.c_str());
  return 0;
}

int CmdDetect(const Flags& flags) {
  const std::optional<double> alpha = flags.GetNonNegativeDouble("alpha", 0.05);
  const std::optional<double> fdr = flags.GetNonNegativeDouble("fdr", 0.0);
  if (!alpha || !fdr) return Usage();
  const std::string model_path = flags.Positional(0);
  const std::string csv_path = flags.Positional(1);
  if (model_path.empty() || csv_path.empty()) {
    std::fprintf(stderr, "detect: usage: detect <model> <sheet.csv>\n");
    return 2;
  }
  auto model = Model::Load(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "detect: %s\n", model.status().ToString().c_str());
    return 1;
  }
  auto csv = ReadCsvFile(csv_path);
  if (!csv.ok()) {
    std::fprintf(stderr, "detect: %s\n", csv.status().ToString().c_str());
    return 1;
  }
  auto table = Table::FromCsv(*csv, csv_path);
  if (!table.ok()) {
    std::fprintf(stderr, "detect: %s\n", table.status().ToString().c_str());
    return 1;
  }

  UniDetectOptions options;
  options.alpha = *alpha;
  options.fdr_q = *fdr;
  options.set_detect(ErrorClass::kPattern, flags.Has(kPatternsFlag));
  options.use_dictionary = true;
  UniDetect detector(&*model, options);
  Corpus one;
  one.tables.push_back(std::move(table).ValueOrDie());
  const std::vector<Finding> findings = detector.DetectCorpus(one);

  if (flags.Has(kJsonFlag)) {
    std::printf("%s\n", FindingsToJson(findings).c_str());
    return 0;
  }
  if (findings.empty()) {
    std::printf("no findings at alpha=%g\n", options.alpha);
    return 0;
  }
  const Repairer repairer(&*model);
  for (const Finding& finding : findings) {
    std::printf("[%s] LR=%.4g col=%zu row(s)=",
                ErrorClassToString(finding.error_class), finding.score,
                finding.column);
    for (size_t row : finding.rows) std::printf("%zu ", row);
    std::printf("value=%s\n    %s\n", finding.value.c_str(),
                finding.explanation.c_str());
    if (flags.Has(kRepairFlag)) {
      for (const auto& fix : repairer.Suggest(one.tables[0], finding)) {
        if (fix.action == RepairAction::kReplace) {
          std::printf("    fix: '%s' -> '%s' (%s)\n", fix.current.c_str(),
                      fix.suggested.c_str(), fix.rationale.c_str());
        } else {
          std::printf("    fix: review/remove row %zu (%s)\n", fix.row,
                      fix.rationale.c_str());
        }
      }
    }
  }
  return 0;
}

int CmdEval(const Flags& flags) {
  const std::optional<uint64_t> tables = flags.GetUnsigned("tables", 1500);
  const std::optional<uint64_t> seed = flags.GetUnsigned("seed", 777);
  if (!tables || !seed) return Usage();
  const std::string model_path = flags.Positional(0);
  if (model_path.empty()) {
    std::fprintf(stderr, "eval: missing <model> path\n");
    return 2;
  }
  auto model = Model::Load(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "eval: %s\n", model.status().ToString().c_str());
    return 1;
  }
  Experiment experiment{std::move(model).ValueOrDie(), {}, {}};
  CorpusSpec spec = WebCorpusSpec(*tables, *seed);
  spec.name = "eval";
  experiment.test = GenerateCorpus(spec);
  experiment.truth = InjectErrors(&experiment.test, InjectionSpec());
  std::printf("evaluating on %zu tables with %zu injected errors\n",
              static_cast<size_t>(*tables),
              experiment.truth.errors.size());

  std::vector<PrecisionCurve> curves;
  for (ErrorClass cls : {ErrorClass::kOutlier, ErrorClass::kSpelling,
                         ErrorClass::kUniqueness, ErrorClass::kFd}) {
    PrecisionCurve curve = RunUniDetect(experiment, cls);
    curve.method = std::string("UniDetect/") + ErrorClassToString(cls);
    curves.push_back(std::move(curve));
  }
  PrintCurves("Precision@K by error class", curves);
  return 0;
}

int CmdSearch(const Flags& flags) {
  const std::optional<uint64_t> background_tables =
      flags.GetUnsigned("background", 6000);
  const std::optional<uint64_t> target_tables =
      flags.GetUnsigned("targets", 1500);
  if (!background_tables || !target_tables) return Usage();
  const AnnotatedCorpus background =
      GenerateCorpus(WebCorpusSpec(*background_tables, 1));
  AnnotatedCorpus targets =
      GenerateCorpus(WebCorpusSpec(*target_tables, 555));
  InjectErrors(&targets, InjectionSpec());
  const auto results =
      SearchConfigurations(background.corpus, targets.corpus);
  std::printf("%-42s %12s %12s\n", "configuration", "discoveries",
              "candidates");
  for (const auto& result : results) {
    std::printf("%-42s %12zu %12zu\n", result.config.ToString().c_str(),
                result.discoveries, result.candidates);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const Flags flags(argc, argv, 2);
  if (std::strcmp(argv[1], "train") == 0) return CmdTrain(flags);
  if (std::strcmp(argv[1], "detect") == 0) return CmdDetect(flags);
  if (std::strcmp(argv[1], "eval") == 0) return CmdEval(flags);
  if (std::strcmp(argv[1], "search") == 0) return CmdSearch(flags);
  return Usage();
}
