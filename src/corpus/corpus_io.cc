#include "corpus/corpus_io.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#include "util/logging.h"
#include "util/mutex.h"
#include "util/parallel.h"
#include "util/thread_annotations.h"

namespace unidetect {

namespace fs = std::filesystem;

namespace {
// Files skipped by parallel-load shards; drained in path order after the
// shards join so the warning log is deterministic.
struct SkipLog {
  Mutex mu;
  std::vector<std::pair<size_t, std::string>> entries GUARDED_BY(mu);

  void Record(size_t path_index, std::string message) EXCLUDES(mu) {
    MutexLock lock(&mu);
    entries.emplace_back(path_index, std::move(message));
  }
};

std::string SanitizeFileName(const std::string& name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
        c == '_') {
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out = "table";
  return out;
}
}  // namespace

Status SaveCorpusToDirectory(const Corpus& corpus, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  for (size_t i = 0; i < corpus.tables.size(); ++i) {
    const Table& table = corpus.tables[i];
    // Zero-padded index keeps lexicographic load order == save order.
    char index[32];
    std::snprintf(index, sizeof(index), "%08zu", i);
    const std::string path = dir + "/" + index + "_" +
                             SanitizeFileName(table.name()) + ".csv";
    UNIDETECT_RETURN_NOT_OK(WriteCsvFile(path, table.ToCsv()));
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListCsvFiles(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound(dir + " is not a directory");
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".csv") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::IOError("cannot list " + dir + ": " + ec.message());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Result<Table> LoadTableFromCsvFile(const std::string& path) {
  auto csv = ReadCsvFile(path);
  if (!csv.ok()) return csv.status();
  return Table::FromCsv(*csv, fs::path(path).stem().string());
}

Result<Corpus> LoadCorpusFromDirectory(const std::string& dir,
                                       size_t num_threads) {
  UNIDETECT_ASSIGN_OR_RETURN(const std::vector<std::string> paths,
                             ListCsvFiles(dir));

  // Per-path slots keep table order independent of shard timing.
  std::vector<std::optional<Table>> slots(paths.size());
  SkipLog skips;
  ParallelFor(num_threads, paths.size(),
              [&](size_t, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  auto table = LoadTableFromCsvFile(paths[i]);
                  if (table.ok()) {
                    slots[i].emplace(std::move(table).ValueOrDie());
                  } else {
                    skips.Record(i, table.status().ToString());
                  }
                }
              });

  {
    MutexLock lock(&skips.mu);
    std::sort(skips.entries.begin(), skips.entries.end());
    for (const auto& [index, message] : skips.entries) {
      UNIDETECT_LOG(Warning) << "skipping " << paths[index] << ": "
                             << message;
    }
  }

  Corpus corpus;
  corpus.name = dir;
  for (auto& slot : slots) {
    if (slot.has_value()) corpus.tables.push_back(std::move(*slot));
  }
  return corpus;
}

}  // namespace unidetect
