#include "offline/shard_plan.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <utility>

#include "corpus/corpus_io.h"
#include "util/binary_io.h"
#include "util/string_util.h"

namespace unidetect {

namespace {

// Gathers the planned (path, bytes, crc32) entries of `dirs`, reading
// every file once for its checksum.
Result<std::vector<ShardFile>> CollectFiles(
    const std::vector<std::string>& dirs) {
  std::vector<ShardFile> files;
  for (const std::string& dir : dirs) {
    UNIDETECT_ASSIGN_OR_RETURN(const std::vector<std::string> paths,
                               ListCsvFiles(dir));
    for (const std::string& path : paths) {
      UNIDETECT_ASSIGN_OR_RETURN(const std::string bytes,
                                 ReadFileToString(path));
      files.push_back(ShardFile{path, bytes.size(), Crc32(bytes)});
    }
  }
  return files;
}

// Appends `files` split into `num_shards` contiguous, balanced slices:
// the first `rem` shards get one extra file.
void AppendShards(std::vector<ShardFile> files, size_t num_shards,
                  std::vector<Shard>* shards) {
  const size_t n = files.size();
  num_shards = std::min(std::max<size_t>(num_shards, 1), std::max<size_t>(n, 1));
  const size_t base = n / num_shards;
  const size_t rem = n % num_shards;
  size_t next = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t take = base + (s < rem ? 1 : 0);
    Shard shard;
    shard.files.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      shard.files.push_back(std::move(files[next++]));
    }
    shards->push_back(std::move(shard));
  }
}

}  // namespace

size_t ShardPlan::num_files() const {
  size_t n = 0;
  for (const Shard& shard : shards) n += shard.files.size();
  return n;
}

Result<ShardPlan> PlanShards(const std::vector<std::string>& input_dirs,
                             const TrainerOptions& trainer,
                             size_t num_shards) {
  if (input_dirs.empty()) {
    return Status::InvalidArgument("PlanShards: no input directories");
  }
  UNIDETECT_ASSIGN_OR_RETURN(std::vector<ShardFile> files,
                             CollectFiles(input_dirs));
  if (files.empty()) {
    return Status::InvalidArgument(
        "PlanShards: input directories contain no CSV files");
  }
  ShardPlan plan;
  plan.input_dirs = input_dirs;
  plan.trainer = trainer;
  plan.trainer.num_threads = 0;  // runtime concern; keep manifests canonical
  AppendShards(std::move(files), num_shards, &plan.shards);
  return plan;
}

std::string SerializeShardPlan(const ShardPlan& plan) {
  std::ostringstream os;
  // max_digits10 makes the double -> text -> double round trip exact, so
  // a resumed build reconstructs bit-identical ModelOptions.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << kManifestMagic << '\n';
  const ModelOptions& m = plan.trainer.model;
  os << "options " << (m.featurize.enabled ? 1 : 0) << ' '
     << static_cast<int>(m.smoothing) << ' '
     << static_cast<int>(m.denominator) << ' ' << m.epsilon.min_rows << ' '
     << m.epsilon.fraction << ' ' << m.pseudocount << ' ' << m.min_support
     << ' ' << m.point_grid << ' ' << m.min_column_rows << ' '
     << m.mpd.distance_cap << ' ' << m.mpd.max_values << ' '
     << plan.trainer.max_fd_pairs_per_table << '\n';
  os << "inputs " << plan.input_dirs.size() << '\n';
  for (const std::string& dir : plan.input_dirs) os << "input " << dir << '\n';
  os << "shards " << plan.shards.size() << '\n';
  for (size_t s = 0; s < plan.shards.size(); ++s) {
    const Shard& shard = plan.shards[s];
    os << "shard " << s << ' ' << shard.files.size() << '\n';
    for (const ShardFile& file : shard.files) {
      os << "file " << file.crc32 << ' ' << file.bytes << ' ' << file.path
         << '\n';
    }
  }
  return os.str();
}

namespace {

// Reads "<tag> " off `line` and returns the remainder, or empty nullopt
// semantics via ok flag.
bool ConsumeTag(std::string_view* line, std::string_view tag) {
  if (!StartsWith(*line, tag)) return false;
  line->remove_prefix(tag.size());
  if (line->empty() || line->front() != ' ') return false;
  line->remove_prefix(1);
  return true;
}

template <typename Int>
bool ParseInt(std::string_view* line, Int* out) {
  const char* begin = line->data();
  const char* end = begin + line->size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc() || ptr == begin) return false;
  line->remove_prefix(static_cast<size_t>(ptr - begin));
  if (!line->empty() && line->front() == ' ') line->remove_prefix(1);
  return true;
}

}  // namespace

Result<ShardPlan> ParseShardPlan(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string line;
  if (!std::getline(is, line) || line != kManifestMagic) {
    return Status::Corruption("ShardPlan: bad magic");
  }

  ShardPlan plan;
  {
    if (!std::getline(is, line)) {
      return Status::Corruption("ShardPlan: truncated manifest");
    }
    std::istringstream ls(line);
    std::string tag;
    int featurize = 1;
    int smoothing = 0;
    int denominator = 0;
    ModelOptions& m = plan.trainer.model;
    ls >> tag >> featurize >> smoothing >> denominator >>
        m.epsilon.min_rows >> m.epsilon.fraction >> m.pseudocount >>
        m.min_support >> m.point_grid >> m.min_column_rows >>
        m.mpd.distance_cap >> m.mpd.max_values >>
        plan.trainer.max_fd_pairs_per_table;
    if (tag != "options" || !ls) {
      return Status::Corruption("ShardPlan: bad options line");
    }
    if (smoothing < 0 || smoothing > 1 || denominator < 0 || denominator > 1) {
      return Status::Corruption("ShardPlan: options enum out of range");
    }
    m.featurize.enabled = featurize != 0;
    m.smoothing = static_cast<SmoothingMode>(smoothing);
    m.denominator = static_cast<DenominatorMode>(denominator);
  }

  size_t num_inputs = 0;
  {
    if (!std::getline(is, line)) {
      return Status::Corruption("ShardPlan: truncated manifest");
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag >> num_inputs;
    if (tag != "inputs" || !ls) {
      return Status::Corruption("ShardPlan: bad inputs line");
    }
    // Every entry occupies at least one manifest line, so any declared
    // count larger than the text itself is a lie; rejecting it here
    // keeps crafted counts from driving allocations below.
    if (num_inputs > text.size()) {
      return Status::Corruption("ShardPlan: input count exceeds manifest");
    }
  }
  for (size_t i = 0; i < num_inputs; ++i) {
    if (!std::getline(is, line)) {
      return Status::Corruption("ShardPlan: truncated input list");
    }
    std::string_view rest = line;
    if (!ConsumeTag(&rest, "input")) {
      return Status::Corruption("ShardPlan: malformed input line");
    }
    plan.input_dirs.emplace_back(rest);
  }

  size_t num_shards = 0;
  {
    if (!std::getline(is, line)) {
      return Status::Corruption("ShardPlan: truncated manifest");
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag >> num_shards;
    if (tag != "shards" || !ls) {
      return Status::Corruption("ShardPlan: bad shards line");
    }
    if (num_shards > text.size()) {
      return Status::Corruption("ShardPlan: shard count exceeds manifest");
    }
  }
  plan.shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    size_t index = 0;
    size_t num_shard_files = 0;
    {
      if (!std::getline(is, line)) {
        return Status::Corruption("ShardPlan: truncated shard list");
      }
      std::istringstream ls(line);
      std::string tag;
      ls >> tag >> index >> num_shard_files;
      if (tag != "shard" || !ls || index != s) {
        return Status::Corruption("ShardPlan: malformed shard header");
      }
      if (num_shard_files > text.size()) {
        return Status::Corruption("ShardPlan: file count exceeds manifest");
      }
    }
    Shard shard;
    shard.files.reserve(num_shard_files);
    for (size_t f = 0; f < num_shard_files; ++f) {
      if (!std::getline(is, line)) {
        return Status::Corruption("ShardPlan: truncated file list");
      }
      std::string_view rest = line;
      ShardFile file;
      if (!ConsumeTag(&rest, "file") || !ParseInt(&rest, &file.crc32) ||
          !ParseInt(&rest, &file.bytes) || rest.empty()) {
        return Status::Corruption("ShardPlan: malformed file line");
      }
      file.path = std::string(rest);
      shard.files.push_back(std::move(file));
    }
    plan.shards.push_back(std::move(shard));
  }
  return plan;
}

Status SaveShardPlan(const ShardPlan& plan, const std::string& path) {
  return WriteStringToFile(path, SerializeShardPlan(plan));
}

Result<ShardPlan> LoadShardPlan(const std::string& path) {
  UNIDETECT_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return ParseShardPlan(text);
}

}  // namespace unidetect
