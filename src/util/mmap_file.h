// Read-only memory-mapped file region, the storage substrate of the
// zero-copy UDSNAP model path (model_format/snapshot_v2.h): serving
// maps the snapshot once and queries it in place, so reload cost is
// decoupled from observation count and the pages are shared read-only
// across every process that maps the same file.
//
// Determinism note: the base address of a mapping differs run to run
// (ASLR) and process to process. Pointers into a region must therefore
// never feed an ordering or hash key — see the pointer-key rule of the
// determinism linter (tools/lint/) and its mapped-region fixture
// (tests/lint_fixtures/bad_pointer_key_mapped.cc). MmapRegion
// deliberately defines no comparison operators so a region cannot end
// up as a container key by accident.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/result.h"

namespace unidetect {

/// \brief Owns one read-only, privately mapped view of a file.
class MmapRegion {
 public:
  /// \brief Maps `path` read-only. An empty file yields an empty region
  /// (no mapping); a missing or unreadable path, or one that is not a
  /// regular file, yields IOError.
  static Result<MmapRegion> Map(const std::string& path);

  MmapRegion() = default;
  ~MmapRegion();

  MmapRegion(MmapRegion&& other) noexcept;
  MmapRegion& operator=(MmapRegion&& other) noexcept;
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;

  // Mapping addresses are nondeterministic; regions must not be ordered.
  bool operator<(const MmapRegion&) const = delete;

  /// \brief The mapped bytes. Valid until the region is destroyed or
  /// moved-from; page-aligned base (the alignment guarantee the v2
  /// cast-from-mapped-bytes float path relies on).
  std::string_view bytes() const {
    return std::string_view(static_cast<const char*>(data_), size_);
  }

  size_t size() const { return size_; }

 private:
  MmapRegion(void* data, size_t size) : data_(data), size_(size) {}

  void Unmap();

  const void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace unidetect
