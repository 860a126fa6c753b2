#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/string_util.h"

namespace unidetect {

Result<MmapRegion> MmapRegion::Map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(
        StrCat("mmap ", path, ": open failed: ", std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(
        StrCat("mmap ", path, ": fstat failed: ", std::strerror(err)));
  }
  if (!S_ISREG(st.st_mode)) {
    // A directory opens read-only too; only a regular file is an
    // artifact.
    ::close(fd);
    return Status::IOError(StrCat("mmap ", path, ": not a regular file"));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap(2) rejects zero-length mappings; an empty file is simply an
    // empty region.
    ::close(fd);
    return MmapRegion(nullptr, 0);
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);  // the mapping keeps its own reference to the file
  if (data == MAP_FAILED) {
    return Status::IOError(
        StrCat("mmap ", path, ": mmap failed: ", std::strerror(err)));
  }
  return MmapRegion(data, size);
}

MmapRegion::~MmapRegion() { Unmap(); }

MmapRegion::MmapRegion(MmapRegion&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MmapRegion& MmapRegion::operator=(MmapRegion&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MmapRegion::Unmap() {
  if (data_ != nullptr) {
    ::munmap(const_cast<void*>(data_), size_);
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace unidetect
