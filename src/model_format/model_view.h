// ModelView: a shareable read handle over a model artifact.
//
// Open() maps a UDSNAP snapshot and decodes it zero-copy: SubsetStats
// spans borrow straight from the mapping (on little-endian hosts;
// big-endian ones decode into owned storage). The view owns the
// decoded Model behind a shared_ptr, and the mapped region (if any)
// lives exactly as long as the last Model copy that borrows from it.
// DetectionService decodes the same way (ModelFromSnapshotRegion) from
// the one mapping it also reads the artifact's identity from; its
// munmap happens when the final engine generation retires, which is
// what makes Reload-under-DetectBatch safe and tsan-visible.

#pragma once

#include <memory>
#include <string>

#include "learn/model.h"
#include "model_format/snapshot_validation.h"
#include "util/result.h"

namespace unidetect {

/// \brief An immutable, shareable view of a loaded model artifact.
class ModelView {
 public:
  /// \brief Opens the snapshot at `path`. The default validation defers
  /// bulk-payload checksums, making open cost O(index) — pass kFull for
  /// tools and offline verification.
  static Result<ModelView> Open(
      const std::string& path,
      SnapshotValidation validation = SnapshotValidation::kDeferPayload);

  const Model& model() const { return *model_; }
  std::shared_ptr<const Model> shared_model() const { return model_; }

  /// \brief True when the model's observation storage borrows from a
  /// mapped snapshot rather than owned heap memory.
  bool zero_copy() const { return model_->mapped_bytes() > 0; }

  /// \brief Bytes of file-backed (page-cache shared) storage; 0 when the
  /// model is fully owned.
  uint64_t mapped_bytes() const { return model_->mapped_bytes(); }

  /// \brief Approximate private heap bytes of the model.
  uint64_t resident_bytes() const { return model_->ApproxResidentBytes(); }

 private:
  explicit ModelView(std::shared_ptr<const Model> model)
      : model_(std::move(model)) {}

  std::shared_ptr<const Model> model_;
};

}  // namespace unidetect
