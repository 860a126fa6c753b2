// Internal helpers of the snapshot codec (model_snapshot.cc,
// snapshot_v2.cc, delta_snapshot.cc), also used by the serving tier to
// compare a delta's options with its base's. Not part of the public API.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "learn/model.h"
#include "util/result.h"

namespace unidetect {
namespace snapshot_internal {

inline constexpr size_t kHeaderBytes = 8 + 4 + 4;
inline constexpr size_t kTableEntryBytes = 4 + 4 + 8 + 8;

/// \brief The fixed-width options payload (section id 1).
std::string EncodeOptionsPayload(const ModelOptions& options);
Result<ModelOptions> DecodeOptionsPayload(std::string_view payload);

/// \brief Human-readable section name for error messages.
std::string SectionName(uint32_t id);

}  // namespace snapshot_internal
}  // namespace unidetect
