// The output check: every served response and every scan result is
// compared byte for byte against an in-process reference. Findings are
// compared in their UDWIRE encoding (server/wire.h), the exact bytes a
// client receives, so any drift in a finding's class, cells, rows,
// score or explanation counts as a mismatch.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/finding.h"
#include "server/wire.h"

namespace udbench {

using PerTable = std::vector<std::vector<unidetect::Finding>>;

/// \brief Canonical bytes of a findings list (an OK response frame with
/// request id and generation zeroed, so only findings are compared).
std::string FindingsBytes(const PerTable& per_table);

/// \brief Why `served` differs from the reference, or "" when it matches:
/// the response must be OK, carry a generation in [gen_lo, gen_hi], and
/// hold findings byte-identical to `reference_bytes`.
std::string CheckResponse(const unidetect::wire::DetectResponse& served,
                          const std::string& reference_bytes, uint64_t gen_lo,
                          uint64_t gen_hi);

}  // namespace udbench
