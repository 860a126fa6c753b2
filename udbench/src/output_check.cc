#include "output_check.h"

#include "util/string_util.h"

namespace udbench {

std::string FindingsBytes(const PerTable& per_table) {
  return unidetect::wire::EncodeOkResponseFrame(0, 0, per_table);
}

std::string CheckResponse(const unidetect::wire::DetectResponse& served,
                          const std::string& reference_bytes, uint64_t gen_lo,
                          uint64_t gen_hi) {
  using unidetect::StrCat;
  if (served.code != unidetect::wire::WireCode::kOk) {
    return StrCat("response code ",
                  unidetect::wire::WireCodeName(served.code), ": ",
                  served.error);
  }
  if (served.generation < gen_lo || served.generation > gen_hi) {
    return StrCat("generation ", served.generation, " outside [", gen_lo, ", ",
                  gen_hi, "]");
  }
  if (FindingsBytes(served.per_table) != reference_bytes) {
    return "findings differ from the in-process reference";
  }
  return "";
}

}  // namespace udbench
