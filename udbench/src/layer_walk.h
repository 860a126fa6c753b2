// The traced run's walk through the detection layers. For a sample of
// the workload's own tables it times, from the benchmark's code, the
// public entry points of each layer: the facade (UniDetect::DetectTable),
// the candidate extractors and ModelStack::LikelihoodRatio in the same
// order and under the same conditions the four detectors call them, the
// metric kernels on the same columns, the findings-cache fingerprint, the
// UDWIRE codec, and a parallel DetectCorpus over the sample.

#pragma once

#include <string>
#include <vector>

#include "report.h"
#include "table/table.h"
#include "trace.h"

namespace udbench {

struct WalkInputs {
  std::vector<const unidetect::Table*> tables;
  /// Base then deltas of the chain the workload serves (kChainDepth
  /// deltas); stacks of depth 0, 2 and 4 are built from its prefixes.
  std::vector<std::string> chain;
  /// Delta layers of the stack the workload detects against (0, 2 or
  /// kChainDepth): DetectTable and the decomposition use it.
  size_t served_depth = 0;
  size_t threads = 1;
};

/// \brief Runs the walk and sets the detect.*, candidates.*, metrics.*,
/// model_stack.*, serving.fingerprint_us, wire.*, thread_pool.* and
/// trace.detect_coverage metrics from the span totals of `tracer`, which
/// must be enabled. Returns false (with `error`) when an
/// artifact of the chain cannot be opened.
bool LayerWalk(const WalkInputs& inputs, Tracer* tracer, Report* report,
               std::string* error);

}  // namespace udbench
