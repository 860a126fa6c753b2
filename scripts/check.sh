#!/usr/bin/env bash
# Full local verification — the same preset matrix CI runs
# (.github/workflows/ci.yml):
#
#   release     optimized build + full test suite (the offline-labelled
#               sharded-build pipeline slice, the coded-kernel and
#               MPD-kernel property tests and the findings goldens run
#               first as fast gates,
#               then a UNIDETECT_DISABLE_SIMD=1 scalar-fallback slice)
#   asan-ubsan  address+UB sanitizer build + full test suite
#   tsan        ThreadSanitizer build + the multithreaded
#               DetectCorpus / ParallelFor / parallel-load tests and the
#               DetectionService Reload/ApplyDelta-under-DetectBatch
#               races (concurrent +Dict overrides among them) plus the
#               background compactor loop
#   lint        -Wall -Wextra -Werror build + the unidetect_lint gate
#               (all passes: determinism, unsafe-bytes,
#               checked-arithmetic; report in build-lint/lint_report.json)
#   tidy        clang-tidy over every TU (skipped if clang-tidy missing)
#   format      clang-format --dry-run (skipped if clang-format missing)
#
# `scripts/check.sh --bench` additionally runs every benchmark binary.
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
  local name="$1"
  echo "== preset: ${name} =="
  cmake --preset "${name}"
  cmake --build --preset "${name}"
}

run_preset release
# Fast fail on the offline pipeline slice (sharded-vs-single-shot
# equivalence, crash-resume) before the full suite, then the seeded
# snapshot fuzz smoke (never-crash contract on mutated snapshots), then
# the delta equivalence suite (base+K deltas byte-identical to the
# Model::Merge fold at every K, through the stack, the service, and the
# compactor).
ctest --preset offline
# Coded-kernel gate: the dictionary-coded UR/FR kernels and both
# extractor overloads against their string-map oracles, Prev(C) over the
# codes against the per-row string oracle, the flat string table behind
# the codes and the token index (and the index's decode checks), the MPD pair-scan kernel (bag bound,
# 2-gram bound, per-value pattern, codes-based distinct values) against
# the three-scan oracle, the banded edit distance past 64 bytes, the
# screens of all four detectors against the full candidates (FD,
# uniqueness, spelling, outlier and prevalence-bucket screens, screen by
# screen and detector by detector: FdGateScreen, UniquenessGateScreen,
# SpellingGateScreen, OutlierGateScreen, PrevalenceGateScreen,
# ScreenedDetectors), the class wiring in UniDetect::DetectTable (each
# class alone raises only its own findings, pattern keeps only scores
# below alpha: UniDetectClasses), then both findings goldens byte for
# byte (DESIGN.md sections 8, 10.2 and 17).
ctest --test-dir build-release --output-on-failure \
  -R 'CodedKernels|CodedPrevalence|FlatStringTable|TokenIndex|MpdKernel|EditDistanceProperty|GateScreen|ScreenedDetectors|UniDetectClasses|EnterpriseFindingsGolden|FindingJsonGolden'
ctest --preset fuzz
# Model-format gate: the CRC against its bytewise oracle, the snapshot
# codec and its typed decode errors, the identity path, the snapshot
# fuzz smoke, the delta stack, ApplyDelta and the compactor, and the
# token hash table the snapshot stores and maps (TokenIndex,
# FlatStringTable: hostile table edits, borrowed lookups).
ctest --test-dir build-release --output-on-failure \
  -R 'Crc32|SnapshotV2|ModelSnapshot|SnapshotFuzz|ModelStack|DeltaSnapshot|ApplyDelta|Compactor|TokenIndex|FlatStringTable'
# Network front end gate: loopback byte-identity (single- and
# multi-shard), typed overload / deadline / per-connection-cap
# shedding, zero torn responses across reload churn, wire robustness,
# the async multiplexing client, and the metric-table validation.
ctest --test-dir build-release --output-on-failure \
  -R 'ServerIntegration|ServerMetric|MetricsRegistry|WireProtocol|ShardedServer|AsyncClient'
ctest --preset release
# Scalar-fallback leg: UNIDETECT_DISABLE_SIMD forces both vector
# kernels, the MPD prefilter mask and the CRC-32 fold, onto their scalar
# bodies; re-run the suites that reach them so the fallback stays green
# on machines without AVX2 and PCLMULQDQ. perf_smoke's Enterprise-shaped
# MPD check then runs through the scalar mask, and every snapshot CRC
# through slicing-by-8.
UNIDETECT_DISABLE_SIMD=1 ctest --test-dir build-release --output-on-failure \
  -R 'Simd|Crc32|Dispersion|SubsetStats|Mpd|MetricFunctions|SnapshotV2|Detect|perf_smoke'

run_preset asan-ubsan
# The same model-format gate first: UBSan checks the alignment of every
# typed overlay of a mapped snapshot (token table, observations).
ctest --test-dir build-asan-ubsan --output-on-failure \
  -R 'Crc32|SnapshotV2|ModelSnapshot|SnapshotFuzz|ModelStack|DeltaSnapshot|ApplyDelta|Compactor|TokenIndex|FlatStringTable'
ctest --preset asan-ubsan

run_preset tsan
ctest --preset tsan

run_preset lint
ctest --preset lint

if command -v clang-tidy >/dev/null 2>&1; then
  run_preset tidy
else
  echo "== preset: tidy skipped (clang-tidy not installed) =="
fi

echo "== format check =="
scripts/format_check.sh

if [[ "${1:-}" == "--bench" ]]; then
  echo "== benchmarks =="
  for bench in build-release/bench/bench_*; do
    echo "--- ${bench} ---"
    "${bench}"
  done
fi

echo "check.sh: all gates green"
