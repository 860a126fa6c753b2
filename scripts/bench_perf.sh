#!/usr/bin/env bash
# Runs the hot-path microbenchmarks and records the numbers that back the
# performance claims in BENCH_PR8.json at the repo root: single-pass MPD
# closest pair vs the three-scan reference, merge-sort-tree LR counting
# vs the linear reference scan, cold snapshot load, DetectBatch
# throughput at 1 vs 4 threads, the offline pipeline sweep
# (BM_OfflineBuild at 1/2/4/8 shards, BM_OfflineMerge fold cost), the
# UDSNAP open/reload/query sweep (BM_ModelLoadV2 and BM_ReloadLatency
# across observation counts, BM_LrQueryLoadedModel over mapped storage),
# BM_CountSurprising at a leaf-dominated and a tree-dominated size,
# BM_DetectBatchWarmCache vs the cold BM_DetectBatch, and the layered-
# serving sweep (BM_ApplyDelta incremental publish vs the
# BM_ReloadLatency floor, BM_LrQueryLayered at K = 0/1/2/5 resident
# delta layers, BM_Compact fold-and-swap cost). Each optimized path and
# its baseline live in the same binary, so one run captures both sides.
# Only UDSNAP v3 with f32 observations is benchmarked: it is the one
# model format the library reads and writes.
#
# Usage: scripts/bench_perf.sh [extra benchmark args...]
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -x build/bench/bench_perf ]]; then
  cmake -B build -S .
  cmake --build build -j --target bench_perf
fi

# The perf- and offline-labelled ctest slices guard the numbers below:
# benchmarks are only meaningful if the optimized paths agree with the
# references and the sharded build is bit-identical to single-shot.
ctest --test-dir build -L 'perf|offline' --output-on-failure

build/bench/bench_perf \
  --benchmark_filter='BM_(MpdProfile|MpdProfileReference|LrQuery|LrQueryLinear|LrQueryLoadedModel|LrQueryLayered|CountSurprising|BoundedEditDistance|EditDistance|LikelihoodRatioLookup|ModelLoadBinary|ModelLoadV2|ReloadLatency|ApplyDelta|Compact|DetectBatch|DetectBatchWarmCache|OfflineBuild|OfflineMerge)' \
  --benchmark_format=json \
  --benchmark_out=BENCH_PR8.json \
  --benchmark_out_format=json \
  "$@"

echo "Wrote $(pwd)/BENCH_PR8.json"
