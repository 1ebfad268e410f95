#!/usr/bin/env bash
# Build a dedicated ThreadSanitizer tree and run the concurrency-sensitive
# suites against it: the task pool / batch runner unit tests, the obs
# shard-merge tests, the parallel-batch determinism property, and the native
# module cache's per-key concurrent compile. TSan and ASan cannot be
# combined, hence the separate tree (build-tsan) and the separate script.
#
# Usage: scripts/run_par_tsan.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-tsan"

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DECSIM_TSAN=ON
cmake --build "${build_dir}" -j "$(nproc)" \
  --target test_par test_obs test_properties test_backend

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

"${build_dir}/tests/test_par"
"${build_dir}/tests/test_obs" --gtest_filter='MetricsMerge.*:TracerAppend.*'
"${build_dir}/tests/test_properties" --gtest_filter='ParallelSimBatch.*'
"${build_dir}/tests/test_backend" --gtest_filter='NativeModuleCache.*'
