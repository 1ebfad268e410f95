#!/usr/bin/env bash
# CI obs job (DESIGN.md §3.7, docs/architecture.md "Observability"): the
# backend-spanning telemetry of PR 7 must
#   1. pass the ABI v2 bit-identity suite — a native module with a Tracer +
#      MetricsRegistry attached reproduces the interpreter's trace, spans
#      and metrics exactly, with no interpreter fallback;
#   2. pass the ledger round-trip/diff suites and the tracer/metrics merge
#      edge cases (empty shards, duplicate interned names, self-merge);
#   3. hold the EXP-O2 perf guard (attached-but-disabled obs <= 2% overhead
#      on the native path on chains_200, >= 1.5x interpreter events/s
#      retained on servo_rk4), run via `ctest -C bench`;
#   4. gate regressions at the CLI: `ecsim_flow ledger diff` must exit 1
#      for a ledger whose newest chains_200 record is >10% below the
#      committed BENCH figure, and 0 for a healthy one;
#   5. survive with the obs callback table exercised under ASan+UBSan (the
#      generated .so inherits the sanitizer flags via ECSIM_NATIVE_FLAGS).
#
# Usage: scripts/run_obs_guard.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-obs"
asan_dir="${repo_root}/build-obs-asan"
JOBS="$(nproc 2>/dev/null || echo 2)"

OBS_TESTS="NativeObs|Ledger|MetricsMerge|TracerAppend|HistogramQuantile"
OBS_TESTS+="|CellMetrics|FaultPlan.Hash"

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "${JOBS}" \
  --target test_backend test_obs test_par test_fault \
           bench_o2_native_obs ecsim_flow

# 1 + 2. Bit-identity, ledger and merge suites.
ctest --test-dir "${build_dir}" --output-on-failure -R "${OBS_TESTS}"

# 3. EXP-O2 perf guard (writes BENCH_o2.json into the build dir).
ctest --test-dir "${build_dir}" -C bench -R bench_o2_native_obs_guard \
  --output-on-failure

# 4. CLI regression gate on synthetic ledgers: a slow record must trip the
# diff (exit 1), a healthy one must pass (exit 0). The record format here
# mirrors obs/ledger.cpp to_json_line(); the ledger tests above guarantee
# the parser accepts it.
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
hash="0xfeedc0de00000001"
cat > "${tmp}/bench.json" <<EOF
{
  "experiment": "EXP-O2-synthetic",
  "model_ir_hash_chains_200": "${hash}",
  "codegen": [
    {"scenario": "chains_200", "native_best_events_per_s": 1000000.0}
  ]
}
EOF
record() {  # $1 = events_per_s
  printf '{"schema_version": 1, "ir_hash": "%s", "model": "chains_200", ' \
    "${hash}"
  printf '"backend_requested": "native", "backend_used": "native", '
  printf '"fallback_reason": "", "seed": 1, "fault_plan_hash": 0, '
  printf '"threads": 1, "wall_s": 0.5, "events": 601000, '
  printf '"events_per_s": %s, "metrics": {}}\n' "$1"
}
record 850000.0 > "${tmp}/slow.jsonl"     # 15% below: beyond the 10% gate
record 990000.0 > "${tmp}/healthy.jsonl"  # 1% below: fine

rc=0
"${build_dir}/tools/ecsim_flow" ledger diff \
  --ledger="${tmp}/slow.jsonl" --bench="${tmp}/bench.json" || rc=$?
if [[ "${rc}" -ne 1 ]]; then
  echo "FAIL: ledger diff on a slow record exited ${rc}, expected 1"
  exit 1
fi
"${build_dir}/tools/ecsim_flow" ledger diff \
  --ledger="${tmp}/healthy.jsonl" --bench="${tmp}/bench.json"
echo "ledger diff gate: slow record trips (exit 1), healthy record passes"

# 5. The obs bridge under ASan+UBSan.
cmake -S "${repo_root}" -B "${asan_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DECSIM_SANITIZE=ON
cmake --build "${asan_dir}" -j "${JOBS}" --target test_backend test_obs
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
ctest --test-dir "${asan_dir}" --output-on-failure \
  -R "NativeObs|Ledger|MetricsMerge|TracerAppend"

echo "run_obs_guard: OK"
