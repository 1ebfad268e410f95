#!/usr/bin/env bash
# CI codegen job (DESIGN.md §3.6): the native code-generation backend must
#   1. pass the IR determinism suite (round-trip, hash stability, committed
#      golden), the interp-vs-native bit-identity property suites, the
#      shape-sharing property suite and the module-cache concurrency suite;
#   2. byte-reproduce the committed golden IR through the CLI;
#   3. compile one module per model shape: a cold native `sweep network`
#      into a fresh cache leaves exactly 2 modules (one per bus scenario,
#      not one per model) and prints the interpreter's tables;
#   4. hold the EXP-P6 perf guard (native >= 1.5x interpreter events/s on
#      chains_200, traces identical), run via `ctest -C bench`;
#   5. survive with the generated .so compiled and dlopen()ed under
#      ASan+UBSan (the module inherits the build's sanitizer flags through
#      ECSIM_NATIVE_FLAGS — see src/CMakeLists.txt).
#
# Usage: scripts/run_codegen_guard.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-codegen"
asan_dir="${repo_root}/build-codegen-asan"
JOBS="$(nproc 2>/dev/null || echo 2)"
suites="IrRoundtrip|IrHash|IrGolden|NativeBackend|CosimBackend"
suites+="|NativeModuleCache|PropertyShapes"

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "${JOBS}" \
  --target test_ir test_backend test_properties bench_p6_codegen ecsim_flow

# 1. IR determinism, backend bit-identity, shape sharing, module cache.
ctest --test-dir "${build_dir}" --output-on-failure -R "${suites}"

# 2. The CLI reproduces the committed golden byte for byte.
"${build_dir}/tools/ecsim_flow" ir dump --example=servo |
  diff - "${repo_root}/tests/ir/golden_servo.ir"
echo "golden IR: CLI output is byte-identical"

# 3. Cold native EXP-N1 grid: 20 models, 2 shapes, 2 modules. The CSVs must
#    match byte for byte; stdout differs only in the per-cell wall-time line
#    and the native run's backend line.
smoke="$(mktemp -d)"
trap 'rm -rf "${smoke}"' EXIT
ECSIM_NATIVE_CACHE="${smoke}/cache" "${build_dir}/tools/ecsim_flow" \
  sweep network --backend=native --csv-out="${smoke}/native.csv" \
  > "${smoke}/native.txt"
"${build_dir}/tools/ecsim_flow" sweep network --backend=interp \
  --csv-out="${smoke}/interp.csv" > "${smoke}/interp.txt"
modules="$(find "${smoke}/cache" -name '*.so' | wc -l)"
if [ "${modules}" -ne 2 ]; then
  echo "cold native sweep network compiled ${modules} modules, want 2" >&2
  exit 1
fi
cmp "${smoke}/native.csv" "${smoke}/interp.csv"
diff <(grep -v -e '^cell wall time:' -e '^backend:' "${smoke}/native.txt") \
  <(grep -v '^cell wall time:' "${smoke}/interp.txt")
echo "sweep network: 2 modules, output identical to the interpreter's"

# 4. EXP-P6 perf guard (writes BENCH_p6.json into the build dir).
ctest --test-dir "${build_dir}" -C bench -R bench_p6_codegen_guard \
  --output-on-failure

# 5. Generated modules under ASan+UBSan.
cmake -S "${repo_root}" -B "${asan_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DECSIM_SANITIZE=ON
cmake --build "${asan_dir}" -j "${JOBS}" \
  --target test_ir test_backend test_properties
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
ctest --test-dir "${asan_dir}" --output-on-failure -R "${suites}"

echo "run_codegen_guard: OK"
