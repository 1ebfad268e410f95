#!/usr/bin/env bash
# CI service job (DESIGN.md §3.9): the sweep-service daemon must
#   1. pass the svc test suites (wire protocol bit-exactness, LRU cache,
#      cache-key canonicalization properties, forked-daemon e2e) and the
#      ledger schema-v3 suites on a Release build;
#   2. survive a daemon smoke run driven through the REAL CLI: serve on a
#      unix socket, answer 100 mixed `--connect=` requests, stamp every
#      served request into the ledger with its cache disposition, and drain
#      to exit code 0 on SIGTERM;
#   3. hold the EXP-P9 perf guard (warm p50 >= 5x cold p50, 60% hit rate,
#      sharded grids byte-identical at 1|2|4 workers) and the EXP-N1
#      networked-control guard (monotone stability-margin degradation as bus
#      load rises, 1-vs-4-thread grid bit-equality, svc codec round-trip)
#      via `ctest -C bench` — BENCH_p9.json and BENCH_n1.json land in the
#      build dir, and the daemon-served `sweep timing|arch|network` and
#      `fault sweep` grids must be byte-identical to the in-process ones;
#   4. pass the svc suites again under ASan+UBSan (fork/socket lifecycle,
#      frame codecs and the LRU splice paths are pointer-heavy).
#
# Usage: scripts/run_service_guard.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-service"
asan_dir="${repo_root}/build-service-asan"
JOBS="$(nproc 2>/dev/null || echo 2)"

svc_suites='^(ProtocolFraming|ProtocolFields|ProtocolCodec|ProtocolRequest|ProtocolMeta|ProtocolBits|ResultCacheTest|CacheKeyProperty|ServiceE2E|LedgerRecord|Ledger)\.'

# 1. Release build: svc + ledger suites.
cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "${JOBS}" \
  --target test_svc test_obs ecsim_flow bench_p9_service bench_n1_network
ctest --test-dir "${build_dir}" --output-on-failure -R "${svc_suites}"

# 2. Daemon smoke through the CLI.
flow="${build_dir}/tools/ecsim_flow"
sock="${build_dir}/svc_smoke.sock"
ledger="${build_dir}/svc_smoke_ledger.jsonl"
rm -f "${sock}" "${ledger}"

"${flow}" serve --socket="${sock}" --workers=2 --cache-mb=32 \
  --ledger="${ledger}" &
serve_pid=$!
trap 'kill -9 ${serve_pid} 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  [[ -S "${sock}" ]] && break
  sleep 0.1
done
[[ -S "${sock}" ]] || { echo "FAIL: daemon socket never appeared"; exit 1; }

# 100 mixed requests: timing sweeps, network sweeps, fault sweeps and fault
# Monte Carlos with a handful of distinct seeds, so most requests repeat an
# earlier key and the ledger accumulates both computed and cache-served
# records.
for i in $(seq 1 100); do
  case $((i % 4)) in
    0) "${flow}" sweep timing --connect="${sock}" >/dev/null ;;
    1) "${flow}" sweep network --connect="${sock}" >/dev/null ;;
    2) "${flow}" fault sweep --connect="${sock}" --seed=$((i % 4 + 1)) \
         >/dev/null ;;
    3) "${flow}" fault montecarlo --connect="${sock}" --trials=8 \
         --seed=$((i % 4 + 1)) >/dev/null ;;
  esac
done

# Daemon fidelity: every daemon-served grid verb must be byte-identical to
# the in-process serial one (EXP-N1's network grid included).
for verb in "sweep timing" "sweep arch" "sweep network" "fault sweep"; do
  name="${verb/ /_}"
  # shellcheck disable=SC2086  # "sweep timing" is two arguments
  "${flow}" ${verb} --threads=1 --csv-out="${build_dir}/${name}_local.csv" \
    >/dev/null
  # shellcheck disable=SC2086
  "${flow}" ${verb} --connect="${sock}" \
    --csv-out="${build_dir}/${name}_daemon.csv" >/dev/null
  cmp "${build_dir}/${name}_local.csv" "${build_dir}/${name}_daemon.csv" ||
    { echo "FAIL: daemon-served ${verb} grid differs from in-process"; exit 1; }
done

records=$(wc -l < "${ledger}")
if [[ "${records}" -lt 100 ]]; then
  echo "FAIL: expected >= 100 ledger records, got ${records}"
  exit 1
fi
grep -q '"served_from_cache": 1' "${ledger}" ||
  { echo "FAIL: no cache-served record in the ledger"; exit 1; }
grep -q '"served_from_cache": 0' "${ledger}" ||
  { echo "FAIL: no computed record in the ledger"; exit 1; }
"${flow}" ledger show --cache --ledger="${ledger}" | tail -3

# Clean SIGTERM drain: exit code 0 and the socket unlinked.
kill -TERM "${serve_pid}"
drain_rc=0
wait "${serve_pid}" || drain_rc=$?
trap - EXIT
if [[ "${drain_rc}" -ne 0 ]]; then
  echo "FAIL: daemon drain exited ${drain_rc}"
  exit 1
fi
if [[ -e "${sock}" ]]; then
  echo "FAIL: daemon left its socket behind"
  exit 1
fi
echo "smoke: OK (${records} ledger records, clean drain)"

# 3. EXP-P9 perf guard and EXP-N1 networked-control guard (write
# BENCH_p9.json / BENCH_n1.json into the build dir).
ctest --test-dir "${build_dir}" -C bench \
  -R '(bench_p9_service_guard|bench_n1_network_guard)' --output-on-failure

# 4. svc suites under ASan+UBSan.
cmake -S "${repo_root}" -B "${asan_dir}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DECSIM_SANITIZE=ON
cmake --build "${asan_dir}" -j "${JOBS}" --target test_svc test_obs
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
ctest --test-dir "${asan_dir}" --output-on-failure -R "${svc_suites}"

echo "run_service_guard: OK"
