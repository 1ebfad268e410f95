#!/usr/bin/env bash
# CLI transcript test: every sweep verb of ecsim_flow, served three ways —
#   local     in-process at --threads=2
#   daemon    through a forked `ecsim_flow serve` via --connect
#   fallback  --connect at a socket nobody listens on (in-process, with the
#             reason on stderr)
# — must print exactly the committed transcript in tests/cli/golden/, and
# the grid verbs' --csv-out files must be byte-identical across the three
# paths. Only wall-clock fields are masked: the `cell wall time` quantiles
# and the `trials/s (... s)` throughput. Sockets and CSV files use relative
# names inside a scratch directory, so paths print the same on every host.
# The Monte Carlo transcripts print the auto batch width
# (sweep::kDefaultBatchWidth, 8).
#
# Usage: tests/cli/run_transcripts.sh <ecsim_flow> <repo-root> [--update [NAME...]]
#   --update rewrites the goldens (all of them, or only the NAMEs given,
#   e.g. `sweep_arch`) instead of comparing against them.
set -euo pipefail

FLOW="$(cd "$(dirname "${1:?usage: run_transcripts.sh <ecsim_flow> <repo-root> [--update [NAME...]]}")" && pwd)/$(basename "$1")"
ROOT="$(cd "${2:?usage: run_transcripts.sh <ecsim_flow> <repo-root>}" && pwd)"
shift 2
update=0
only=()
if [[ "${1:-}" == "--update" ]]; then
  update=1
  shift
  only=("$@")
fi
GOLDEN="${ROOT}/tests/cli/golden"
SPEC="${ROOT}/examples/specs/servo_two_ecu.spec"

TMP="$(mktemp -d)"
serve_pid=""
cleanup() {
  if [[ -n "${serve_pid}" ]]; then
    kill -9 "${serve_pid}" 2>/dev/null || true
    wait "${serve_pid}" 2>/dev/null || true
  fi
  rm -rf "${TMP}"
}
trap cleanup EXIT
cd "${TMP}"

# name|arguments (the CSV-writing verbs get --csv-out appended per path).
VERBS=(
  "sweep_timing|sweep timing --threads=2"
  "sweep_arch|sweep arch --threads=2"
  "sweep_network|sweep network --threads=2"
  "fault_sweep|fault sweep --threads=2"
  "fault_montecarlo|fault montecarlo --threads=2 --trials=8"
  "montecarlo|montecarlo ${SPEC} --threads=2 --trials=50"
)
csv_verb() { [[ "$1" == sweep_* || "$1" == fault_sweep ]]; }
wanted() {
  [[ ${#only[@]} -eq 0 ]] && return 0
  local n
  for n in "${only[@]}"; do [[ "$n" == "$1" ]] && return 0; done
  return 1
}

mask() {
  sed -E -e 's/p50=[^ ]*ms p99=[^ ]*ms/p50=<ms> p99=<ms>/' \
         -e 's/[^ ]* trials\/s \([^)]*\)/<n> trials\/s (<s>)/'
}

fail=0
run_path() {
  local path="$1" extra="$2" entry name args golden rc
  for entry in "${VERBS[@]}"; do
    name="${entry%%|*}"
    wanted "${name}" || continue
    args="${entry#*|}${extra:+ ${extra}}"
    csv_verb "${name}" && args+=" --csv-out=${name}.${path}.csv"
    rc=0
    # shellcheck disable=SC2086  # word-split the argument list on purpose
    "${FLOW}" ${args} >out.txt 2>err.txt || rc=$?
    {
      echo "\$ ecsim_flow ${args//${ROOT}/<repo>}"
      echo "rc=${rc}"
      echo "--- stdout"
      mask <out.txt
      echo "--- stderr"
      mask <err.txt
    } >"${name}.${path}.txt"
    golden="${GOLDEN}/${name}.${path}.txt"
    if [[ ${update} -eq 1 ]]; then
      mkdir -p "${GOLDEN}"
      cp "${name}.${path}.txt" "${golden}"
    elif ! diff -u "${golden}" "${name}.${path}.txt"; then
      echo "FAIL: transcript ${name}.${path} differs from ${golden}"
      fail=1
    fi
  done
}

run_path local ""
run_path fallback "--connect=missing.sock"

"${FLOW}" serve --socket=d.sock --workers=2 2>serve.log &
serve_pid=$!
for _ in $(seq 1 100); do
  [[ -S d.sock ]] && break
  sleep 0.1
done
[[ -S d.sock ]] || { echo "FAIL: daemon socket never appeared"; cat serve.log; exit 1; }
run_path daemon "--connect=d.sock"
kill -TERM "${serve_pid}"
drain_rc=0
wait "${serve_pid}" || drain_rc=$?
serve_pid=""
if [[ ${drain_rc} -ne 0 ]]; then
  echo "FAIL: daemon drain exited ${drain_rc}"
  fail=1
fi

# Grid results are the same bytes whoever computed them.
for entry in "${VERBS[@]}"; do
  name="${entry%%|*}"
  csv_verb "${name}" && wanted "${name}" || continue
  for path in daemon fallback; do
    if ! cmp "${name}.local.csv" "${name}.${path}.csv"; then
      echo "FAIL: ${name} CSV of the ${path} path differs from in-process"
      fail=1
    fi
  done
done

if [[ ${fail} -ne 0 ]]; then
  echo "cli transcripts: FAILED"
  exit 1
fi
echo "cli transcripts: OK"
