#!/usr/bin/env bash
# Docs rot guard (run in CI, see .github/workflows/ci.yml):
#   1. every `ecsim_flow` subcommand mentioned in README.md / docs/ exists
#      in the CLI's usage text;
#   2. every --flag used on a documented `ecsim_flow` command line exists
#      in the usage text;
#   3. every `SimOptions::member` / `VmOptions::member` /
#      `AdequationOptions::member` referenced in the docs (plus DESIGN.md and
#      EXPERIMENTS.md) is still a member of the corresponding struct, so
#      deleted knobs cannot stay documented;
#   4. contract flags (--batch, ...) exist in BOTH the usage text and at
#      least one documented ecsim_flow command line — dropping either side
#      fails, so flag docs cannot silently rot;
#   5. the network-medium vocabulary documented in docs/networks.md (spec
#      directives, Arbitration enum values, sweep scenario names) still
#      exists in the spec parser / architecture-graph / sweep headers;
#   6. no prose names a removed feature (REMOVED_FEATURES below) as if it
#      still existed — a line may name one only to say it was deleted or
#      removed.
# Usage: scripts/check_docs.sh [path/to/ecsim_flow]
# Falls back to parsing tools/ecsim_flow.cpp when the binary isn't built.
set -euo pipefail
cd "$(dirname "$0")/.."

FLOW_BIN="${1:-build/tools/ecsim_flow}"
DOCS=(README.md docs/architecture.md docs/tutorial.md docs/benchmarks.md
      docs/networks.md)
fail=0

if [[ -x "$FLOW_BIN" ]]; then
  usage_text="$("$FLOW_BIN" 2>&1 || true)"
else
  echo "note: $FLOW_BIN not built; parsing usage() from tools/ecsim_flow.cpp"
  usage_text="$(sed -n '/usage: ecsim_flow/,/return 2;/p' tools/ecsim_flow.cpp)"
fi

# --- 1. subcommands -------------------------------------------------------
# Every word directly following an *invocation* of ecsim_flow in the docs
# (requiring a path prefix like ./build/tools/ecsim_flow filters out prose
# such as "the ecsim_flow command-line driver"). `sweep`, `fault`, `ir` and
# `ledger` take a bare sub-subcommand, so their second word is checked too.
doc_cmds=$(grep -rhoE "/ecsim_flow[[:space:]]+[a-z][a-z-]*([[:space:]]+[a-z][a-z-]*)?" "${DOCS[@]}" |
  sed 's|^/ecsim_flow[[:space:]]*||' |
  awk '{ print $1; if (($1 == "sweep" || $1 == "fault" || $1 == "ir" || $1 == "ledger") && NF > 1) print $2 }' |
  sort -u)
for cmd in $doc_cmds; do
  if ! grep -qE "(^|[^a-z-])${cmd}([^a-z-]|$)" <<<"$usage_text"; then
    echo "FAIL: documented ecsim_flow subcommand '${cmd}' not in usage text"
    fail=1
  fi
done

# --- 2. flags -------------------------------------------------------------
# Flags on ecsim_flow command lines, including backslash-continuations.
flow_lines=$(awk '
  /ecsim_flow/ { active = 1 }
  active { print; if ($0 !~ /\\$/) active = 0 }
' "${DOCS[@]}")
doc_flags=$(grep -oE -- "--[a-z][a-z-]*" <<<"$flow_lines" | sort -u || true)
for flag in $doc_flags; do
  if ! grep -qF -- "$flag" <<<"$usage_text"; then
    echo "FAIL: documented ecsim_flow flag '${flag}' not in usage text"
    fail=1
  fi
done

# --- 3. option-struct members --------------------------------------------
declare -A HEADER=(
  [SimOptions]=src/sim/driver.hpp
  [VmOptions]=src/exec/executive_vm.hpp
  [AdequationOptions]=src/aaa/adequation.hpp
)
doc_refs=$(grep -rhoE "(SimOptions|VmOptions|AdequationOptions)::[a-zA-Z_]+" \
  "${DOCS[@]}" DESIGN.md EXPERIMENTS.md | sort -u || true)
for ref in $doc_refs; do
  struct="${ref%%::*}"
  member="${ref##*::}"
  header="${HEADER[$struct]}"
  body=$(awk "/struct ${struct} \\{/,/^\\};/" "$header")
  if [[ -z "$body" ]]; then
    echo "FAIL: struct ${struct} not found in ${header}"
    fail=1
  elif ! grep -qE "(^|[^a-zA-Z_])${member}([^a-zA-Z_]|$)" <<<"$body"; then
    echo "FAIL: ${ref} referenced in docs but '${member}' is not a member in ${header}"
    fail=1
  fi
done

# --- 4. contract flags ----------------------------------------------------
# Flags that are part of the documented CLI contract: each must be present
# in the usage text AND shown on an ecsim_flow command line in the docs.
# --socket/--connect are the two halves of the sweep-service contract
# (serve side / client side) — documenting one without the other, or
# dropping either from the CLI, fails here.
CONTRACT_FLAGS=(--batch --trials --threads --socket --connect)
for flag in "${CONTRACT_FLAGS[@]}"; do
  if ! grep -qF -- "$flag" <<<"$usage_text"; then
    echo "FAIL: contract flag '${flag}' missing from ecsim_flow usage text"
    fail=1
  fi
  if ! grep -qF -- "$flag" <<<"$flow_lines"; then
    echo "FAIL: contract flag '${flag}' not shown on any documented ecsim_flow command line"
    fail=1
  fi
done

# --- 5. network-medium vocabulary -----------------------------------------
# docs/networks.md documents the spec directives and the arbitration model
# by name; if the parser or the architecture graph renames them, the
# cookbook must not keep teaching the old words. Each directive below is
# both promised by the cookbook and matched against the parser's literal
# token test (`t[0] == "can"` etc. in src/io/spec.cpp).
NETWORK_DIRECTIVES=(can tdma load prio)
for word in "${NETWORK_DIRECTIVES[@]}"; do
  if ! grep -qE "^\| ?\`${word} |\`${word}\`|${word} [A-Z]" docs/networks.md; then
    echo "FAIL: network directive '${word}' no longer documented in docs/networks.md"
    fail=1
  fi
  if ! grep -qE "== \"${word}\"|\"${word}\"" src/io/spec.cpp; then
    echo "FAIL: documented spec directive '${word}' not handled by src/io/spec.cpp"
    fail=1
  fi
done
for enum_name in kImmediate kTdma kCanPriority; do
  if ! grep -qE "(^|[^a-zA-Z_])${enum_name}([^a-zA-Z_]|$)" src/aaa/architecture_graph.hpp; then
    echo "FAIL: Arbitration::${enum_name} missing from src/aaa/architecture_graph.hpp"
    fail=1
  fi
done
for scenario in can tdma; do
  if ! grep -qE "\"${scenario}\"|k$(tr '[:lower:]' '[:upper:]' <<<"${scenario:0:1}")${scenario:1}" src/par/network_sweep.hpp; then
    echo "FAIL: sweep scenario '${scenario}' missing from src/par/network_sweep.hpp"
    fail=1
  fi
done

# --- 6. removed features ---------------------------------------------------
# Features deleted from the code base. Prose that still names one describes
# code that is gone; a line that says the feature was deleted/removed is
# history and passes.
REMOVED_FEATURES=("pooled adequation" "legacy cost model" "binary-heap mode"
                  "line-by-line port" "BatchedSim" "ECSIM_SIMD"
                  "pop_simultaneous" "event_uniformity"
                  "lockstep Monte Carlo" "CanIndex" "advance_can"
                  "arbitrates live" "LaneQueue" "4-ary"
                  "BM_EventQueuePushPop" "ExecTimeFn" "BranchFn"
                  "uniform_fraction_exec_time" "uniform_branch_chooser"
                  "worst_case_branch_chooser" "DurationSampler"
                  "custom_duration" "kCustom" "FaultDecider" "FaultAction"
                  "fault_accounting" "run_ir" "vm_to_timeline"
                  "vm_to_trace_json" "schedule_to_trace_json" "ir::to_json"
                  "GodMode" "kTimetable" "TimetableClock" "build_timetable"
                  "timetable mode" "random_branches" "random_branch"
                  "kBranches" "branch_duration" "kTruncatedNormal"
                  "truncated_normal" "fill_lanes_u64" "gate_mix"
                  "reserve_events" "reserve_signals" "Context::rng"
                  "\`uniform_duration" "Rng::split" "Rng::jump"
                  "Rng::categorical" "TaskContext::rng" "ziegler_nichols"
                  "imc_pid" "pid_to_ss" "tf2ss" "observer_compensator"
                  "series_csv" "latency_csv")
for feature in "${REMOVED_FEATURES[@]}"; do
  stale=$(grep -inF -- "$feature" "${DOCS[@]}" DESIGN.md EXPERIMENTS.md |
    grep -viE "deleted|removed" || true)
  if [[ -n "$stale" ]]; then
    echo "FAIL: prose names the removed feature '${feature}':"
    echo "$stale"
    fail=1
  fi
done

if [[ $fail -ne 0 ]]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK (subcommands, flags, contract flags, option members and network vocabulary all exist; no removed feature named)"
