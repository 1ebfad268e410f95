#!/usr/bin/env python3
"""Run one EXP-E1 workload from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

On first use it configures and builds perfbench/ (which compiles the src/
tree) into the build directory: $CARGO_TARGET_DIR if set, else .bench_build.
Every run then checks that the binary's metric catalogue matches
BENCHMARK.json, runs bench_e1_flow, and passes its output through: the last
line of standard output is the run's JSON summary. The full report is kept
as <build>/results/<workload>-seed<N>-trace<T>.json (perfbench/compare_runs.py
reads those), and traced runs also write Perfetto JSON there.

Everything the run writes stays under the build directory: compiler
temporaries, the native-module cache and the daemon socket included.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 175
# Variables that would change what the program under test does or where it
# writes; the benchmark sets the ones it needs itself.
SCRUBBED_ENV = ("ECSIM_LEDGER", "ECSIM_NATIVE_CACHE", "ECSIM_NATIVE_CXX",
                "ECSIM_NATIVE_DISABLE", "ECSIM_THREADS")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir, env):
    cmake_dir = os.path.join(build_dir, "cmake")
    binary = os.path.join(cmake_dir, "bench_e1_flow")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", cmake_dir, "--target",
                      "bench_e1_flow", "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
                fail("build failed: " + " ".join(cmd), 1)
    return binary


def check_catalogue(root, binary, env):
    """BENCHMARK.json and the binary's --list must name the same workloads
    and metrics with the same units, directions and bounds."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = json.loads(subprocess.check_output([binary, "--list"], env=env))
    problems = []
    if [w["name"] for w in spec["workloads"]] != \
            [w["name"] for w in listed["workloads"]]:
        problems.append("workload names differ")
    for key, fields in (("end_to_end", ("name", "unit", "better", "bound")),
                        ("per_layer", ("name", "unit", "better"))):
        want = [tuple(m[k] for k in fields) for m in spec[key]]
        have = [tuple(m[k] for k in fields) for m in listed[key]]
        if want != have:
            problems.append(key + " metrics differ")
    if problems:
        fail("BENCHMARK.json and bench_e1_flow --list disagree: " +
             "; ".join(problems))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the repository root")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    results = os.path.join(build_dir, "results")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["TMPDIR"] = tmp

    binary = build(root, build_dir, env)
    check_catalogue(root, binary, env)

    # Relative to the root (the binary's working directory): the daemon's
    # unix socket lives here and socket paths are limited to ~100 bytes.
    scratch = os.path.relpath(
        os.path.join(build_dir, "run-%d" % os.getpid()), root)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch,
           "--json-out", os.path.join(results, stem + ".json")]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(results, "perfetto-seed%d-" % args.seed)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        rc = 1
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        stop_group(proc.pid)
        shutil.rmtree(os.path.join(root, scratch), ignore_errors=True)
    sys.exit(rc)


def stop_group(pgid):
    """Kill whatever is left of the run's process group (daemons, workers,
    sample processes) and wait until all of it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    fail("processes of the run did not exit", 1)


if __name__ == "__main__":
    main()
