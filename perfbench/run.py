#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source, runs one workload,
checks its outputs, and prints one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload zipf-shift-net --seed 7 --seconds 40 --trace 0

--trace 0 prints every end-to-end metric BENCHMARK.json lists; --trace 1
prints every per-layer metric and writes a Chrome trace-event file (open
it at https://ui.perfetto.dev) under the build directory. The last line
of standard output is the result object; progress goes to standard error.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not build or run.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures whole cycles until --seconds have passed, so it ends
# within --seconds plus the input generation, one last cycle and the
# socket engine's threaded reference episode: at most about 40 s on a
# 4-thread host. A run this much over --seconds has hung (the build
# excepted).
RUN_MARGIN_S = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def run_logged(cmd, log_path):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(log_path) as f:
            tail = f.read().splitlines()[-30:]
        fail("command failed (%d): %s\n%s" % (rc, " ".join(cmd), "\n".join(tail)))


def build(bdir):
    """Configures once, then lets the build tool decide what is stale."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        log("# configuring %s" % bdir)
        run_logged(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                   log_path)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench",
                "perfbench_selftest"], log_path)
    # The benchmark's own tests run once per build of the test binary.
    selftest = os.path.join(bdir, "perfbench_selftest")
    stamp = os.path.join(bdir, "selftest.passed")
    if not os.path.exists(stamp) or os.path.getmtime(stamp) < os.path.getmtime(selftest):
        log("# running the benchmark's self-tests")
        rc = run_group([selftest], timeout=120, capture=False)
        if rc != 0:
            fail("self-tests failed")
        with open(stamp, "w") as f:
            f.write("ok\n")


def run_group(cmd, timeout, capture):
    """Runs cmd in its own process group, so that on a timeout every
    process it started (the socket engine forks workers) is killed too;
    waits for all of them. Returns the exit code, or (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (cmd[0], timeout))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except ProcessLookupError:
            pass
    return (proc.returncode, out) if capture else proc.returncode


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    build(bdir)
    started = time.monotonic()

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_path = os.path.join(bdir, "traces", "%s-seed%d.trace.json"
                                  % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    rc, out = run_group(cmd, timeout=args.seconds + RUN_MARGIN_S, capture=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if rc not in (0, 1) or not lines:
        fail("perfbench exited with %d and no result" % rc)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")

    metrics = {}
    for m in declared_metrics(args.trace):
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("perfbench did not report %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        if not math.isfinite(got["value"]):
            fail("%s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    log("# %s seed %d: %d episode(s), %.1f s measured, %.1f s total, host %s, "
        "plan digest %s, state checksum %s"
        % (result["workload"], args.seed, result["episodes"], result["measured_s"],
           time.monotonic() - started, json.dumps(result["host"]),
           result["plan_digest"], result["state_checksum"]))
    if trace_path:
        log("# trace written to %s" % trace_path)
    correct = bool(result["correct"]) and rc == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
