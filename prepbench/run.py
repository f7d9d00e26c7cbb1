#!/usr/bin/env python3
"""Data-prep benchmark: layout file to scored shots, one workload per run.

Run from the root of a checkout:

    python3 prepbench/run.py --workload gate_scored --seed 1 --seconds 10 --trace 0

Builds the library, the pec_worker tool and the benchmark driver from source
(CMake, Release) under $CARGO_TARGET_DIR (default .bench_build), then runs
the driver for one workload in its own process. The driver prints a metric
table and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is nonzero when the build
fails, a check fails or the driver does not finish; see prepbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gate_scored", "pads_sharded", "pads_distributed", "hier_fracture")
# One run, set-ups and checks included, must end well inside 180 s.
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "prepbench")


def clean_env():
    """The caller's environment without EBL_* knobs (fault plans, thread
    counts, worker paths), and with temporary files kept in the build dir."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("EBL_")}
    env["TMPDIR"] = tmp
    return env


def with_units(result, trace):
    """The driver's result line, keeping the metrics BENCHMARK.json names for
    this mode, each with its unit from there. The driver prints every value
    it collects; a per-layer metric of a layer the workload bypasses is
    absent and reads 0, a missing end-to-end metric raises KeyError."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise KeyError("result keys")
    got = result["metrics"]
    result["metrics"] = {
        m["name"]: {"value": got.get(m["name"], 0) if trace else got[m["name"]],
                    "unit": m["unit"]}
        for m in spec}
    return result


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "prepbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "bin", "prepbench_driver")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--threads", type=int, default=0,
                   help="driver threads (default: min(2, cores per process))")
    p.add_argument("--out-dir", help="generated layout and trace files "
                   "(default: <build dir>/out/<workload>)")
    p.add_argument("--tiny", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    a = p.parse_args()

    driver = build()
    if driver is None:
        print("prepbench: build failed", file=sys.stderr)
        return 1
    out_dir = a.out_dir or os.path.join(build_dir(), "out", a.workload)
    cmd = [driver, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", out_dir, "--threads", str(a.threads)]
    if a.tiny:
        cmd.append("--tiny")

    # Own process group, so a timeout also stops the driver's workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"prepbench: driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = with_units(json.loads(lines[-1]), a.trace)
    except (ValueError, IndexError, KeyError) as e:
        sys.stdout.write(stdout)
        print(f"prepbench: no valid result line from the driver ({e!r})", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
