#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Builds perfbench/e2e.exe and bin/cqserved.exe with dune (build dir
.bench_build), then runs one workload. The last line of standard output is
the JSON result; the line before it stamps nproc, the OCaml version, the
source digest and a calibration-loop time. See perfbench/README.md.

BENCHMARK.json is the one list of metric names and units: e2e.exe prints
the metrics a workload produces, and this script checks them against the
list and reports a per-layer metric the workload does not run as 0.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/e2e.exe", "./bin/cqserved.exe"]
WORKLOADS = ["train", "train_sharded", "serve_cold", "serve_hot"]


def source_digest():
    """sha1 over the sources the benchmark builds (the checkout need not be a
    git repository), prefixed by the git commit when there is one."""
    h = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True,
        text=True,
    )
    prefix = commit.stdout.strip() + ":" if commit.returncode == 0 else ""
    return prefix + h.hexdigest()[:12]


def complete(result, trace):
    """The result with its metrics in BENCHMARK.json's order and units, or
    None when e2e.exe printed a metric that is not listed or a wrong unit."""
    with open("BENCHMARK.json") as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            print("run.py: metric %s (%s) is not listed in BENCHMARK.json" % (name, m["unit"]),
                  file=sys.stderr)
            return None
    if not trace and len(got) != len(listed):
        print("run.py: end-to-end metrics missing", file=sys.stderr)
        return None
    result["metrics"] = {
        m["name"]: got.get(m["name"], {"value": 0.0, "unit": m["unit"]}) for m in listed
    }
    return result


# Each child runs in its own process group (the benchmark's holds the
# daemon and the shard workers it forks), so a timeout or a signal stops
# all of them.
running = []


def stop(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    # A killed benchmark cannot remove its own per-run directory.
    shutil.rmtree(os.path.join(".bench_run", str(proc.pid)), ignore_errors=True)


def on_signal(code):
    def handler(*_):
        for proc in running:
            stop(proc)
        sys.exit(code)

    return handler


def build(limit, attempts):
    """dune build of the targets. dune has been seen to hang idle on a build
    that has nothing to do, so each attempt has a time limit."""
    for _ in range(attempts):
        proc = subprocess.Popen(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR] + TARGETS,
            stdout=sys.stderr,
            stderr=sys.stderr,
            start_new_session=True,
        )
        running[:] = [proc]
        try:
            return proc.wait(timeout=limit) == 0
        except subprocess.TimeoutExpired:
            stop(proc)
            print("run.py: dune build hung; retrying", file=sys.stderr)
    return False


def main():
    start = time.monotonic()
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("run.py: not the root of a checkout (no dune-project/lib)", file=sys.stderr)
        return 3
    signal.signal(signal.SIGTERM, on_signal(143))
    signal.signal(signal.SIGINT, on_signal(130))
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "e2e.exe")
    cqserved = os.path.join(BUILD_DIR, "default", "bin", "cqserved.exe")
    # A run over an earlier build has 180 s in all, and its build little or
    # nothing to do; the first run may take 900 s.
    if os.path.isfile(exe) and os.path.isfile(cqserved):
        built = build(limit=40, attempts=2)
        deadline = start + 175
    else:
        built = build(limit=700, attempts=1)
        deadline = start + 880
    if not built:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    cmd = [
        exe,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--nproc", str(nproc),
        "--cqserved", cqserved,
        "--source", source_digest(),
    ]
    proc = subprocess.Popen(cmd, start_new_session=True, stdout=subprocess.PIPE, text=True)
    running[:] = [proc]
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        print("run.py: benchmark timed out", file=sys.stderr)
        return 124
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 1
    result = complete(json.loads(lines[-1]), a.trace == 1)
    if result is None:
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
