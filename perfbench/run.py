#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the memo libraries and the perfbench binary from this checkout
(into .bench_build/perfbench), runs one seeded workload and prints its
result as the last line of stdout:

    python3 perfbench/run.py --workload train_longctx --seed 1 --seconds 12 --trace 0

--trace 0 prints every end-to-end metric of BENCHMARK.json, --trace 1 every
per-layer metric. The exit status is nonzero when the build fails, when an
output check fails, or when the sources are missing. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = ".bench_run"
WORKLOADS = ("train_longctx", "train_spill")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the build up to date (a no-op when it is)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no memo sources under %s/src; run from a full checkout" % ROOT)
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def source_revision():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes: the benchmark's own smoke test")
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--smoke", "1" if args.smoke else "0",
               "--commit", source_revision()]
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, WORK_DIR))
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        fail("perfbench exited with status %d" % proc.returncode)
    result = json.loads(lines[-1])

    # Report exactly the declared metrics, in declared order. A layer the
    # workload does not exercise reads 0 and is named on stderr.
    measured = result["metrics"]
    metrics = {}
    absent = []
    for spec in declared_metrics(args.trace):
        name = spec["name"]
        if name in measured:
            metrics[name] = measured.pop(name)
        else:
            metrics[name] = {"value": 0.0, "unit": spec["unit"]}
            absent.append(name)
    if measured:
        fail("undeclared metrics: " + ", ".join(sorted(measured)))
    if absent:
        print("perfbench: not exercised by %s (reported as 0): %s"
              % (args.workload, " ".join(absent)), file=sys.stderr)
    result["metrics"] = metrics
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
