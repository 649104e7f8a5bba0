#!/usr/bin/env python3
"""CostSense benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload sweep_cold|sweep_narrow|serve_warm \
        --seed N --seconds S --trace 0|1

Run from the repository root. The harness and the library are built in
Release mode under .bench_build/perfbench on first use. Every end-to-end
(--trace 0) or per-layer (--trace 1) metric is printed by name with its
unit; the last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each result is also stored, with host and build metadata, under
.bench_build/perfbench/results/, in a file named after the workload, the
seed, the trace flag and the measured source. See perfbench/README.md for
the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sweep_cold", "sweep_narrow", "serve_warm")
# A run must end within 180 s; leave room for the build check and output.
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build():
    """Configures (once) and builds the harness; returns the build type."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(len(os.sched_getaffinity(0))),
               "--target", "costsense_perfbench", "perfbench_stats_test"],
              timeout=850)
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def git(*args):
    """Output of a git command in ROOT, or None outside a repository."""
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """The commit when the checkout is a git repository, with a -dirty
    suffix and the src/ digest when src/ has uncommitted changes; else the
    digest alone (a benchmark checkout carries no .git)."""
    commit = git("rev-parse", "--short=12", "HEAD")
    if commit is None:
        return "src-" + src_digest()
    if git("status", "--porcelain", "--", "src"):
        return f"{commit}-dirty-{src_digest()}"
    return commit


def src_digest():
    """sha256 over the paths and bytes of every file under src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def metric_table(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not all(os.path.isfile(os.path.join(ROOT, *p)) for p in
               (("src", "CMakeLists.txt"), ("bench", "bench_util.cc"))):
        log("perfbench: no CostSense sources next to the benchmark "
            "(expected ../src and ../bench); run from a full checkout")
        return 2
    try:
        build_type = build()
    except (OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    if build_type != "Release":
        log(f"perfbench: refusing a {build_type or 'untyped'} build; numbers "
            "only compare between Release builds")
        return 3

    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_stats_test")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        log("perfbench: self-tests failed")
        return 1

    work_dir = os.path.join(BUILD_DIR, "work")
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "costsense_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log(f"perfbench: harness exited with {proc.returncode}")
        return 1
    info = json.loads(lines[-2])
    result = json.loads(lines[-1])

    # The harness reports values by name; units come from BENCHMARK.json,
    # and the names must be exactly the ones it declares.
    table = metric_table(args.trace)
    values = result["metrics"]
    if set(values) != {name for name, _ in table}:
        log("perfbench: reported metrics do not match BENCHMARK.json: "
            f"missing {sorted({n for n, _ in table} - set(values))}, "
            f"extra {sorted(set(values) - {n for n, _ in table})}")
        result["correct"] = False
    result["metrics"] = {name: {"value": values.get(name, 0.0), "unit": unit}
                         for name, unit in table}

    info.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "source": source_id(),
        "host": platform.node(),
        "machine": platform.machine(),
    })
    record = {"info": info, "result": result}
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{info['source']}.json")
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(" ".join(f"{k}={info[k]}" for k in (
        "workload", "seed", "trace", "nproc", "threads", "build_type",
        "compiler", "source")))
    for metric, unit in table:
        value = result["metrics"][metric]["value"]
        print(f"  {metric:32s} {value!r:>24} {unit}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    # A failed correctness gate still prints its result, then fails the run.
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
