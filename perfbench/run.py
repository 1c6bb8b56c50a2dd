#!/usr/bin/env python3
"""Sweep benchmark entry point: builds the driver from source, then runs it.

    python3 perfbench/run.py --workload hammer|benign|zoo --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py [--size full|tiny] --record-expected SEED...

Run from the repository root. The driver (perfbench/driver, built with
perfbench/CMakeLists.txt into .bench_build/perfbench) prints one metric per
line and, as its last line, a JSON object with the verdict and the metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hammer", "benign", "zoo")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "builder.hh")):
        fail(f"simulator sources not found under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench-sweeps")


def commit_label():
    """The git commit, or a digest of the simulator sources outside git."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        toplevel, rev = top.stdout.split()
        if os.path.realpath(toplevel) == os.path.realpath(ROOT):
            return rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def driver_cmd(binary, *args):
    return [binary, "--expected-dir", os.path.join(HERE, "expected"),
            "--out-dir", os.path.join(build_dir(), "out"), *args]


def run_driver(binary, *args):
    """Runs the driver; returns (exit code, stdout lines, parsed JSON)."""
    proc = subprocess.run(driver_cmd(binary, *args), capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result, proc.stderr


def self_test(binary):
    """Runs every workload at the tiny size and checks the output contract."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result, err = run_driver(
                binary, "--workload", workload, "--size", "tiny",
                "--seconds", "0", "--trace", str(trace))
            tag = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, no result\n{err}")
                continue
            missing = [n for n in names[trace] if n not in result["metrics"]]
            if missing:
                problems.append(f"{tag}: metrics missing: {missing}")
            if "metric failed_trial_ratio 0 ratio" not in lines:
                problems.append(f"{tag}: failed_trial_ratio is not 0")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: not correct: {lines[-1]}")
        # A deliberately altered expected digest must count as a failure.
        code, lines, result, _ = run_driver(
            binary, "--workload", workload, "--size", "tiny", "--seconds",
            "0", "--trace", "0", "--alter-expected")
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: altered expected result not caught")
        print(f"self-test {workload}: "
              f"{'ok' if not problems else 'FAILED'}", flush=True)
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def record_expected(binary, size, seeds):
    """Rewrites perfbench/expected/<workload>[-tiny].txt for SEEDS."""
    for workload in WORKLOADS:
        suffix = "-tiny" if size == "tiny" else ""
        path = os.path.join(HERE, "expected", f"{workload}{suffix}.txt")
        lines = [f"# {workload} ({size} size): master seed, then FNV-1a 64 "
                 "of each trial's journal record, in plan order"]
        for seed in seeds:
            code, out, _, err = run_driver(
                binary, "--workload", workload, "--size", size, "--seed",
                str(seed), "--record-expected")
            if code != 0:
                fail(f"recording {workload} seed {seed} failed:\n{err}")
            lines.append(out[-1])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        print(f"wrote {path}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0x5eed)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one after another")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-expected", nargs="+", type=int,
                        metavar="SEED")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.record_expected:
        return record_expected(binary, args.size, args.record_expected)
    if args.workload is None and not args.all:
        parser.error("--workload or --all is required")

    def cmd(workload):
        return driver_cmd(binary, "--workload", workload, "--seed",
                          str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--size", args.size,
                          "--commit", commit_label())

    if args.all:
        codes = [subprocess.run(cmd(w)).returncode for w in WORKLOADS]
        return max(codes)
    # The driver replaces this process: nothing is left to wait for.
    sys.stdout.flush()
    os.execv(binary, cmd(args.workload))


if __name__ == "__main__":
    sys.exit(main())
