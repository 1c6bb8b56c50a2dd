#!/usr/bin/env python3
"""Paired perf gate: perfbench on BASE_REV against the working tree.

Usage (from anywhere inside the repository):
    python3 tools/perf_compare.py BASE_REV

BASE_REV is exported with `git archive` into a temporary directory, so no
worktree or other repository state is left behind. Both trees then run
their own, unmodified `perfbench/run.py --workload W --seed 24301
--seconds 0 --trace 0` (each builds its own perfbench binary into its
own `.bench_build/`), PAIRS times per workload listed in BENCHMARK.json,
alternating which side runs first. The working tree's BENCHMARK.json
names the end-to-end metrics, their directions and their bounds.

A metric fails when its median over the pairs is worse on the working
tree than on BASE_REV by more than its bound. What that catches, on a
shared 4-vCPU host: a zeroed 2 KiB allocation per simulated access cut
`sim_accesses_per_s` by about 30-40% on hammer and zoo, which failed
every run, and by 5-31% on benign, whose 25% bound flagged half of the
runs. One 8-byte heap allocation per access (-12% to -14%) passes.
Noise alone can also fail it: one of three runs of a tree against
itself flagged hammer's `setup_s` (about 25 ms, one sample per run) at
+29.5%.

Prints a table of medians per workload and metric, with the min..max of
the per-pair changes (each pair's head/base ratio, minus one) beside the
median change, then a one-line JSON summary that also holds every run's
value and that range as head/base ratios (`pair_ratio_range`). A change
whose pairs all lie on one side of zero is unlikely to be noise; one
whose pairs straddle zero by 20-30% either way may be.

Exit codes: 0 no regression; 1 some median is worse than its bound; 2
the comparison never happened (BASE_REV cannot be exported, a run fails,
prints a malformed last line, or reports a wrong result).
"""
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Five pairs: a median that one slow run cannot move, in about 5 minutes
# on 4 vCPUs (both builds included).
PAIRS = 5
# The seed whose per-trial digests perfbench/expected/ commits, so every
# run also checks its results.
SEED = 24301
# One untraced pass per run keeps a pair to seconds; pairs give the median.
SECONDS = 0

EXIT_REGRESSION = 1
EXIT_BAD_RUN = 2


def die(message):
    print(f"perf_compare: {message}", file=sys.stderr)
    sys.exit(EXIT_BAD_RUN)


def export(rev, dest):
    """Writes the tree of commit @rev into @dest; returns its full hash."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
            capture_output=True, check=True).stdout.decode().strip()
        tar = subprocess.run(["git", "-C", ROOT, "archive", sha],
                             capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=tar,
                       capture_output=True, check=True)
    except subprocess.CalledProcessError as e:
        die(f"cannot export {rev!r}: {e.stderr.decode(errors='replace')}")
    return sha


def run_once(tree, workload, names, env):
    """One perfbench run in @tree; returns metric name -> value."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    last = proc.stdout.splitlines()[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
        values = {n: float(result["metrics"][n]["value"]) for n in names}
        ok = result["correct"] is True and result["failed"] == 0
    except (ValueError, KeyError, TypeError):
        ok = False
    # perfbench never reports a zero metric; a zero would void the ratio.
    if proc.returncode != 0 or not ok or min(values.values()) <= 0:
        die(f"{workload} in {tree}: exit {proc.returncode}, last line "
            f"{last!r}\n{proc.stderr[-2000:]}")
    return values


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return EXIT_BAD_RUN
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    # An absolute CARGO_TARGET_DIR would give both trees one build dir.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}

    with tempfile.TemporaryDirectory(prefix="perf_compare.") as tmp:
        base_sha = export(sys.argv[1], tmp)
        trees = {"base": tmp, "head": ROOT}
        runs = {(w, side): [] for w in workloads for side in trees}
        # Pair-major order spreads each workload's pairs over the whole
        # comparison, so one burst of host noise reaches few of them.
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for w in workloads:
                for side in order:
                    print(f"perf_compare: pair {pair + 1}/{PAIRS} {w} {side}",
                          file=sys.stderr, flush=True)
                    runs[w, side].append(
                        run_once(trees[side], w, names, env))

    regressions = []
    summary = {}
    print(f"{'workload':<8} {'metric':<20} {'base':>12} {'head':>12} "
          f"{'change':>8} {'pairs min..max':>16} {'bound':>6}")
    for w in workloads:
        for m in metrics:
            name = m["name"]
            values = {side: [r[name] for r in runs[w, side]]
                      for side in ("base", "head")}
            base = statistics.median(values["base"])
            head = statistics.median(values["head"])
            # Runs i of both sides form pair i.
            ratios = [h / b for b, h in zip(values["base"], values["head"])]
            summary.setdefault(w, {})[name] = {
                "base": base, "head": head,
                "pair_ratio_range": [min(ratios), max(ratios)],
                "runs": values}
            change = (head - base) / base
            pairs = f"{min(ratios) - 1:+.1%}..{max(ratios) - 1:+.1%}"
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if worse > m["bound"]:
                regressions.append(f"{w}/{name}")
                flag = "  << REGRESSION"
            print(f"{w:<8} {name:<20} {base:>12.4g} {head:>12.4g} "
                  f"{change:>+7.1%} {pairs:>16} {m['bound']:>6.0%}{flag}")
    print(json.dumps({"base": base_sha, "pairs": PAIRS, "seed": SEED,
                      "regressions": regressions, "metrics": summary}))
    return EXIT_REGRESSION if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
