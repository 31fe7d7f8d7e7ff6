#!/usr/bin/env python3
"""A/B wall-clock comparison of this checkout against a git ref.

    scripts/perf_ab.py --against HEAD~1
    scripts/perf_ab.py --against HEAD --pairs 4 --seconds 5 --workloads pangu_mix

Exports REF with `git archive` into a temporary directory (removed on exit),
builds the perfbench program of both trees through perfbench/run.py, each
under its own CARGO_TARGET_DIR (REF: <tmp>/target; this checkout:
$CARGO_TARGET_DIR, default .bench_build), then runs the benchmark command of
BENCHMARK.json in pairs, one run of each side per pair, alternating which
side runs first. A run lasts --seconds (default: BENCHMARK.json's
run_seconds).

For each workload and each end-to-end metric of BENCHMARK.json it prints
both sides' median and quartiles, the change's wins out of the pairs (a tie
counts for neither side; "better" gives the direction) and a verdict:

    worse than bound  the change's median is worse than REF's by more than
                      the metric's bound
    unresolved        REF's interquartile range is wider than the bound, so
                      these runs cannot tell, unless every change run reads
                      better than every REF run
    within bound      otherwise

plus each side's failed/attempted ops summed over its runs. Exits 0 only
when every verdict is "within bound" and no op failed on either side.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_runner(tree):
    """Imports <tree>/perfbench/run.py as a module."""
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(tree, target):
    """Builds <tree>'s perfbench program under CARGO_TARGET_DIR=target."""
    os.environ["CARGO_TARGET_DIR"] = str(target)
    runner = load_runner(tree)
    if runner.build(runner.build_dir()) is None:
        sys.exit(f"perf_ab: perfbench build failed in {tree}")


def run_once(tree, target, command, workload, seed, seconds):
    """One benchmark run; returns its result object (the last stdout line)."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    proc = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"perf_ab: {workload} in {tree} exited {proc.returncode} "
                 "without a result")


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def verdict(bound, sign, parent, change):
    """The verdict for one metric's runs; sign is +1 when higher is better."""
    p_med, p_q1, p_q3 = summary(parent)
    c_med = summary(change)[0]
    if p_med == 0:
        return "unresolved"
    if sign * (p_med - c_med) / abs(p_med) > bound:
        return "worse than bound"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return "unresolved"
    return "within bound"


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REF")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    change_target = Path(os.environ.get("CARGO_TARGET_DIR") or
                         REPO / ".bench_build").resolve()
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        ref_tree = Path(tmp) / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.against],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive, check=True)
        sides = {"parent": (ref_tree, Path(tmp) / "target"),
                 "change": (REPO, change_target)}
        for tree, target in sides.values():
            build(tree, target)

        for workload in args.workloads:
            results = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    tree, target = sides[side]
                    results[side].append(run_once(tree, target, spec["command"],
                                                  workload, args.seed, args.seconds))
            print(f"{workload}: {args.pairs} pairs, seed {args.seed}, "
                  f"{args.seconds:g} s per run")
            print(f"  {'metric':<16} {'parent median [q1, q3]':>30} "
                  f"{'change median [q1, q3]':>30}  wins  verdict")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                parent = [r["metrics"][name]["value"] for r in results["parent"]]
                change = [r["metrics"][name]["value"] for r in results["change"]]
                sign = 1 if metric["better"] == "higher" else -1
                wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
                text = verdict(metric["bound"], sign, parent, change)
                ok = ok and text == "within bound"
                cells = []
                for values in (parent, change):
                    med, q1, q3 = summary(values)
                    cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
                print(f"  {name:<16} {cells[0]:>30} {cells[1]:>30}  "
                      f"{wins:>2}/{args.pairs}  {text}")
            for side in ("parent", "change"):
                failed = sum(r["failed"] for r in results[side])
                attempted = sum(r["attempted"] for r in results[side])
                ok = ok and failed == 0
                print(f"  {side} failed/attempted ops: {failed}/{attempted}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
