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

plus each side's failed/attempted ops summed over its runs.

    scripts/perf_ab.py --against HEAD~1 --workloads stat_skew \
        --claim peak_rss_mb@stat_skew

--claim METRIC@WORKLOAD also says whether the runs show a claimed gain in
one end-to-end metric on one of the --workloads. The gain is shown when the
change wins at least nine tenths of the pairs (a tie counts for neither
side) and the medians differ in the better direction by more than REF's
interquartile range. One line after that workload's table gives the
verdict ("shown" or "not shown"), the wins, the median change and REF's
interquartile range, both relative to REF's median.

Exits 0 only when every verdict is "within bound", no op failed on either
side, and a claimed gain is shown.

    scripts/perf_ab.py --selftest

checks the verdict and claim rules on canned values, without building or
running anything.
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


def wins(sign, parent, change):
    """Pairs the change reads better in; a tie counts for neither side."""
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def percent(value, base, spec="+.1f"):
    return f"{100 * value / abs(base):{spec}}%" if base else "n/a"


def claim(sign, parent, change):
    """(shown, detail) for a claimed gain; sign is +1 when higher is better."""
    p_med, p_q1, p_q3 = summary(parent)
    c_med = summary(change)[0]
    won = wins(sign, parent, change)
    shown = 10 * won >= 9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1
    detail = (f"{won}/{len(parent)} wins, median {percent(c_med - p_med, p_med)}, "
              f"parent IQR {percent(p_q3 - p_q1, p_med, '.2g')}")
    return shown, detail


def selftest():
    """Checks verdict() and claim() on canned values; returns an exit code."""
    parent = [100 + 0.1 * i for i in range(10)]
    lower = [p - 50 for p in parent]
    wide = [90, 95, 100, 105, 110] * 2
    cases = [
        ("10/10 wins outside the IQR is shown",
         claim(-1, parent, lower)[0], True),
        ("higher-is-better 10/10 wins outside the IQR is shown",
         claim(1, parent, [p + 50 for p in parent])[0], True),
        ("8/10 wins is not shown",
         claim(-1, parent, lower[:8] + [p + 1 for p in parent[8:]])[0], False),
        ("a gap inside the IQR is not shown",
         claim(-1, wide, [p - 1 for p in wide])[0], False),
        ("a tie is no win: 9 wins and 1 tie is shown",
         claim(-1, parent, lower[:9] + parent[9:])[0], True),
        ("a tie is no win: 8 wins and 2 ties is not shown",
         claim(-1, parent, lower[:8] + parent[8:])[0], False),
        ("a tie is no loss", wins(-1, parent, parent), 0),
        ("worse than bound",
         verdict(0.1, -1, parent, [p * 1.2 for p in parent]), "worse than bound"),
        ("a spread wider than the bound is unresolved",
         verdict(0.01, -1, wide, wide), "unresolved"),
        ("every change run better than every REF run resolves a wide spread",
         verdict(0.01, -1, wide, [p - 100 for p in wide]), "within bound"),
        ("within bound", verdict(0.1, 1, parent, parent), "within bound"),
    ]
    failed = [name for name, got, want in cases if got != want]
    for name in failed:
        print(f"perf_ab selftest: FAILED: {name}")
    print(f"perf_ab selftest: {len(cases) - len(failed)}/{len(cases)} passed")
    return 1 if failed else 0


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.against is None:
        parser.error("--against is required")
    claimed = None
    if args.claim is not None:
        claimed = tuple(args.claim.split("@", 1))
        if len(claimed) != 2 or claimed[0] not in metrics:
            parser.error(f"--claim: METRIC must be one of {', '.join(metrics)}")
        if claimed[1] not in args.workloads:
            parser.error(f"--claim: WORKLOAD must be one of {', '.join(args.workloads)}")

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
                text = verdict(metric["bound"], sign, parent, change)
                ok = ok and text == "within bound"
                cells = []
                for values in (parent, change):
                    med, q1, q3 = summary(values)
                    cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
                print(f"  {name:<16} {cells[0]:>30} {cells[1]:>30}  "
                      f"{wins(sign, parent, change):>2}/{args.pairs}  {text}")
                if claimed == (name, workload):
                    shown, detail = claim(sign, parent, change)
                    ok = ok and shown
                    claim_line = (f"claim {args.claim}: "
                                  f"{'shown' if shown else 'not shown'} ({detail})")
            for side in ("parent", "change"):
                failed = sum(r["failed"] for r in results[side])
                attempted = sum(r["attempted"] for r in results[side])
                ok = ok and failed == 0
                print(f"  {side} failed/attempted ops: {failed}/{attempted}")
            if claimed is not None and claimed[1] == workload:
                print(claim_line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
