#!/usr/bin/env python3
"""Wall-clock benchmark of the SwitchFS simulator.

Builds the simulator library and the benchmark program from source with CMake,
runs one workload in its own process, checks its outputs, and prints one JSON
object as the last line of stdout:

    python3 perfbench/run.py --workload pangu_mix --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer metrics; a traced run also writes its spans as Chrome
trace-event JSON to <build>/traces/<workload>-seed<seed>.json.

    python3 perfbench/run.py --selftest

runs every workload twice on one small seed and requires identical
determinism fingerprints (simulated time, event count, packets, simulated
throughput).

The build directory is $CARGO_TARGET_DIR/perfbench, by default
.bench_build/perfbench under the current directory.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("create_storm", "pangu_mix", "stat_skew")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve() / "perfbench"


def build(bdir):
    """Configures (once) and builds the program; returns its path, or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build failed: {e}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return bdir / "perfbench"


def run_bench(binary, argv):
    """Runs the program to completion; returns (exit code, stdout) or (None, "")."""
    try:
        proc = subprocess.run([str(binary)] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return None, ""
    return proc.returncode, proc.stdout


def expected_units(trace):
    """Metric name -> unit that BENCHMARK.json lists for this mode, if present."""
    try:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def selftest(binary):
    ok = True
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            code, out = run_bench(binary, ["--workload", workload, "--seed", "7",
                                            "--seconds", "0", "--trace", "0",
                                            "--ops", "3000"])
            prints = [l for l in out.splitlines() if l.startswith("fingerprint ")]
            runs.append((code, prints[0] if prints else None))
        same = runs[0][0] == 0 and runs[0][1] is not None and runs[0] == runs[1]
        print(f"{'OK  ' if same else 'FAIL'} {runs[0][1]} | {runs[1][1]}")
        ok = ok and same
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary)

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        argv += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, out = run_bench(binary, argv)
    lines = out.splitlines()
    if code is None or not lines:
        return 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"benchmark exited {code} without a result", file=sys.stderr)
        return 2
    want = expected_units(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and got != want:
        print(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(want.items()))}", file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
