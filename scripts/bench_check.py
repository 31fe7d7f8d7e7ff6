#!/usr/bin/env python3
"""Regression gate for the committed perf-smoke benches.

Each bench emits a JSON document with a top-level "bench" name; this script
compares one or more fresh runs against their committed baselines
(bench/baselines/<name>.json) and fails on a >20% regression in any gated
metric. The benches run in the deterministic simulator (all latency and
throughput figures are simulated time), so the comparison is stable across
machines — a baseline only needs regenerating when the simulated protocol or
cost model intentionally changes:

    SFS_BENCH_SCALE=small SFS_BENCH_JSON=bench/baselines/push_batching.json \
        ./build/bench_push_batching
    SFS_BENCH_SCALE=small SFS_BENCH_JSON=bench/baselines/readdir_paging.json \
        ./build/bench_readdir_paging

Usage: scripts/bench_check.py <current.json> [<current2.json> ...]
       scripts/bench_check.py <current.json> --baseline <baseline.json>
"""
import json
import pathlib
import sys

TOLERANCE = 0.20

# bench name -> [(json path, higher_is_better, description)]
GATED = {
    "push_batching": [
        (("per_owner", "apply_keps"), True, "owner-side apply throughput"),
        (("per_owner", "total_ms"), False, "end-to-end burst + drain time"),
        (("per_owner", "packets_per_op"), False, "PushReq packets per op"),
        (("packet_reduction",), True, "per-dir vs per-owner packet reduction"),
    ],
    "readdir_paging": [
        (("mono", "total_ms"), False, "monolithic readdir time"),
        (("paged", "total_ms"), False, "pipelined paged scan time"),
        (("paged", "first_ms"), False, "time to first page"),
        (("paged", "packets"), False, "pages per scan"),
        (("paged", "max_packet_entries"), False, "page fill (mtu budget)"),
        (("bulk_insert", "bulk_ms"), False, "bulk insert time"),
        (("bulk_insert", "bulk_packets"), False, "bulk insert packets"),
    ],
    "switch_cache": [
        (("cached", "kops"), True, "cached hot-read throughput"),
        (("cached", "mean_us"), False, "cached hot-read mean latency"),
        (("cached", "hit_rate"), True, "data-plane cache hit rate"),
        (("speedup",), True, "cached vs uncached throughput ratio"),
    ],
    "shard_scaling": [
        (("four_shard", "apply_keps"), True, "4-shard owner apply throughput"),
        (("four_shard", "drain_ms"), False, "4-shard burst makespan"),
        (("speedup",), True, "4-shard vs 1-shard apply speedup"),
    ],
    "wan_replication": [
        (("lag5", "conv_ms"), False, "convergence time at 5 ms WAN lag"),
        (("lag20", "conv_ms"), False, "convergence time at 20 ms WAN lag"),
        (("lag80", "conv_ms"), False, "convergence time at 80 ms WAN lag"),
        (("lag20", "applied"), True, "entries replicated cross-site"),
        (("volume_ratio",), False, "2x-volume convergence blowup"),
    ],
}

# Comparative gates evaluated on the CURRENT run alone: metric A must be
# strictly less than metric B. These encode the claims the benches exist to
# prove (paged beats monolithic on BOTH first page and total; BulkInsert
# beats the per-entry loop), independent of baseline drift.
COMPARATIVE = {
    "readdir_paging": [
        (("paged", "total_ms"), ("mono", "total_ms"),
         "pipelined paged total beats monolithic"),
        (("paged", "first_ms"), ("mono", "first_ms"),
         "paged first page beats monolithic"),
        (("bulk_insert", "bulk_ms"), ("bulk_insert", "loop_ms"),
         "bulk insert beats the per-entry create loop"),
        (("bulk_insert", "bulk_packets"), ("bulk_insert", "loop_packets"),
         "bulk insert sends fewer packets than the loop"),
    ],
    "switch_cache": [
        (("cached", "mean_us"), ("uncached", "mean_us"),
         "cached hot-read latency beats the owner path"),
        (("uncached", "kops"), ("cached", "kops"),
         "cached hot-read throughput beats the owner path"),
        (("cached", "server_ops"), ("uncached", "server_ops"),
         "the cache offloads requests from the metadata servers"),
    ],
    "shard_scaling": [
        (("speedup_floor",), ("speedup",),
         "4-shard apply throughput at least 2x 1-shard"),
        (("four_shard", "drain_ms"), ("one_shard", "drain_ms"),
         "4 shards drain the skewed burst faster than 1"),
    ],
    "wan_replication": [
        (("lag5", "conv_ms"), ("lag20", "conv_ms"),
         "convergence grows with WAN lag (5 vs 20 ms)"),
        (("lag20", "conv_ms"), ("lag80", "conv_ms"),
         "convergence grows with WAN lag (20 vs 80 ms)"),
        (("volume_ratio",), ("volume_ratio_budget",),
         "convergence tracks WAN lag, not write volume"),
        (("conflict_off", "conflicts"), ("conflict_heavy", "conflicts"),
         "cross-site same-name writes settle by LWW"),
    ],
}


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return float(doc)


def check_one(current_path: pathlib.Path, baseline_path) -> list:
    current = json.loads(current_path.read_text())
    name = current.get("bench")
    if name not in GATED:
        print(f"  [skip] {current_path}: unknown bench {name!r}")
        return []
    if baseline_path is None:
        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "bench"
            / "baselines"
            / f"{name}.json"
        )
    baseline = json.loads(pathlib.Path(baseline_path).read_text())

    failures = []
    print(f"== {name} vs {baseline_path} ==")
    for path, higher_is_better, desc in GATED[name]:
        cur = lookup(current, path)
        base = lookup(baseline, path)
        if base == 0:
            continue
        ratio = cur / base
        regressed = (
            ratio < 1 - TOLERANCE if higher_is_better else ratio > 1 + TOLERANCE
        )
        marker = "FAIL" if regressed else "ok"
        print(
            f"  [{marker}] {'.'.join(path):28s} {desc}: "
            f"baseline {base:g} -> current {cur:g} ({ratio - 1:+.1%} vs baseline)"
        )
        if regressed:
            failures.append(f"{name}: {desc}")
    for path_a, path_b, desc in COMPARATIVE.get(name, []):
        a = lookup(current, path_a)
        b = lookup(current, path_b)
        holds = a < b
        marker = "ok" if holds else "FAIL"
        print(
            f"  [{marker}] {'.'.join(path_a)} < {'.'.join(path_b)}: "
            f"{desc} ({a:g} vs {b:g})"
        )
        if not holds:
            failures.append(f"{name}: {desc}")
    return failures


def main() -> int:
    args = sys.argv[1:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    explicit_baseline = None
    if "--baseline" in args:
        i = args.index("--baseline")
        explicit_baseline = args[i + 1]
        del args[i : i + 2]

    failures = []
    for current in args:
        failures += check_one(pathlib.Path(current), explicit_baseline)

    if failures:
        print(
            f"bench regression >{TOLERANCE:.0%}: " + "; ".join(failures),
            file=sys.stderr,
        )
        return 1
    print(f"all benches within {TOLERANCE:.0%} of their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
