#!/usr/bin/env bash
# Byte-identical refactor gate: runs every example and every figure bench
# (each bench_* except the google-benchmark microbenches) at
# SFS_BENCH_SCALE=small from two build directories, then diffs each
# binary's stdout, exit status and bench JSON.
#
#   scripts/same_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# Both builds must come from the same CMake configuration (e.g. a parent
# checkout built with `cmake -B build -S .`). Outputs are kept under $OUT
# (default: a fresh temporary directory) for inspection. Exits nonzero if
# any output differs.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
OUT=${OUT:-$(mktemp -d)}

binaries=()
for src in examples/*.cpp; do
  binaries+=("$(basename "$src" .cpp)")
done
for src in bench/bench_*.cc; do
  if ! grep -q "benchmark/benchmark.h" "$src"; then
    binaries+=("$(basename "$src" .cc)")
  fi
done

# Runs every binary of one build into $OUT/<side>/.
run_side() {
  local build=$1 dir=$2
  mkdir -p "$dir"
  for name in "${binaries[@]}"; do
    local status=0
    # Relative JSON path: benches echo it, and it must match across sides.
    (cd "$dir" && SFS_BENCH_SCALE=small SFS_BENCH_JSON="$name.json" \
       "$build/$name" > "$name.out" 2> "$name.err") || status=$?
    echo "exit $status" >> "$dir/$name.out"
  done
}

run_side "$PARENT" "$OUT/parent" &
parent_pid=$!
run_side "$CHANGE" "$OUT/change"
wait "$parent_pid"

differ=0
for name in "${binaries[@]}"; do
  for ext in out json; do
    a="$OUT/parent/$name.$ext"
    b="$OUT/change/$name.$ext"
    if [[ ! -e "$a" && ! -e "$b" ]]; then
      continue
    fi
    if ! cmp -s "$a" "$b"; then
      echo "DIFF $name.$ext"
      diff "$a" "$b" | head -n 20 || true
      differ=$((differ + 1))
    fi
  done
done
echo "${#binaries[@]} binaries compared; $differ output(s) differ (outputs in $OUT)"
[[ $differ -eq 0 ]]
