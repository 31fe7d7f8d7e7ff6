#!/usr/bin/env bash
# Byte-identical refactor gate: runs every example and every figure bench
# (each bench_* except the google-benchmark microbenches) at
# SFS_BENCH_SCALE=small from two build directories, then diffs each
# binary's stdout, exit status and bench JSON.
#
#   scripts/same_outputs.sh --against GIT_REF
#   scripts/same_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# --against exports GIT_REF (e.g. HEAD~1) with `git archive` into a
# temporary directory, builds it with the default CMake configuration, builds
# this checkout into build/ the same way, and compares the two; the
# temporary tree is removed on exit. The two-directory form compares builds
# made by hand, which must come from the same CMake configuration. Outputs
# are kept under $OUT (default: a fresh temporary directory) for inspection;
# JOBS (default: nproc) sets the build parallelism. Exits nonzero if any
# output differs.
set -euo pipefail

usage() {
  echo "usage: $0 --against GIT_REF | $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
}

[[ $# -eq 2 ]] || usage
cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc)}

binaries=()
for src in examples/*.cpp; do
  binaries+=("$(basename "$src" .cpp)")
done
for src in bench/bench_*.cc; do
  if ! grep -q "benchmark/benchmark.h" "$src"; then
    binaries+=("$(basename "$src" .cc)")
  fi
done

# Configures and builds just the compared binaries of source tree $1 into $2.
build_tree() {
  cmake -B "$2" -S "$1" > /dev/null
  cmake --build "$2" -j "$JOBS" --target "${binaries[@]}" > /dev/null
}

if [[ $1 == --against ]]; then
  ref_tree=$(mktemp -d)
  trap 'rm -rf "$ref_tree"' EXIT
  git archive "$2" | tar -x -C "$ref_tree"
  echo "building $2 in $ref_tree/build and this checkout in build/"
  build_tree "$ref_tree" "$ref_tree/build"
  build_tree . build
  PARENT=$ref_tree/build
  CHANGE=$(pwd)/build
else
  PARENT=$(cd "$1" && pwd)
  CHANGE=$(cd "$2" && pwd)
fi
OUT=${OUT:-$(mktemp -d)}

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
