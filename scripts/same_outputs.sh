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
# temporary tree is removed on exit. It also runs `perfbench/run.py
# --selftest` in both trees (the ref's program builds inside the temporary
# tree, this checkout's under $CARGO_TARGET_DIR as usual) and compares their
# determinism fingerprint lines as one more output, fingerprints.txt. The
# two-directory form compares builds made by hand, which must come from the
# same CMake configuration and get no fingerprint check. Outputs
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

OUT=${OUT:-$(mktemp -d)}
outputs=()
for name in "${binaries[@]}"; do
  outputs+=("$name.out" "$name.json")
done

# Writes the perfbench selftest's fingerprint lines for source tree $1 and
# its exit status to $3 (full log: $3.log). The program builds under
# CARGO_TARGET_DIR $2, or under run.py's default if $2 is empty.
fingerprints() {
  local status=0
  (cd "$1" && CARGO_TARGET_DIR=$2 python3 perfbench/run.py --selftest) \
    > "$3.log" 2>&1 || status=$?
  { grep fingerprint "$3.log" || true; echo "exit $status"; } > "$3"
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
  if [[ -e $ref_tree/perfbench/run.py ]]; then
    echo "running the perfbench selftest in both trees"
    mkdir -p "$OUT/parent" "$OUT/change"
    fingerprints "$ref_tree" "$ref_tree/target" "$OUT/parent/fingerprints.txt"
    fingerprints . "${CARGO_TARGET_DIR:-}" "$OUT/change/fingerprints.txt"
    outputs+=(fingerprints.txt)
  fi
else
  PARENT=$(cd "$1" && pwd)
  CHANGE=$(cd "$2" && pwd)
fi

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
for file in "${outputs[@]}"; do
  a="$OUT/parent/$file"
  b="$OUT/change/$file"
  if [[ ! -e "$a" && ! -e "$b" ]]; then
    continue
  fi
  if ! cmp -s "$a" "$b"; then
    echo "DIFF $file"
    diff "$a" "$b" | head -n 20 || true
    differ=$((differ + 1))
  fi
done
echo "${#binaries[@]} binaries compared; $differ output(s) differ (outputs in $OUT)"
[[ $differ -eq 0 ]]
