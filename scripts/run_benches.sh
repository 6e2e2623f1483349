#!/usr/bin/env sh
# Runs every benchmark binary and collects the BENCH_<name>.json exports in
# the build directory (the committed gate baselines live in bench/baselines/).
#
#   scripts/run_benches.sh [build-dir] [extra google-benchmark args...]
#
# Default build dir: ./build. Each binary also prints its usual
# google-benchmark console table; pass e.g. --benchmark_min_time=0.05 to
# shorten the run.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
[ $# -gt 0 ] && shift

if [ ! -d "$build_dir/bench" ]; then
  echo "error: $build_dir/bench not found — build the project first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

status=0
for bin in "$build_dir"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name=$(basename "$bin")
  echo "== $name =="
  if ! "$bin" --json="$build_dir/BENCH_$name.json" "$@"; then
    echo "error: $name failed" >&2
    status=1
  fi
done

echo
echo "JSON exports:"
ls -l "$build_dir"/BENCH_*.json
exit $status
