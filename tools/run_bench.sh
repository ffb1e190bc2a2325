#!/usr/bin/env bash
# Runs the benchmark suite and merges the per-binary google/benchmark JSON
# reports into one perf-trajectory artifact (BENCH_PR10.json by default).
# The suite includes bench_f8_service (the concurrent batch-rewriting
# service sweep) and bench_f9_answering (the end-to-end answering
# pipeline: route x engine x scenario x data size); see docs/OPERATIONS.md
# for how to read the merged JSON. The artifact's `provenance` object
# records the git SHA (and whether the tree was dirty), the
# CMAKE_BUILD_TYPE of BUILD_DIR, nproc, and the benchmark flags.
#
# Usage:
#   tools/run_bench.sh [BUILD_DIR] [OUTPUT_JSON]
#
# Environment knobs (all optional):
#   AQV_BENCH_MIN_TIME     --benchmark_min_time value (e.g. "0.05" seconds
#                          or "1x" for one iteration; default: benchmark's).
#                          google/benchmark before 1.8 silently ignores the
#                          "Nx" form and runs its 0.5 s default, so there
#                          "Nx" is passed as a zero minimum time, which
#                          stops after the first (single-iteration) batch.
#   AQV_BENCH_REPETITIONS  --benchmark_repetitions value (default 1).
#   AQV_BENCH_FILTER       --benchmark_filter regex applied to every binary.
#   AQV_BENCH_BINARIES     Space-separated subset of bench binary names
#                          (default: every bench_* in BUILD_DIR/bench).
#
# CI smoke example (reduced work, engine + answering benches only):
#   AQV_BENCH_MIN_TIME=1x AQV_BENCH_BINARIES="bench_f7_engines bench_f9_answering" \
#     tools/run_bench.sh build BENCH_PR10.json

set -euo pipefail

BUILD_DIR=${1:-build}
OUTPUT=${2:-BENCH_PR10.json}
REPETITIONS=${AQV_BENCH_REPETITIONS:-1}
MIN_TIME=${AQV_BENCH_MIN_TIME:-}
FILTER=${AQV_BENCH_FILTER:-}

BENCH_DIR="$BUILD_DIR/bench"
if [[ ! -d "$BENCH_DIR" ]]; then
  echo "error: $BENCH_DIR not found; configure with -DAQV_BUILD_BENCH=ON" >&2
  exit 1
fi

if [[ -n "${AQV_BENCH_BINARIES:-}" ]]; then
  BINARIES=()
  for name in $AQV_BENCH_BINARIES; do
    BINARIES+=("$BENCH_DIR/$name")
  done
else
  mapfile -t BINARIES < <(find "$BENCH_DIR" -maxdepth 1 -name 'bench_*' \
    -type f -executable | sort)
fi
if [[ ${#BINARIES[@]} -eq 0 ]]; then
  echo "error: no bench binaries found in $BENCH_DIR" >&2
  exit 1
fi

TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT

# google/benchmark 1.8+ documents the "<integer>x" form in its --help.
if [[ "$MIN_TIME" =~ ^[0-9]+x$ ]]; then
  usage=$("${BINARIES[0]}" --help 2>&1 || true)
  if [[ "$usage" != *"<integer>x"* ]]; then
    echo "note: this google/benchmark predates \"Nx\" min times;" \
      "running one iteration per benchmark instead of $MIN_TIME" >&2
    MIN_TIME=0
  fi
fi

FLAGS=(--benchmark_repetitions="$REPETITIONS")
[[ -n "$MIN_TIME" ]] && FLAGS+=(--benchmark_min_time="$MIN_TIME")
[[ -n "$FILTER" ]] && FLAGS+=(--benchmark_filter="$FILTER")

for bin in "${BINARIES[@]}"; do
  name=$(basename "$bin")
  echo "== running $name =="
  # Banners go to stdout; the JSON report goes to its own file.
  "$bin" "${FLAGS[@]}" \
    --benchmark_out="$TMP_DIR/$name.json" --benchmark_out_format=json
done

# Provenance: google/benchmark's own context only says how *it* was
# built, so record what produced these numbers.
REPO_DIR=$(cd "$(dirname "$0")/.." && pwd)
GIT_SHA=$(git -C "$REPO_DIR" rev-parse HEAD 2>/dev/null || echo unknown)
GIT_DIRTY=false
if [[ -n "$(git -C "$REPO_DIR" status --porcelain --untracked-files=no 2>/dev/null)" ]]; then
  GIT_DIRTY=true
fi
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)
NPROC=$(nproc)

python3 - "$TMP_DIR" "$OUTPUT" "$GIT_SHA" "$GIT_DIRTY" "$BUILD_TYPE" "$NPROC" \
  "${FLAGS[@]}" <<'PY'
import json, pathlib, sys

tmp_dir, output = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
merged = {"suites": {}}
merged["provenance"] = {
    "git_sha": sys.argv[3],
    "git_dirty": sys.argv[4] == "true",
    "cmake_build_type": sys.argv[5],
    "nproc": int(sys.argv[6]),
    "flags": sys.argv[7:],
}
for report in sorted(tmp_dir.glob("*.json")):
    with report.open() as f:
        data = json.load(f)
    merged["suites"][report.stem] = data
    # One shared context (machine info) is enough at the top level.
    merged.setdefault("context", data.get("context", {}))
total = sum(len(s.get("benchmarks", [])) for s in merged["suites"].values())
merged["num_suites"] = len(merged["suites"])
merged["num_benchmarks"] = total
output.write_text(json.dumps(merged, indent=1) + "\n")
print(f"wrote {output} ({merged['num_suites']} suites, {total} benchmarks)")
PY
