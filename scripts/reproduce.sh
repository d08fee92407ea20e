#!/usr/bin/env bash
# Regenerates every paper table/figure into results/, then runs the test
# suite and Criterion benches. Usage: scripts/reproduce.sh [results_dir]
#
# RESULTS_JSON=1 additionally writes one structured run record
# ($OUT/<bin>.json, schema cham-run-record/v1, counter/timer snapshot
# included) per figure binary. The build is the same either way.
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-results}"
mkdir -p "$OUT"

RESULTS_JSON="${RESULTS_JSON:-0}"

BINS=(
  fig2a_roofline
  fig2b_dse
  table2_resources
  table3_ntt
  fig6_throughput
  fig8_hmvp
  fig7ab_heterolr
  fig7c_beaver
  sensitivity
  headline
)

echo "== building workspace (release) =="
cargo build --workspace --release

for bin in "${BINS[@]}"; do
  echo "== $bin =="
  EXTRA=()
  if [[ "$RESULTS_JSON" == "1" ]]; then
    EXTRA=(--json "$OUT/$bin.json")
  fi
  cargo run --release -p cham-bench --bin "$bin" -- "${EXTRA[@]}" \
    | tee "$OUT/$bin.txt"
done

echo "== golden vectors (degree 4096, 1 per unit) =="
GOLDEN_EXTRA=()
if [[ "$RESULTS_JSON" == "1" ]]; then
  GOLDEN_EXTRA=(--json "$OUT/golden_dump.json")
fi
cargo run --release -p cham-bench --bin golden_dump -- \
  4096 1 1 "${GOLDEN_EXTRA[@]}" > "$OUT/golden_vectors.txt"

echo "== test suite =="
cargo test --workspace --release 2>&1 | tee "$OUT/test_output.txt"

echo "== criterion benches =="
cargo bench -p cham-bench 2>&1 | tee "$OUT/bench_output.txt"

echo "all artifacts in $OUT/"
