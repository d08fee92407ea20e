#!/usr/bin/env bash
# Regenerates every paper table/figure into results/, then runs the test
# suite. Usage: scripts/reproduce.sh [results_dir]
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-results}"
mkdir -p "$OUT"

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
  cargo run --release -p cham-bench --bin "$bin" | tee "$OUT/$bin.txt"
done

echo "== golden vectors (degree 4096, 1 per unit) =="
cargo run --release -p cham-bench --bin golden_dump -- \
  4096 1 1 > "$OUT/golden_vectors.txt"

echo "== test suite =="
cargo test --workspace --release 2>&1 | tee "$OUT/test_output.txt"

echo "all artifacts in $OUT/"
