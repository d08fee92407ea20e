#!/usr/bin/env bash
# Builds bench_all once, then runs every workload in a fresh process:
# an untraced pass (end-to-end metrics) and a traced pass (per-layer
# metrics + Chrome trace). Records land in <out>/; every metric is
# printed as `workload metric value unit`.
#
#   bench/run.sh [--seed N] [--seconds S] [--runs K] [--out DIR]
#                [--quick] [--no-trace]
#
# --runs K repeats the untraced pass K times with seeds N..N+K-1 and
# tags the records r1..rK, which is what `bench_all compare` wants:
#
#   bench/run.sh --runs 10 --out bench/out/a
#   bench/run.sh --runs 10 --out bench/out/b
#   bench/target/release/bench_all compare bench/out/a bench/out/b
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1 seconds=15 runs=1 out=bench/out quick=() trace=1
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --runs) runs=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --quick) quick=(--quick); shift ;;
    --no-trace) trace=0; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bin="${CARGO_TARGET_DIR:-bench/target}/release/bench_all"

status=0
for workload in $("$bin" --list); do
  for run in $(seq 1 "$runs"); do
    tag=()
    [ "$runs" -gt 1 ] && tag=(--tag "r$run")
    "$bin" --workload "$workload" --seed $((seed + run - 1)) --seconds "$seconds" \
      --trace 0 --out "$out" ${tag[@]+"${tag[@]}"} ${quick[@]+"${quick[@]}"} | grep -v '^{' || status=1
  done
  if [ "$trace" = 1 ]; then
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace 1 --out "$out" ${quick[@]+"${quick[@]}"} | grep -v '^{' || status=1
  fi
done
exit $status
