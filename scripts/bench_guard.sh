#!/usr/bin/env bash
# bench_guard.sh — compare two cham-run-record/v1 JSON files and fail on
# performance regressions beyond a tolerance.
#
# Usage:
#   scripts/bench_guard.sh <baseline.json> <current.json>
#
# The guarded metric set is chosen by the record's "name" field:
#   table3_ntt       -> cpu_ntt_ops_per_sec, simd_speedup_{fwd,inv}_ntt
#                       (higher is better; the tier `auto` resolves to —
#                       the per-tier `_<backend>` twins are informational,
#                       and the mul_lazy/mac rows are the neon arm only
#                       since the AVX2 arms that lost to scalar are gone),
#                       ntt_lazy_seconds, ntt_simd_seconds
#                       (lower is better); additionally fails on a silent
#                       scalar fallback — a record whose params say the
#                       host should vectorize (simd_expect_vector = 1) but
#                       whose resolved backend is scalar (simd_lanes <= 1)
#   fig8_hmvp        -> dot_phase_serial_seconds, dot_phase_parallel_seconds,
#                       dot_phase_unfused_seconds (lower is better)
#   serve_throughput -> served_seconds, latency_p99_ns (lower is better),
#                       speedup (higher is better)
#   serve_cluster    -> latency_p99_ns (lower is better),
#                       goodput_rps (higher is better); failed_requests
#                       gates at exactly zero regardless of tolerance
#   serve_store      -> cold/warm_first_result_seconds (lower is better),
#                       warm_speedup (higher is better); warm_matrix_encodes
#                       and warm_chunks_sent gate at exactly zero — a warm
#                       restart that re-encodes or re-streams is a
#                       persistence bug, not a perf regression
#   serve_repair     -> time_to_converged_seconds (lower is better);
#                       failed_requests and post_repair_inventory_diff gate
#                       at exactly zero — a lost request during the outage
#                       or a segment repair left behind is a self-healing
#                       bug, not a perf regression
# Metrics missing from either file are skipped (so a pre-ablation baseline
# still guards the metrics it has — new observability fields like
# latency_p50/p99/p999_ns and the phase_ns.* map never fail on their first
# appearance). phase_ns.* entries present in both records are diffed
# informationally but never gate. Exits 1 if any guarded metric regresses
# by more than BENCH_GUARD_TOLERANCE (default 0.10 = 10%).
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <baseline.json> <current.json>" >&2
    exit 2
fi

BASELINE="$1" CURRENT="$2" python3 - <<'PY'
import json
import os
import sys

tolerance = float(os.environ.get("BENCH_GUARD_TOLERANCE", "0.10"))

# metric -> direction ("higher" or "lower" is better), keyed by record name.
GUARDS = {
    "table3_ntt": {
        "cpu_ntt_ops_per_sec": "higher",
        "ntt_lazy_seconds": "lower",
        "ntt_simd_seconds": "lower",
        "simd_speedup_fwd_ntt": "higher",
        "simd_speedup_inv_ntt": "higher",
    },
    "fig8_hmvp": {
        "dot_phase_serial_seconds": "lower",
        "dot_phase_parallel_seconds": "lower",
        "dot_phase_unfused_seconds": "lower",
    },
    "serve_throughput": {
        "served_seconds": "lower",
        "latency_p99_ns": "lower",
        "speedup": "higher",
    },
    "serve_cluster": {
        "latency_p99_ns": "lower",
        "goodput_rps": "higher",
    },
    "serve_store": {
        "cold_first_result_seconds": "lower",
        "warm_first_result_seconds": "lower",
        "warm_speedup": "higher",
    },
    "serve_repair": {
        "time_to_converged_seconds": "lower",
    },
}


def load(path):
    with open(path) as f:
        rec = json.load(f)
    if rec.get("schema") != "cham-run-record/v1":
        sys.exit(f"{path}: not a cham-run-record/v1 file")
    return rec


base = load(os.environ["BASELINE"])
cur = load(os.environ["CURRENT"])

if base.get("name") != cur.get("name"):
    sys.exit(f"record name mismatch: {base.get('name')!r} vs {cur.get('name')!r}")

name = cur.get("name")
guards = GUARDS.get(name)
if guards is None:
    sys.exit(f"no guarded metrics defined for record {name!r}")

failures = []
checked = 0
for metric, direction in guards.items():
    b = base.get("metrics", {}).get(metric)
    c = cur.get("metrics", {}).get(metric)
    if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
        print(f"  skip  {metric}: missing from baseline or current")
        continue
    if b <= 0:
        print(f"  skip  {metric}: non-positive baseline {b}")
        continue
    checked += 1
    if direction == "higher":
        change = (c - b) / b  # negative change = regression
    else:
        change = (b - c) / b  # current above baseline = regression
    status = "ok" if change >= -tolerance else "FAIL"
    print(
        f"  {status:>4}  {metric}: baseline {b:.6g} -> current {c:.6g} "
        f"({'+' if change >= 0 else ''}{change * 100:.1f}%, {direction} is better)"
    )
    if change < -tolerance:
        failures.append(metric)

# Correctness gates: some records carry counters that must be exactly
# zero — a single lost request is a resilience bug, not a 10% regression.
ZERO_GATES = {
    "serve_cluster": ["failed_requests"],
    "serve_store": ["warm_matrix_encodes", "warm_chunks_sent"],
    "serve_repair": ["failed_requests", "post_repair_inventory_diff"],
}
for metric in ZERO_GATES.get(name, []):
    c = cur.get("metrics", {}).get(metric)
    if not isinstance(c, (int, float)):
        print(f"  skip  {metric}: missing from current")
        continue
    checked += 1
    status = "ok" if c == 0 else "FAIL"
    print(f"  {status:>4}  {metric}: {c:.6g} (must be exactly 0)")
    if c != 0:
        failures.append(metric)

# Silent-scalar-fallback gate: the run record stamps two independent
# views of the SIMD story — `simd_expect_vector` is computed straight from
# host feature detection + the raw CHAM_SIMD request (bypassing the
# dispatch code entirely), while `simd_lanes` reports what the dispatcher
# actually resolved. If the host should vectorize but the dispatcher fell
# back to scalar, every "simd" metric above silently benchmarks scalar
# against scalar and passes — so this is a hard failure, not a tolerance.
if name == "table3_ntt":
    params = cur.get("params", {})
    expect = params.get("simd_expect_vector")
    lanes = params.get("simd_lanes")
    if isinstance(expect, (int, float)) and isinstance(lanes, (int, float)):
        checked += 1
        if expect == 1 and lanes <= 1:
            print(
                f"  FAIL  simd dispatch: host expects a vector backend but "
                f"resolved simd_lanes={lanes:.0f} (silent scalar fallback)"
            )
            failures.append("simd_silent_fallback")
        else:
            print(
                f"  ok    simd dispatch: simd_expect_vector={expect:.0f}, "
                f"simd_lanes={lanes:.0f}"
            )
    else:
        print("  skip  simd dispatch: simd_expect_vector/simd_lanes not in current params")

if checked == 0:
    sys.exit(f"{name}: no guarded metrics present in both records")

# Informational per-phase attribution diff: phase_ns.* keys are new
# observability output — report drift when both records carry them, never
# fail on them (a first run after the fields appeared has no baseline).
phase_keys = sorted(
    k
    for k in set(base.get("metrics", {})) | set(cur.get("metrics", {}))
    if k.startswith("phase_ns.")
)
for key in phase_keys:
    b = base.get("metrics", {}).get(key)
    c = cur.get("metrics", {}).get(key)
    if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
        print(f"  info  {key}: present in one record only (not gated)")
        continue
    if b > 0:
        drift = (c - b) / b
        print(
            f"  info  {key}: baseline {b:.6g} -> current {c:.6g} "
            f"({'+' if drift >= 0 else ''}{drift * 100:.1f}%, informational)"
        )
    else:
        print(f"  info  {key}: baseline {b:.6g} -> current {c:.6g} (informational)")

if failures:
    sys.exit(
        f"{name}: {len(failures)} metric(s) regressed more than "
        f"{tolerance * 100:.0f}%: {', '.join(failures)}"
    )
print(f"{name}: {checked} guarded metric(s) within {tolerance * 100:.0f}% tolerance")
PY
