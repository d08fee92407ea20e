//! The benchmark's fixed vocabulary: workload names, the end-to-end
//! metrics with direction and regression bound, and the per-layer metrics.
//! `BENCHMARK.json` at the repository root states the same lists; a test
//! below keeps the two identical.

use crate::json::{obj, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// How the driver starts the benchmark, from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["bench"];

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "hmvp_tall",
        why: "128x4096 in-process multiply at N=4096, pool 1: rows >> tiles, so key-switch packing and the per-row rescale+extract tail dominate and the MAC is idle",
    },
    WorkloadSpec {
        name: "hmvp_wide",
        why: "8x262144 in-process multiply at N=4096, pool 1: 64 column tiles (50 MB), so the input NTT lift and streaming fused MAC dominate and packing is under a tenth",
    },
    WorkloadSpec {
        name: "serve_wide",
        why: "one cham-serve node on loopback, cached 4x65536 matrix, 2 closed-loop clients sending 3 MB requests: codec, socket, queue and batch time show; cache always hits",
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "same node with a store and matrix_cache=8: each round uploads a fresh 4x16384 matrix, 4 hot requests, 1 request on an evicted matrix restored from disk; writes beside reads",
    },
    WorkloadSpec {
        name: "cluster_fanout",
        why: "3 in-process nodes, R=2, N=256, 768x256 matrix in 3 bands on 3 primaries, 1 closed-loop hmvp_sharded client: routing, per-band round trips, shared pool, reassembly",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees. One operation is one `Hmvp::multiply`
/// (`hmvp_*`), one request (`serve_wide`, `cluster_fanout`) or one churn
/// round of upload + 4 hot + 1 cold request (`serve_churn`).
///
/// Bounds are three times the widest run-to-run spread measured over ten
/// seeds when the benchmark was defined (`README.md`, "Sizing"). The tail
/// percentiles are per-layer metrics: on `cluster_fanout` a tenth of the
/// requests take twice the median, so p90 sits on the edge between two
/// modes and its spread was 34 %.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("op_ms_p50", "ms", Better::Lower, 0.20),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Traced-run metrics. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // cham-math: single kernels at the workload's ring degree.
    layer("math.ntt_fwd_us", "us", Lower),
    layer("math.ntt_inv_us", "us", Lower),
    layer("math.rescale_by_last_us", "us", Lower),
    layer("math.mac_us", "us", Lower),
    layer("math.mac_stream_us", "us", Lower),
    layer("math.simd_vector_share", "share", Higher),
    layer("math.simd_vector_share.fwd_butterfly", "share", Higher),
    layer("math.simd_vector_share.inv_butterfly", "share", Higher),
    layer("math.simd_vector_share.mul_shoup_lazy", "share", Higher),
    layer("math.simd_vector_share.mac", "share", Higher),
    layer("math.simd_vector_share.normalize", "share", Higher),
    layer("math.lazy_flushes", "count/op", Lower),
    // cham-he: the phases of one multiply on the workload's matrix.
    layer("he.multiply_ms", "ms", Lower),
    layer("he.dot_products_ms", "ms", Lower),
    layer("he.lift_ms", "ms", Lower),
    layer("he.mac_ms", "ms", Lower),
    layer("he.row_tail_ms", "ms", Lower),
    layer("he.pack_ms", "ms", Lower),
    layer("he.pack_two_us", "us", Lower),
    layer("he.keyswitch_us", "us", Lower),
    layer("he.accounted_share", "share", Higher),
    layer("he.dot_accounted_share", "share", Higher),
    layer("he.scratch_miss_share", "share", Lower),
    layer("he.encode_matrix_ms", "ms", Lower),
    layer("he.encrypt_ms", "ms", Lower),
    layer("he.decrypt_ms", "ms", Lower),
    layer("he.noise_budget_bits", "bits", Higher),
    layer("he.wire_ct_encode_us", "us", Lower),
    layer("he.wire_ct_decode_us", "us", Lower),
    // cham-serve: one node, from Server::introspect() and the clients.
    layer("serve.wire_ms", "ms", Lower),
    layer("serve.phase.queue_ms", "ms", Lower),
    layer("serve.phase.batch_ms", "ms", Lower),
    layer("serve.phase.encode_ms", "ms", Lower),
    layer("serve.phase.dot_ms", "ms", Lower),
    layer("serve.phase.rescale_ms", "ms", Lower),
    layer("serve.phase.keyswitch_ms", "ms", Lower),
    layer("serve.phase.serialize_ms", "ms", Lower),
    layer("serve.phase.total_ms", "ms", Lower),
    layer("serve.kernel_share", "share", Higher),
    layer("serve.avg_batch", "count", Higher),
    layer("serve.peak_queue_depth", "count", Lower),
    layer("serve.rejected_busy", "count", Lower),
    layer("serve.timed_out", "count", Lower),
    layer("serve.req_ms_p99", "ms", Lower),
    layer("serve.matrix_encode_ms", "ms", Lower),
    layer("serve.fresh_encodes", "count/op", Lower),
    layer("serve.store.put_ms", "ms", Lower),
    layer("serve.store.get_ms", "ms", Lower),
    layer("serve.store.restores", "count/op", Lower),
    layer("serve.store.hit_share", "share", Higher),
    layer("serve.upload.chunks_sent", "count/op", Lower),
    layer("serve.upload_ms_p50", "ms", Lower),
    layer("serve.hot_req_ms_p50", "ms", Lower),
    layer("serve.cold_req_ms_p50", "ms", Lower),
    // cham-cluster: the fan-out around the per-node server time.
    layer("cluster.node_total_ms_max", "ms", Lower),
    layer("cluster.fanout_overhead_ms", "ms", Lower),
    layer("cluster.max_bands_per_node", "count/op", Lower),
    layer("cluster.failovers", "count", Lower),
    layer("cluster.retries", "count", Lower),
    layer("cluster.refreshes", "count", Lower),
    // cham-pool: the shared kernel pool over the timed window.
    layer("pool.tasks", "count/op", Lower),
    layer("pool.steals", "count/op", Lower),
    layer("pool.parks", "count/op", Lower),
    layer("pool.idle_share", "share", Lower),
    // The benchmark itself.
    layer("bench.op_ms_p90", "ms", Lower),
    layer("bench.op_ms_p99", "ms", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.traced_ops", "count", Higher),
];

/// `BENCHMARK.json` as these tables state it (`bench_all spec`).
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| s.into()).collect());
    obj([
        ("command", strings(COMMAND)),
        ("paths", strings(PATHS)),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(!valid_name("-x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("count per op"));
    }

    #[test]
    fn benchmark_json_states_the_same_lists() {
        let committed =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `bench_all spec > BENCHMARK.json`"
        );
        for word in COMMAND {
            assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
        }
        assert!(COMMAND.len() <= 32 && (1..=16).contains(&PATHS.len()));
    }
}
