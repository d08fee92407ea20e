//! Fig. 8 — HMVP performance: CPU vs GPU vs CHAM, at n = 256 and n = 4096.
//!
//! The CPU series is measured from this repository's software stack and
//! extrapolated per row; CHAM comes from the cycle model; the GPU from the
//! calibrated ratio model. Reproduced claims: >10× over CPU with more than
//! 90% of compute offloaded, larger matrices gain more, and CHAM latency
//! is 0.3–0.7× the GPU's.

use cham_bench::{eng, threads_from_env, usage_error, CpuCosts, DotPhaseBench};
use cham_he::params::ChamParams;
use cham_sim::baselines::GpuModel;
use cham_sim::pipeline::HmvpCycleModel;
use cham_telemetry::histogram::LiveHistogram;
use cham_telemetry::span::{self, SpanRecorder, TraceId};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let threads = threads_from_env("fig8_hmvp").unwrap_or_else(|e| usage_error(&e));
    let params = ChamParams::cham_default().expect("paper params");
    let backend = cham_math::Backend::active();
    println!(
        "SIMD backend: {backend} ({} lanes; override with CHAM_SIMD)",
        backend.lanes()
    );
    println!("measuring CPU per-op costs (N = 4096, {threads} thread(s))...");
    let cpu = CpuCosts::measure_with_threads(&params, threads);
    let model = HmvpCycleModel::cham();
    let gpu = GpuModel::default();

    for n in [256usize, 4096] {
        println!(
            "\n=== Fig. 8{}: HMVP latency, no. of columns = {n} ===",
            if n == 256 { "a" } else { "b" }
        );
        println!(
            "{:>6} {:>14} {:>14} {:>14} {:>10} {:>10}",
            "rows", "CPU", "GPU", "CHAM", "vs CPU", "vs GPU"
        );
        for m in [256usize, 1024, 4096, 8192] {
            let cpu_s = cpu.hmvp_seconds(m, n, params.degree());
            let cham_s = model.hmvp_seconds(m, n);
            let gpu_s = gpu.hmvp_seconds(&model, m, n);
            println!(
                "{:>6} {:>14} {:>14} {:>14} {:>9.0}x {:>9.2}x",
                m,
                eng(cpu_s),
                eng(gpu_s),
                eng(cham_s),
                cpu_s / cham_s,
                cham_s / gpu_s
            );
        }
    }
    println!();
    println!("paper claims: >10x over the CPU baseline, 0.3x–0.7x of GPU latency,");
    println!("higher gains for matrices with more rows — see ratio columns.");

    // Measured (not modelled) dot-product-phase speedup: the same rows ×
    // N workload, first at a cap of 1 (inline), then fanned out over the
    // requested number of threads. On a single-core host this stays
    // ≈ 1.0 regardless of --threads; the fan-out's benefit needs real cores.
    let rows = (threads.max(1) * 16).max(32);
    let bench = DotPhaseBench::prepare(&params, rows);
    let serial_s = bench.seconds(1, 3);
    let parallel_s = bench.seconds(threads, 3);
    let dot_speedup = serial_s / parallel_s;
    println!();
    println!(
        "dot-product phase ({rows} rows): {} serial vs {} at {threads} thread(s) => {dot_speedup:.2}x",
        eng(serial_s),
        eng(parallel_s),
    );

    // Fused-vs-unfused ablation on the same workload. "Unfused" is the
    // oracle path: strict per-term MODMUL + MODADD with per-term
    // allocations, a materialised product ciphertext, then the public
    // `rescale` + `extract_lwe` (six inverse transforms per row). The
    // fused kernel runs `simd::row_product` per limb, which holds the `a`
    // sums in registers and returns `b` as an inner product, then the
    // streaming row tail (three inverse transforms for `a`, a scalar
    // rescale for `b`). Both serial, so the ratio isolates kernel work from
    // thread parallelism. A second, wide shape (many column tiles per row)
    // exercises the deep accumulation regime — one-tile rows are
    // dominated by the row tail.
    let unfused_s = bench.seconds_unfused(3);
    let fused_speedup = unfused_s / serial_s;
    println!(
        "dot-product phase ({rows} rows, 1 tile/row): {} unfused (oracle path) vs {} fused => {fused_speedup:.2}x",
        eng(unfused_s),
        eng(serial_s),
    );
    let n = params.degree();
    let (wide_rows, wide_tiles) = (8usize, 8usize);
    let wide = DotPhaseBench::prepare_cols(&params, wide_rows, wide_tiles * n);
    let wide_fused_s = wide.seconds(1, 3);
    let wide_unfused_s = wide.seconds_unfused(3);
    let wide_fused_speedup = wide_unfused_s / wide_fused_s;
    println!(
        "dot-product phase ({wide_rows} rows, {wide_tiles} tiles/row): {} unfused (oracle path) vs {} fused => {wide_fused_speedup:.2}x",
        eng(wide_unfused_s),
        eng(wide_fused_s),
    );

    // Per-rep latency distribution + kernel phase attribution for the
    // serial dot phase, via the same tracing layer the serving stack
    // uses: each rep runs under a SpanRecorder, so the in-kernel
    // dot/rescale spans accumulate while a live histogram captures the
    // rep-to-rep spread that a best-of summary hides.
    const DIST_REPS: usize = 20;
    let rep_hist = LiveHistogram::new();
    let recorder = Arc::new(SpanRecorder::new(TraceId::generate()));
    for _ in 0..DIST_REPS {
        let t0 = Instant::now();
        span::with_recorder(Arc::clone(&recorder), || {
            let _ = bench.seconds(1, 1);
        });
        rep_hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    let rep_snap = rep_hist.snapshot();
    let phase_spans = recorder.finish();
    println!();
    println!(
        "dot-phase rep distribution ({DIST_REPS} reps): p50 {} p99 {} p999 {}",
        eng(rep_snap.percentile(0.50) / 1e9),
        eng(rep_snap.percentile(0.99) / 1e9),
        eng(rep_snap.percentile(0.999) / 1e9),
    );
    for p in &phase_spans {
        println!(
            "  kernel phase {:<10} {} across {} spans",
            p.name,
            eng(p.dur_ns as f64 / 1e9),
            p.count
        );
    }
}
