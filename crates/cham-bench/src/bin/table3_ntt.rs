//! Table III — single-NTT-module comparison, plus the §V-B.1 throughput
//! claims (195k NTT ops/s vs HEAX 117k vs GPU 45k; key-switch 65k ops/s,
//! 105× the CPU).
//!
//! The CPU column is *measured* on this machine from the software stack;
//! the ratio will differ from the paper's Xeon 6130 but the ordering and
//! magnitude reproduce.

use cham_bench::{si, BenchRun, CpuCosts};
use cham_he::params::ChamParams;
use cham_math::simd::{self, RescaleLimb};
use cham_math::{Backend, NttTable};
use cham_sim::baselines::published_ntt;
use cham_sim::pipeline::HmvpCycleModel;
use cham_sim::report::table3;
use std::time::Instant;

/// Best-of-3 seconds for `reps` calls of one kernel (a transform of one
/// N-point limb, or one key-switch's worth of a key-switch kernel).
fn time_ntt(reps: usize, mut transform: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            transform();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut run = BenchRun::from_env("table3_ntt");
    println!("=== Table III: comparison of a single NTT module ===");
    print!("{}", table3());
    println!();

    let model = HmvpCycleModel::cham();
    println!("=== NTT / key-switch throughput (paper §V-B.1) ===");
    println!(
        "CHAM NTT ops/s (modelled):      {} (paper: 195k)",
        si(model.ntt_ops_per_sec())
    );
    println!(
        "HEAX NTT ops/s (published):     {}",
        si(published_ntt::HEAX_NTT_OPS_PER_SEC)
    );
    println!(
        "GPU NTT ops/s (published):      {}",
        si(published_ntt::GPU_NTT_OPS_PER_SEC)
    );
    println!(
        "CHAM key-switch ops/s:          {} (paper: 65k)",
        si(model.keyswitch_ops_per_sec())
    );
    println!();

    println!("measuring CPU baseline on this machine (N = 4096)...");
    let params = ChamParams::cham_default().expect("paper params");
    let cpu = CpuCosts::measure(&params);
    let cpu_ks = cpu.keyswitch_ops_per_sec();
    let cpu_ntt = cpu.ntt_ops_per_sec(3);
    println!("CPU NTT ops/s (measured):       {}", si(cpu_ntt));
    println!("CPU key-switch ops/s (measured):{}", si(cpu_ks));
    println!(
        "CHAM/CPU key-switch speed-up:   {:.0}x (paper: 105x on Xeon 6130)",
        model.keyswitch_ops_per_sec() / cpu_ks
    );

    // Strict-vs-lazy ablation on one single-limb N = 4096 forward NTT:
    // the same table, the same buffer, only the reduction discipline
    // differs (canonical per butterfly vs Harvey [0, 4q) + one final pass).
    let n = params.degree();
    let q = params.ciphertext_context().moduli()[0];
    let table = NttTable::new(n, q).expect("NTT table");
    let mut poly: Vec<u64> = (0..n as u64).map(|i| i % q.value()).collect();
    let reps = 200;
    let strict_s = time_ntt(reps, || table.forward_strict(&mut poly));
    let lazy_s = time_ntt(reps, || table.forward(&mut poly));
    let lazy_speedup = strict_s / lazy_s;
    println!();
    println!("=== Ablation: strict vs lazy reduction (single-limb forward NTT, N = {n}) ===");
    println!("{:>24} {:>14} {:>14}", "datapath", "sec/transform", "ops/s");
    println!(
        "{:>24} {:>14.3e} {:>14}",
        "strict (reference)",
        strict_s / reps as f64,
        si(reps as f64 / strict_s)
    );
    println!(
        "{:>24} {:>14.3e} {:>14}",
        "lazy (production)",
        lazy_s / reps as f64,
        si(reps as f64 / lazy_s)
    );
    println!("lazy-reduction speedup:         {lazy_speedup:.2}x");

    // Scalar-vs-SIMD ablation: the same lazy datapath, pinned to the scalar
    // backend and to every vector backend the host can run via
    // `with_backend` (the in-process equivalent of `CHAM_SIMD=scalar` /
    // `=avx2` / … runs). `NttTable::new` above already captured the
    // env-selected backend, so `ntt_lazy_seconds` stays the production
    // path; the rows below isolate the vectorization factor per tier, one
    // row per kernel family with an arm of its own (a backend without one
    // runs the scalar arm and reads ≈ 1.0×). The un-suffixed metrics are
    // the tier `CHAM_SIMD=auto` resolves to.
    let auto_backend = Backend::detect_auto();
    let scalar_table = NttTable::with_backend(n, q, Backend::Scalar).expect("NTT table");
    let fwd_scalar_s = time_ntt(reps, || scalar_table.forward(&mut poly));
    let inv_scalar_s = time_ntt(reps, || scalar_table.inverse(&mut poly));
    let per = reps as f64;
    println!();
    println!("=== Ablation: scalar vs SIMD backends (N = {n}, `auto` = {auto_backend}) ===");
    println!(
        "{:>12} {:>5} {:>16} {:>14} {:>14} {:>10}",
        "backend", "lanes", "kernel", "scalar s", "simd s", "speedup"
    );
    let row = |backend: Backend, kernel: &str, scalar_s: f64, simd_s: f64| {
        println!(
            "{:>12} {:>5} {kernel:>16} {scalar_s:>14.3e} {simd_s:>14.3e} {:>9.2}x",
            backend.name(),
            backend.lanes(),
            scalar_s / simd_s
        );
    };
    run.param("degree", params.degree());
    run.param("simd_ablation_backend", auto_backend.name());
    // The key-switch's element-wise families on their production shape:
    // the digit product of one key-switch (every digit against both key
    // components, one call per augmented limb) and the rescale of one
    // augmented polynomial into the normal basis. Any canonical residues
    // do; the digit product writes canonical sums back over its inputs.
    let aug = params.augmented_context();
    let (moduli, lanes) = (aug.moduli(), aug.len() * n);
    let digits = params.ciphertext_context().len();
    let residues = |limbs: usize| -> Vec<u64> {
        (0..limbs * n)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9) % moduli[(i / n) % moduli.len()].value())
            .collect()
    };
    let key = residues(moduli.len());
    let key_limbs: Vec<Vec<&[u64]>> = key.chunks_exact(n).map(|l| vec![l; digits]).collect();
    let mut words = residues(digits.max(2) * moduli.len());
    let keyswitch_dot = |backend: Backend, words: &mut [u64]| {
        for (l, (q, key)) in moduli.iter().zip(&key_limbs).enumerate() {
            simd::digit_product(backend, &mut words[l * n..], lanes, key, key, q);
        }
    };
    let (p, surviving) = moduli.split_last().expect("augmented chain");
    let rescale_limbs: Vec<RescaleLimb> = surviving
        .iter()
        .map(|&q| RescaleLimb::new(q, *p).expect("chain primes are coprime"))
        .collect();
    let src = residues(moduli.len());
    let mut rescaled = vec![0u64; surviving.len() * n];
    let rescale = |backend: Backend, out: &mut [u64]| {
        let last = &src[surviving.len() * n..];
        for (i, limb) in rescale_limbs.iter().enumerate() {
            let (x, out) = (&src[i * n..(i + 1) * n], &mut out[i * n..(i + 1) * n]);
            simd::rescale_into(backend, limb, x, last, out);
        }
    };
    let dot_scalar_s = time_ntt(reps, || keyswitch_dot(Backend::Scalar, &mut words));
    let rescale_scalar_s = time_ntt(reps, || rescale(Backend::Scalar, &mut rescaled));
    for backend in Backend::all_available() {
        if backend == Backend::Scalar {
            continue;
        }
        let table = NttTable::with_backend(n, q, backend).expect("NTT table");
        let fwd_s = time_ntt(reps, || table.forward(&mut poly));
        let inv_s = time_ntt(reps, || table.inverse(&mut poly));
        let dot_s = time_ntt(reps, || keyswitch_dot(backend, &mut words));
        let rescale_s = time_ntt(reps, || rescale(backend, &mut rescaled));
        row(backend, "forward NTT", fwd_scalar_s / per, fwd_s / per);
        row(backend, "inverse NTT", inv_scalar_s / per, inv_s / per);
        row(backend, "keyswitch dot", dot_scalar_s / per, dot_s / per);
        row(backend, "rescale", rescale_scalar_s / per, rescale_s / per);
        run.metric(
            format!("simd_speedup_fwd_ntt_{backend}"),
            fwd_scalar_s / fwd_s,
        )
        .metric(
            format!("simd_speedup_inv_ntt_{backend}"),
            inv_scalar_s / inv_s,
        )
        .metric(
            format!("simd_speedup_keyswitch_dot_{backend}"),
            dot_scalar_s / dot_s,
        )
        .metric(
            format!("simd_speedup_rescale_{backend}"),
            rescale_scalar_s / rescale_s,
        );
        if backend == auto_backend {
            run.metric("ntt_simd_seconds", fwd_s / per)
                .metric("simd_speedup_fwd_ntt", fwd_scalar_s / fwd_s)
                .metric("simd_speedup_inv_ntt", inv_scalar_s / inv_s);
        }
    }
    run.metric("ntt_strict_seconds", strict_s / reps as f64)
        .metric("ntt_lazy_seconds", lazy_s / reps as f64)
        .metric("ntt_lazy_speedup", lazy_speedup);
    run.metric("cham_ntt_ops_per_sec", model.ntt_ops_per_sec())
        .metric("cham_keyswitch_ops_per_sec", model.keyswitch_ops_per_sec())
        .metric("cpu_ntt_ops_per_sec", cpu_ntt)
        .metric("cpu_keyswitch_ops_per_sec", cpu_ks)
        .metric("keyswitch_speedup", model.keyswitch_ops_per_sec() / cpu_ks);
    run.finish();
}
