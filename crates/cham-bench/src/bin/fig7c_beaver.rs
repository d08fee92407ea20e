//! Fig. 7c — Beaver triple generation: CHAM vs the original Delphi path.
//!
//! Delphi's preprocessing generates one matrix triple per linear layer via
//! a *batch-encoded* HMVP on the CPU (SEAL). The paper replaces it with
//! the coefficient-encoded HMVP on CHAM and reports 49–144× speed-up:
//!
//! * Delphi baseline: a BSGS diagonal matvec on the CPU, modelled from
//!   measured per-op costs ([`delphi_triple_seconds`] over `CpuCosts`,
//!   each the fastest of `COST_REPS` calls),
//! * coeff (CPU): the coefficient-encoded HMVP on the CPU — per HMVP,
//!   `multiply_parallel` timed at the layer shape (median of three runs
//!   after a warm-up, every product decrypt-verified),
//! * CHAM: the cycle model's HMVP time (mask subtraction is free in the
//!   packed domain).

use cham_bench::{
    delphi_triple_seconds, eng, threads_from_env, usage_error, CpuCosts, CpuHmvp, HMVP_REPS,
};
use cham_he::params::ChamParams;
use cham_sim::pipeline::HmvpCycleModel;

fn main() {
    let threads = threads_from_env("fig7c_beaver").unwrap_or_else(|e| usage_error(&e));
    let params = ChamParams::cham_default().expect("paper params");
    println!("measuring CPU per-op costs (N = 4096)...");
    let cpu = CpuCosts::measure(&params);
    println!("coeff (CPU): timed multiply_parallel, median of {HMVP_REPS}, decrypt-verified");
    let mut cpu_hmvp = CpuHmvp::new(&params, threads);
    let model = HmvpCycleModel::cham();
    let n_ring = params.degree();

    println!("\n=== Fig. 7c: Beaver triple generation time per batch of layers ===");
    println!(
        "{:>14} {:>8} {:>14} {:>14} {:>14} {:>8} {:>36}",
        "layer (m x n)", "triples", "Delphi (CPU)", "coeff (CPU)", "CHAM", "speedup", "per HMVP"
    );
    // Representative linear-layer shapes (Delphi evaluates CNN layers).
    let layers = [
        (1024usize, 1024usize, 16usize),
        (2048, 2048, 16),
        (4096, 4096, 16),
        (8192, 4096, 16),
    ];
    for (m, n, count) in layers {
        // Delphi baseline: BSGS diagonal matvec on the CPU (see lib docs).
        let delphi = count as f64 * delphi_triple_seconds(&cpu, m, n, n_ring);
        // Improved algorithm, still on CPU.
        let one = cpu_hmvp.time(m, n);
        let coeff_cpu = count as f64 * one.median;
        // Improved algorithm on CHAM.
        let cham = count as f64 * model.hmvp_seconds(m, n);
        println!(
            "{:>9}x{:<5} {:>8} {:>14} {:>14} {:>14} {:>7.0}x {:>36}",
            m,
            n,
            count,
            eng(delphi),
            eng(coeff_cpu),
            eng(cham),
            delphi / cham,
            one.to_string()
        );
    }
    println!("\npaper claim: 49x-144x over the original Delphi implementation.");
    println!("(absolute CPU costs differ from the paper's Xeon 6130 + SEAL; the");
    println!("ordering and order of magnitude are the reproduced shape.)");
}
