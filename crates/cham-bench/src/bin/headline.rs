//! The abstract's headline claims, recomputed end to end:
//!
//! * **1800×** speed-up for matrix-vector product (largest shape, CHAM vs
//!   the CPU software baseline),
//! * **36×** for HeteroLR end-to-end (vs FATE's Paillier),
//! * **144×** for Beaver triple generation (vs the Delphi baseline).
//!
//! Our CPU baseline is this repository's own Rust implementation, not the
//! paper's SEAL-on-Xeon-6130, so absolute ratios differ; the table prints
//! both side by side (see EXPERIMENTS.md for the discussion). The CPU
//! matvec is measured at the compared shape: `multiply_parallel` timed,
//! median of three runs, each decrypt-verified.

use cham_bench::{
    delphi_triple_seconds, threads_from_env, usage_error, CpuCosts, CpuHmvp, HeteroLrHost,
    HMVP_REPS,
};
use cham_he::params::ChamParams;
use cham_sim::pipeline::HmvpCycleModel;

fn main() {
    let threads = threads_from_env("headline").unwrap_or_else(|e| usage_error(&e));
    let params = ChamParams::cham_default().expect("paper params");
    println!("measuring CPU per-op costs and timing the CPU matvec (N = 4096)...");
    let cpu = CpuCosts::measure(&params);
    let model = HmvpCycleModel::cham();
    let n_ring = params.degree();

    // 1) HMVP speed-up at the largest evaluated shape (8192 x 8192).
    let (m, n) = (8192usize, 8192usize);
    let cpu_t = CpuHmvp::new(&params, threads).time(m, n);
    let cpu_mv = cpu_t.median;
    let cham_mv = model.hmvp_seconds(m, n);
    let hmvp_x = cpu_mv / cham_mv;

    // 2) HeteroLR end-to-end (8192 samples x 8192 features): the host
    // steps of fig7ab_heterolr, with the matvecs on the CPU vs CHAM.
    let host = HeteroLrHost::new(&cpu, m, n, n_ring);
    let lr_x = host.iteration_seconds(cpu_mv) / host.iteration_seconds(cham_mv);

    // 3) Beaver triples vs the original Delphi (BSGS diagonal on CPU).
    let delphi = delphi_triple_seconds(&cpu, m, n, n_ring);
    let beaver_x = delphi / cham_mv;

    println!("\n=== headline claims ===");
    println!("{:<34} {:>12} {:>12}", "claim", "paper", "this repo");
    println!(
        "{:<34} {:>12} {:>11.0}x",
        "HMVP speed-up (8192x8192)", "1800x", hmvp_x
    );
    println!(
        "{:<34} {:>12} {:>11.1}x",
        "HeteroLR end-to-end speed-up", "36x", lr_x
    );
    println!(
        "{:<34} {:>12} {:>11.0}x",
        "Beaver triples vs Delphi", "144x", beaver_x
    );
    println!();
    println!("CPU matvec {cpu_t}: multiply_parallel, median of {HMVP_REPS}, decrypt-verified");
    println!("  -> CHAM {cham_mv:.4} s at 8192x8192 (modelled 300 MHz FPGA)");
    println!("note: our CPU baseline is an optimized Rust implementation; the");
    println!("paper's ratios are against SEAL-class software on a Xeon 6130. The");
    println!("directions and orders of magnitude are the reproduction target.");
}
