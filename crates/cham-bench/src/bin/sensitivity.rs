//! Environmental sensitivity of the shipped design (ablation bench):
//! throughput vs clock frequency, DDR bandwidth, and engine count.

use cham_bench::{no_args, si};
use cham_sim::config::ChamConfig;
use cham_sim::sensitivity::Sensitivity;

fn main() {
    no_args("sensitivity");
    let s = Sensitivity::new(ChamConfig::cham());
    println!("=== sensitivity analysis (HMVP 4096x4096, shipped engine) ===\n");

    println!("clock frequency:");
    for p in s
        .sweep_clock(&[100e6, 200e6, 300e6, 450e6, 600e6])
        .expect("sweep")
    {
        println!("  {:>7} Hz -> {:>10}MAC/s", si(p.x), si(p.throughput));
    }

    println!("\nDDR bandwidth:");
    for p in s
        .sweep_bandwidth(&[2e9, 8e9, 19e9, 38e9, 77e9, 154e9])
        .expect("sweep")
    {
        println!("  {:>7}B/s -> {:>10}MAC/s", si(p.x), si(p.throughput));
    }
    let knee = s.memory_bound_threshold().expect("bisection");
    println!(
        "  memory-bound below ≈ {}B/s (the shipped 77 GB/s has ample margin)",
        si(knee)
    );

    println!("\nengine count:");
    for p in s.sweep_engines(&[1, 2, 3, 4, 6, 8]).expect("sweep") {
        println!(
            "  {:>3} engines -> {:>10}MAC/s",
            p.x as usize,
            si(p.throughput)
        );
    }
    println!("\ntakeaways: compute-bound at the shipped point (throughput tracks the");
    println!("clock); engines scale until the shared DDR link saturates.");
}
