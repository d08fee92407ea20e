//! Fig. 6 — HMVP throughput for different matrix shapes, CHAM vs GPU.
//!
//! Reproduced claims: throughput grows near-linearly with the row count
//! `m` before saturating; the column count matters little until a row
//! spans multiple ciphertexts (`n > N`); CHAM sustains ≈4.5× the GPU.

use cham_bench::{no_args, si};
use cham_sim::baselines::GpuModel;
use cham_sim::pipeline::HmvpCycleModel;

fn main() {
    no_args("fig6_throughput");
    let model = HmvpCycleModel::cham();
    let gpu = GpuModel::default();
    println!("=== Fig. 6: HMVP throughput (MAC/s) vs matrix shape ===");
    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>8}",
        "m", "n", "CHAM", "GPU", "ratio"
    );
    let ms = [256usize, 512, 1024, 2048, 4096, 8192];
    let ns = [256usize, 1024, 4096, 8192];
    for &n in &ns {
        for &m in &ms {
            let cham = model.hmvp_throughput_macs(m, n);
            let g = gpu.hmvp_throughput_macs(&model, m, n);
            println!(
                "{:>6} {:>6} {:>12}/s {:>12}/s {:>7.1}x",
                m,
                n,
                si(cham),
                si(g),
                cham / g
            );
        }
        println!();
    }
    // Shape checks the paper narrates.
    let grow = model.hmvp_throughput_macs(8192, 4096) / model.hmvp_throughput_macs(256, 4096);
    println!("throughput gain 256→8192 rows (n=4096): {grow:.2}x (near-linear then saturating)");
    let tile_penalty =
        model.hmvp_throughput_macs(4096, 4096) / model.hmvp_throughput_macs(4096, 8192);
    println!(
        "column-tiling penalty at n=8192 vs 4096: {tile_penalty:.2}x (rows span two ciphertexts)"
    );
}
