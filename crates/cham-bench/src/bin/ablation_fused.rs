//! Ablation: fused whole-HMVP pipeline vs invoking individual HE operators
//! (the quantitative form of the paper's §III-B roofline argument:
//! "invoking these HE operations individually will cause intensive memory
//! access and therefore degrade overall performance").
//!
//! The op-by-op alternative pays an off-chip round trip per operator (the
//! intermediate ciphertexts cannot stay resident when each operator is a
//! separate kernel), so each stage is bounded by
//! `max(compute, bytes/bandwidth)`; the fused pipeline streams only the
//! matrix plaintexts.

use cham_bench::{eng, no_args, si};
use cham_sim::memory::DdrModel;
use cham_sim::pipeline::{HmvpCycleModel, RingShape};

fn main() {
    no_args("ablation_fused");
    let model = HmvpCycleModel::cham();
    let shape = RingShape::cham();
    let ddr = DdrModel::default();
    let clock = 300e6;
    let tn = shape.ntt_cycles(4) as f64 / clock; // one limb transform
    let poly_bytes = (shape.degree * 8) as f64;
    let bw = ddr.effective();

    println!("=== ablation: fused HMVP pipeline vs op-by-op invocation ===\n");
    println!(
        "{:>6} {:>6} {:>14} {:>14} {:>8}",
        "m", "n", "fused", "op-by-op", "penalty"
    );
    for (m, n) in [(1024usize, 4096usize), (4096, 4096), (8192, 4096)] {
        let fused = model.hmvp_seconds(m, n);
        // Op-by-op: per row, each stage reads and writes its operands
        // off-chip. Stage traffic (augmented ct = 6 polys, pt = 3 polys):
        //   NTT(pt): r/w 3+3; MULT: r 6+3 w 6; INTT: r/w 6+6;
        //   RESCALE: r 6 w 4;  per reduction: r/w ≈ 8+8 plus KSK 12.
        let la = shape.aug_limbs as f64;
        let row_io_polys = (3.0 + 3.0) + (6.0 + 3.0 + 6.0) + (6.0 + 6.0) + (6.0 + 4.0);
        let row_io = row_io_polys * poly_bytes / bw;
        let row_compute = (la + 2.0 * la) * tn / 6.0 // transforms on 6 units
            + 2.0 * la * poly_bytes / 8.0 / (4.0 * clock); // pointwise on 4 lanes
        let red_io = (8.0 + 8.0 + 12.0) * poly_bytes / bw;
        let red_compute = tn;
        let op_by_op = m as f64 * (row_io.max(row_compute) + row_io)
            + (m as f64 - 1.0) * (red_io.max(red_compute) + red_io);
        println!(
            "{:>6} {:>6} {:>14} {:>14} {:>7.1}x",
            m,
            n,
            eng(fused),
            eng(op_by_op),
            op_by_op / fused
        );
    }
    println!(
        "\n(effective DDR bandwidth {}B/s; one limb transform {} at 300 MHz)",
        si(bw),
        eng(tn)
    );
    println!("the fused pipeline's advantage is the paper's core §III-B design claim.");
}
