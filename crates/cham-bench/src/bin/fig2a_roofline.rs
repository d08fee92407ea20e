//! Fig. 2a — the roofline model on the Xilinx U200.
//!
//! Prints the roofline ceilings and the compute intensity / attainable
//! performance of standalone NTT, standalone key-switch, and the fused
//! HMVP, reproducing the figure's argument: individual HE operators are
//! memory-bound; the fused HMVP approaches the compute roof.

use cham_bench::{no_args, si};
use cham_sim::pipeline::RingShape;
use cham_sim::resources::FpgaDevice;
use cham_sim::roofline::{OpProfile, Roofline};

fn main() {
    no_args("fig2a_roofline");
    let device = FpgaDevice::u200();
    let roof = Roofline::new(device, 300e6);
    let shape = RingShape::cham();

    println!("=== Fig. 2a: roofline model (U200 @ 300 MHz) ===");
    println!(
        "compute roof: {}op/s   memory roof: {}B/s   ridge: {:.1} op/B",
        si(roof.peak_ops()),
        si(77e9),
        roof.ridge_intensity()
    );
    println!();
    println!(
        "{:<16} {:>12} {:>14} {:>10} {:>16} {:>12}",
        "operator", "ops", "bytes", "op/B", "attainable", "bound"
    );
    let mut profiles = vec![OpProfile::ntt(&shape), OpProfile::keyswitch(&shape)];
    for (m, n) in [
        (256usize, 4096usize),
        (1024, 4096),
        (4096, 4096),
        (8192, 4096),
    ] {
        profiles.push(OpProfile::hmvp(&shape, m, n));
    }
    for p in &profiles {
        println!(
            "{:<16} {:>12} {:>14} {:>10.2} {:>14}op/s {:>12}",
            p.name,
            p.ops,
            p.bytes,
            p.intensity(),
            si(roof.attainable_for(p)),
            if roof.memory_bound(p) {
                "memory"
            } else {
                "compute"
            }
        );
    }
    println!();
    println!("paper claim: \"the compute intensity of HE operations (e.g., NTT and");
    println!("key-switch) is much smaller than HMVP\" — reproduced above.");
}
