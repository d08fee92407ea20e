//! Fig. 2b — design-space exploration.
//!
//! Sweeps pipeline split × engines × NTT modules × butterfly PEs × pack
//! units, prints every point's (throughput, utilisation), the Pareto
//! frontier, and checks that the paper's two chosen points are on or near
//! it.

use cham_bench::{no_args, si};
use cham_sim::config::ChamConfig;
use cham_sim::dse::DesignSpace;

fn main() {
    no_args("fig2b_dse");
    let ds = DesignSpace::default();
    let points = ds.explore().expect("grid evaluates");
    println!("=== Fig. 2b: design-space exploration (VU9P, HMVP 4096x4096) ===");
    println!(
        "{} candidate points, feasibility ceiling 75% utilisation",
        points.len()
    );
    println!();

    let pareto = DesignSpace::pareto(&points);
    println!("Pareto frontier ({} points):", pareto.len());
    println!(
        "{:<22} {:>16} {:>12}",
        "design", "throughput", "utilisation"
    );
    let mut sorted = pareto.clone();
    sorted.sort_by(|a, b| b.throughput.total_cmp(&a.throughput));
    for p in &sorted {
        println!(
            "{:<22} {:>14}MAC/s {:>11.1}%",
            p.label(),
            si(p.throughput),
            p.utilization * 100.0
        );
    }
    println!();

    let shipped = ds.evaluate(ChamConfig::cham()).expect("valid");
    let wide = ds.evaluate(ChamConfig::cham_wide()).expect("valid");
    println!("paper's chosen points:");
    for p in [&shipped, &wide] {
        println!(
            "  {:<22} {:>14}MAC/s {:>11.1}%  feasible={}",
            p.label(),
            si(p.throughput),
            p.utilization * 100.0,
            p.feasible
        );
    }
    let best = DesignSpace::best(&points).expect("non-empty");
    println!(
        "\ngrid optimum: {} at {}MAC/s — shipped point reaches {:.0}% of it",
        best.label(),
        si(best.throughput),
        100.0 * shipped.throughput / best.throughput
    );
    let infeasible = points.iter().filter(|p| !p.feasible).count();
    println!(
        "{infeasible} of {} candidates exceed the device budget",
        points.len()
    );
}
