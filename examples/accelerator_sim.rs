//! Drive the cycle-level CHAM model: the pipeline cycle breakdown of a
//! paper-scale HMVP, roofline placement, and the per-row pipeline
//! schedule exported as a Perfetto trace (paper §III). The model counts
//! cycles only; it runs no HE operation.
//!
//! ```sh
//! cargo run --release --example accelerator_sim [trace.json]
//! ```
//!
//! The optional argument names a Chrome Trace Event file to write
//! (default `cham_pipeline_trace.json`); open it in
//! <https://ui.perfetto.dev> to see the 9-stage pipeline schedule as a
//! Gantt timeline, one track per stage.

use cham::sim::config::ChamConfig;
use cham::sim::pipeline::{HmvpCycleModel, RingShape};
use cham::sim::resources::FpgaDevice;
use cham::sim::roofline::{OpProfile, Roofline};
use cham::sim::trace::PipelineTrace;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1) Paper-scale cycle breakdown.
    let model = HmvpCycleModel::new(ChamConfig::cham(), RingShape::cham())?;
    let report = model.hmvp_cycles(4096, 4096);
    println!("4096x4096 HMVP on the shipped config (2 engines @ 300 MHz):");
    println!("  total cycles      {:>12}", report.total_cycles);
    println!("  fwd-NTT busy      {:>12}", report.ntt_cycles);
    println!("  INTT busy         {:>12}", report.intt_cycles);
    println!("  MULTPOLY busy     {:>12}", report.mult_cycles);
    println!("  PPU busy          {:>12}", report.ppu_cycles);
    println!("  PACK busy         {:>12}", report.pack_cycles);
    println!(
        "  stalls/overhead   {:>12}",
        report.stall_cycles + report.overhead_cycles
    );
    println!(
        "  wall-clock        {:>11.2} ms",
        1e3 * report.seconds(300e6)
    );

    // 2) Roofline placement (Fig. 2a).
    let roof = Roofline::new(FpgaDevice::u200(), 300e6);
    let shape = RingShape::cham();
    for p in [
        OpProfile::ntt(&shape),
        OpProfile::keyswitch(&shape),
        OpProfile::hmvp(&shape, 4096, 4096),
    ] {
        println!(
            "roofline: {:<16} intensity {:>6.2} op/B -> {}",
            p.name,
            p.intensity(),
            if roof.memory_bound(&p) {
                "memory-bound"
            } else {
                "compute-bound"
            }
        );
    }

    // 3) Pipeline trace: the first rows flowing through the 9 stages.
    let trace = PipelineTrace::schedule(&ChamConfig::cham(), &RingShape::cham(), 12)?;
    println!("\npipeline schedule for 12 rows (one char = 6144 cycles):");
    print!("{}", trace.render(6144));
    println!(
        "makespan {} cycles, conflict-free: {}",
        trace.total_cycles,
        trace.is_conflict_free()
    );
    println!(
        "occupancy {:.1}% (pack stalls {} cycles waiting on the tree)",
        100.0 * trace.occupancy(),
        trace.stage_stall(cham::sim::trace::Stage::Pack)
    );
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "cham_pipeline_trace.json".to_string());
    trace.write_chrome_trace(&trace_path, 300e6)?;
    println!("wrote Perfetto trace to {trace_path} (open in ui.perfetto.dev)");
    Ok(())
}
