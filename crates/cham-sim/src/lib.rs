//! # cham-sim — cycle-level model of the CHAM FPGA accelerator
//!
//! The architectural half of the CHAM reproduction (DAC'23). The physical
//! Xilinx VU9P board is replaced by a calibrated model over `cham-math`
//! (see DESIGN.md, Substitutions): it counts cycles and resources and runs
//! no HE operation — the HMVP itself lives in `cham-he`.
//!
//! * [`config`] — the design-space axes (engines, NTT modules, butterfly
//!   PEs, pack units, pipeline split),
//! * [`resources`] — LUT/FF/BRAM/URAM/DSP cost model calibrated to the
//!   published Table II / Table III figures,
//! * [`ntt_unit`] — functional + cycle-exact model of the constant-
//!   geometry NTT datapath (8 RAM banks, BFUs, swap network, twiddle ROM
//!   columns),
//! * [`pipeline`] — the 9-stage macro-pipeline cycle model with
//!   reduce-buffer preemption,
//! * [`memory`] — the DDR traffic bound the pipeline model reads,
//! * [`trace`] — the per-row pipeline schedule the aggregate model is
//!   checked against (and its Perfetto export),
//! * [`golden`] — golden vectors for RTL bring-up,
//! * [`roofline`] — Fig. 2a's op-intensity analysis,
//! * [`dse`] — Fig. 2b's design-space exploration,
//! * [`sensitivity`] — clock / DDR / engine what-if sweeps,
//! * [`baselines`] — HEAX / F1 / GPU comparator models,
//! * [`report`] — Table II / Table III renderers.
//!
//! ## Example
//!
//! ```
//! use cham_sim::pipeline::HmvpCycleModel;
//! let model = HmvpCycleModel::cham();
//! // Paper §V-B.1: ≈195k NTT ops/s and ≈65k key-switch ops/s.
//! assert!((model.ntt_ops_per_sec() - 195_312.5).abs() < 1.0);
//! assert!((model.keyswitch_ops_per_sec() - 65_104.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]
pub mod baselines;
pub mod config;
pub mod dse;
pub mod golden;
pub mod memory;
pub mod ntt_unit;
pub mod pipeline;
pub mod report;
pub mod resources;
pub mod roofline;
pub mod sensitivity;
pub mod trace;

use std::error::Error;
use std::fmt;

/// Errors from the simulator.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration violates a structural constraint.
    InvalidConfig(&'static str),
    /// The modelled schedule would violate a hardware invariant.
    StructuralHazard(&'static str),
    /// Underlying arithmetic error.
    Math(cham_math::MathError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            SimError::StructuralHazard(m) => write!(f, "structural hazard: {m}"),
            SimError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cham_math::MathError> for SimError {
    fn from(e: cham_math::MathError) -> Self {
        SimError::Math(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
