//! Accelerator configuration — the design-space axes of paper §III-B.
//!
//! A design point fixes: how many compute engines, how many NTT modules per
//! engine, the butterfly parallelism (`n_bf`, "PEs" in Fig. 2b), the number
//! of `PACKTWOLWES` units, the macro-pipeline split, and buffer sizing.
//! The paper's shipped configuration is
//! `(9 stages, 1×PACKTWOLWES, 6×NTT, 4-PE NTT, 2 engines)`; the second
//! Pareto point is `(9, 1, 6, 8-PE, 1 engine)`.

use crate::{Result, SimError};

/// Memory technology used for the twiddle-factor ROMs and NTT local buffer
/// (Table III rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RamStrategy {
    /// Twiddle ROM and local buffer in block RAM.
    #[default]
    BramOnly,
    /// Twiddle ROM in LUT-based distributed RAM, local buffer in BRAM.
    BramPlusDram,
    /// Everything in distributed RAM.
    DramOnly,
}

/// One compute-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Forward-NTT modules feeding the dot-product stage.
    pub ntt_units: usize,
    /// Inverse-NTT modules after the coefficient-wise multiply.
    pub intt_units: usize,
    /// Butterfly units per NTT module (`n_bf`, a power of two).
    pub bfus_per_ntt: usize,
    /// Coefficient-wise multiplier lanes (stage-2 `MULTPOLY`).
    pub mult_lanes: usize,
    /// Polynomial-processing-unit lanes (rescale/extract/mono/automorph).
    pub ppu_lanes: usize,
    /// `PACKTWOLWES` modules.
    pub pack_units: usize,
    /// Macro-pipeline stage count (the paper explores 5–11; 9 shipped).
    pub pipeline_stages: usize,
    /// Reduce-buffer capacity in ciphertexts (holds pending tree levels).
    pub reduce_buffer_cts: usize,
    /// RAM technology for NTT ROM/buffers.
    pub ram_strategy: RamStrategy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::cham()
    }
}

impl EngineConfig {
    /// The shipped CHAM engine: 6 NTT + 6 INTT modules with 4 BFUs each,
    /// 4 multiplier and 4 PPU lanes, one pack unit, 9 pipeline stages.
    pub fn cham() -> Self {
        Self {
            ntt_units: 6,
            intt_units: 6,
            bfus_per_ntt: 4,
            mult_lanes: 4,
            ppu_lanes: 4,
            pack_units: 1,
            pipeline_stages: 9,
            reduce_buffer_cts: 16,
            ram_strategy: RamStrategy::BramOnly,
        }
    }

    /// The alternative Pareto point: a single fat engine with 8-PE NTTs.
    pub fn cham_wide() -> Self {
        Self {
            bfus_per_ntt: 8,
            mult_lanes: 8,
            ppu_lanes: 8,
            ..Self::cham()
        }
    }

    /// Validates structural constraints.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] when any unit count is zero, `n_bf` is
    /// not a power of two, or `n_bf` exceeds the 8-bank RAM layout of the
    /// constant-geometry datapath (§IV-A.1).
    pub fn validate(&self) -> Result<()> {
        if self.ntt_units == 0
            || self.intt_units == 0
            || self.mult_lanes == 0
            || self.ppu_lanes == 0
            || self.pack_units == 0
            || self.pipeline_stages == 0
        {
            return Err(SimError::InvalidConfig("unit counts must be positive"));
        }
        if !self.bfus_per_ntt.is_power_of_two() {
            return Err(SimError::InvalidConfig(
                "bfus_per_ntt must be a power of two",
            ));
        }
        if self.bfus_per_ntt > 8 {
            return Err(SimError::InvalidConfig(
                "bfus_per_ntt cannot exceed the 8 round-robin RAM banks",
            ));
        }
        if self.reduce_buffer_cts < 2 {
            return Err(SimError::InvalidConfig(
                "reduce buffer must hold at least one pending pair",
            ));
        }
        Ok(())
    }
}

/// A full accelerator configuration: engines + clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChamConfig {
    /// Per-engine configuration (engines are homogeneous).
    pub engine: EngineConfig,
    /// Number of compute engines on the FPGA.
    pub engines: usize,
    /// Clock frequency in Hz (300 MHz shipped).
    pub clock_hz: f64,
}

impl Default for ChamConfig {
    fn default() -> Self {
        Self::cham()
    }
}

impl ChamConfig {
    /// The shipped CHAM configuration: 2 engines @ 300 MHz.
    pub fn cham() -> Self {
        Self {
            engine: EngineConfig::cham(),
            engines: 2,
            clock_hz: 300e6,
        }
    }

    /// The single-engine 8-PE Pareto alternative.
    pub fn cham_wide() -> Self {
        Self {
            engine: EngineConfig::cham_wide(),
            engines: 1,
            clock_hz: 300e6,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] for zero engines, a non-positive clock,
    /// or an invalid engine config.
    pub fn validate(&self) -> Result<()> {
        if self.engines == 0 {
            return Err(SimError::InvalidConfig("at least one engine required"));
        }
        if self.clock_hz <= 0.0 || self.clock_hz.is_nan() {
            return Err(SimError::InvalidConfig("clock must be positive"));
        }
        self.engine.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_configs_are_valid() {
        ChamConfig::cham().validate().unwrap();
        ChamConfig::cham_wide().validate().unwrap();
        assert_eq!(ChamConfig::cham().engines, 2);
        assert_eq!(ChamConfig::cham().engine.bfus_per_ntt, 4);
        assert_eq!(ChamConfig::cham_wide().engines, 1);
        assert_eq!(ChamConfig::cham_wide().engine.bfus_per_ntt, 8);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = EngineConfig::cham();
        c.ntt_units = 0;
        assert!(c.validate().is_err());
        let mut c = EngineConfig::cham();
        c.bfus_per_ntt = 3;
        assert!(c.validate().is_err());
        let mut c = EngineConfig::cham();
        c.bfus_per_ntt = 16;
        assert!(c.validate().is_err());
        let mut c = EngineConfig::cham();
        c.reduce_buffer_cts = 1;
        assert!(c.validate().is_err());
        let mut c = ChamConfig::cham();
        c.engines = 0;
        assert!(c.validate().is_err());
        let mut c = ChamConfig::cham();
        c.clock_hz = 0.0;
        assert!(c.validate().is_err());
    }
}
