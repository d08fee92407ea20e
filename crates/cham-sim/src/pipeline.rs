//! Cycle model of the 9-stage macro-pipeline (paper §III-A, Fig. 1a).
//!
//! Each macro-stage processes a whole polynomial batch over thousands of
//! cycles; steady-state throughput is set by the most loaded resource
//! class. At the shipped design point every stage balances at 6144 cycles
//! per matrix row (the DSE balance rule `P_A = k·P_B`, §III-B):
//!
//! | stage | work per row | units | cycles |
//! |-------|--------------|-------|--------|
//! | 1 NTT | 3 plaintext limb transforms | 6 modules | 3·6144/6 ≈ half-loaded |
//! | 2 MULTPOLY | 6 polys × N muls | 4 lanes | 6·4096/4 = 6144 |
//! | 3 INTT | 6 limb transforms | 6 modules | 6144 |
//! | 4 RESCALE+EXTRACT | 6 polys × N ops | 4 lanes | 6144 |
//! | 5–9 PACKTWOLWES | 1 reduction | 1 unit | 6144 |
//!
//! Packing is a binary tree (m−1 reductions for m rows); its key-switch
//! NTTs run on the pack unit's own transform slots, and intermediate
//! reductions re-enter through the reduce buffer — when the buffer fills,
//! the front stages stall (modelled in the drain/stall terms).

use crate::config::ChamConfig;
use crate::memory::DdrModel;
use crate::{Result, SimError};

/// Ring/modulus shape constants for the cycle model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingShape {
    /// Ring degree `N`.
    pub degree: usize,
    /// Augmented limb count (ciphertext primes + special prime).
    pub aug_limbs: usize,
    /// Normal-basis limb count.
    pub ct_limbs: usize,
}

impl RingShape {
    /// The paper's shape: `N = 4096`, limbs `{q0, q1, p}`.
    pub const fn cham() -> Self {
        Self {
            degree: 4096,
            aug_limbs: 3,
            ct_limbs: 2,
        }
    }

    /// Cycles for one limb transform with `n_bf` butterflies.
    pub const fn ntt_cycles(&self, n_bf: usize) -> u64 {
        let log_n = (usize::BITS - self.degree.leading_zeros() - 1) as u64;
        ((self.degree / 2) as u64 * log_n) / n_bf as u64
    }
}

/// Cycle accounting for one HMVP execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleReport {
    /// End-to-end cycles (fill + steady state + drain).
    pub total_cycles: u64,
    /// Forward-NTT array busy cycles.
    pub ntt_cycles: u64,
    /// Inverse-NTT array busy cycles.
    pub intt_cycles: u64,
    /// MULTPOLY lane busy cycles.
    pub mult_cycles: u64,
    /// PPU lane busy cycles (rescale/extract).
    pub ppu_cycles: u64,
    /// PACKTWOLWES busy cycles.
    pub pack_cycles: u64,
    /// Cycles the front stages stall for reduce-buffer preemption.
    pub stall_cycles: u64,
    /// Pipeline fill + drain overhead.
    pub overhead_cycles: u64,
}

impl CycleReport {
    /// Wall-clock seconds at the configured frequency.
    pub fn seconds(&self, clock_hz: f64) -> f64 {
        self.total_cycles as f64 / clock_hz
    }
}

/// The HMVP cycle model for a full accelerator configuration.
#[derive(Debug, Clone)]
pub struct HmvpCycleModel {
    config: ChamConfig,
    shape: RingShape,
    ddr: DdrModel,
}

impl HmvpCycleModel {
    /// Builds the model.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] on invalid configurations or degenerate
    /// shapes.
    pub fn new(config: ChamConfig, shape: RingShape) -> Result<Self> {
        config.validate()?;
        if !shape.degree.is_power_of_two()
            || shape.aug_limbs <= shape.ct_limbs
            || shape.ct_limbs == 0
        {
            return Err(SimError::InvalidConfig("invalid ring shape"));
        }
        Ok(Self {
            config,
            shape,
            ddr: DdrModel::default(),
        })
    }

    /// Replaces the DDR model (e.g. to study bandwidth-starved designs).
    pub fn with_ddr(mut self, ddr: DdrModel) -> Self {
        self.ddr = ddr;
        self
    }

    /// The default paper model: shipped config, paper shape.
    pub fn cham() -> Self {
        Self::new(ChamConfig::cham(), RingShape::cham()).expect("shipped config is valid")
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &ChamConfig {
        &self.config
    }

    /// Cycles for a single-engine slice of an HMVP covering `rows` rows of
    /// an `n_cols`-column matrix.
    pub fn engine_cycles(&self, rows: usize, n_cols: usize) -> CycleReport {
        let e = &self.config.engine;
        let n = self.shape.degree as u64;
        let la = self.shape.aug_limbs as u64; // 3
        let tiles = n_cols.div_ceil(self.shape.degree) as u64;
        let m = rows as u64;
        let tn = self.shape.ntt_cycles(e.bfus_per_ntt);

        // Stage 1: plaintext limb transforms (one augmented plaintext = la
        // limbs) per row and tile, plus the one-time ciphertext transform
        // (2·la limbs per tile).
        let fwd_execs = la * m * tiles + 2 * la * tiles;
        let ntt_cycles = fwd_execs * tn / e.ntt_units as u64;
        // Stage 3: inverse transform of the accumulated product (2·la
        // limbs per row).
        let inv_execs = 2 * la * m;
        let intt_cycles = inv_execs * tn / e.intt_units as u64;
        // Stage 2: coefficient-wise multiply-accumulate, 2·la polys per row
        // and tile, plus the cross-tile aggregation passes when a row
        // spans multiple ciphertexts ("a row, residing in multiple
        // ciphertexts, needs to be aggregated", §V-B.2 — the Fig. 6
        // degradation for n ≥ m).
        let aggregation = (tiles - 1) * 2 * la * n * m;
        let mult_cycles = (2 * la * n * m * tiles + aggregation) / e.mult_lanes as u64;
        // Stage 4: rescale (reads 2·la limbs, writes 2·lc) + extract, one
        // coefficient-wise pass over 2·la polys per row.
        let ppu_cycles = 2 * la * n * m / e.ppu_lanes as u64;
        // Stages 5–9: one reduction per packed pair; each reduction's
        // internal stages (mono/add/sub, automorph, digit NTT, MAC,
        // rescale) are balanced to one transform time.
        let reductions = m.saturating_sub(1);
        let pack_ii = tn / e.pack_units as u64;
        let pack_cycles = reductions * pack_ii;

        // Off-chip streaming bound: the matrix plaintexts must arrive from
        // DDR, with the link shared by all engines.
        let mem_cycles = self.ddr.stream_cycles(
            &self.shape,
            m,
            tiles,
            self.config.engines,
            self.config.clock_hz,
        );
        let steady = ntt_cycles
            .max(intt_cycles)
            .max(mult_cycles)
            .max(ppu_cycles)
            .max(pack_cycles)
            .max(mem_cycles);
        // Reduce-buffer preemption: tree levels deeper than the buffer
        // capacity force the front stages to stall for one pack interval
        // per overflowing level.
        let levels = (64 - m.max(1).leading_zeros()) as u64;
        let buffered = (e.reduce_buffer_cts as u64).ilog2() as u64;
        let stall_cycles = levels.saturating_sub(buffered) * pack_ii;
        // Fill + drain: one interval per macro-stage plus the tail of the
        // pack tree.
        let overhead_cycles = e.pipeline_stages as u64 * tn + levels * pack_ii;
        CycleReport {
            total_cycles: steady + stall_cycles + overhead_cycles,
            ntt_cycles,
            intt_cycles,
            mult_cycles,
            ppu_cycles,
            pack_cycles,
            stall_cycles,
            overhead_cycles,
        }
    }

    /// Cycles for a full HMVP: rows are split across engines (the engines
    /// work on disjoint row blocks; the makespan is the largest block).
    pub fn hmvp_cycles(&self, rows: usize, n_cols: usize) -> CycleReport {
        let per_engine = rows.div_ceil(self.config.engines);
        self.engine_cycles(per_engine, n_cols)
    }

    /// Wall-clock seconds for one HMVP.
    pub fn hmvp_seconds(&self, rows: usize, n_cols: usize) -> f64 {
        self.hmvp_cycles(rows, n_cols).seconds(self.config.clock_hz)
    }

    /// HMVP throughput in MAC/s (the `m·n` multiply-accumulates of the
    /// plaintext computation per second) — the Fig. 6 metric.
    pub fn hmvp_throughput_macs(&self, rows: usize, n_cols: usize) -> f64 {
        (rows as f64 * n_cols as f64) / self.hmvp_seconds(rows, n_cols)
    }

    /// Raw limb-transform slots per second across the forward-NTT arrays.
    pub fn transform_slots_per_sec(&self) -> f64 {
        let e = &self.config.engine;
        let tn = self.shape.ntt_cycles(e.bfus_per_ntt) as f64;
        self.config.engines as f64 * e.ntt_units as f64 * self.config.clock_hz / tn
    }

    /// "NTT ops/sec" in the paper's accounting: one op = one augmented
    /// plaintext transform (3 limb transforms). The shipped config yields
    /// ≈195k (paper §V-B.1).
    pub fn ntt_ops_per_sec(&self) -> f64 {
        self.transform_slots_per_sec() / self.shape.aug_limbs as f64
    }

    /// Key-switch throughput at `3·aug_limbs` = 9 forward-array slots per
    /// key-switch. The 9 calibrates the paper's 195k / 65k ratio (≈65k
    /// ops/s); it is not a transform count, since
    /// [`Self::transform_slots_per_sec`] counts forward arrays only. A
    /// software key-switch runs 12 limb transforms — 6 forward over the
    /// digits, 6 inverse over the `(b, a)` correction. Inside a pack,
    /// whose `b` half stays in NTT form, a merge runs 9 (only the `a`
    /// correction comes back) plus 3 once at the pack's root, which
    /// `cham-he/tests/op_counts.rs` pins.
    pub fn keyswitch_ops_per_sec(&self) -> f64 {
        self.transform_slots_per_sec() / (3.0 * self.shape.aug_limbs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;

    #[test]
    fn ring_shape_cycles() {
        let s = RingShape::cham();
        assert_eq!(s.ntt_cycles(4), 6144);
        assert_eq!(s.ntt_cycles(8), 3072);
    }

    #[test]
    fn paper_throughput_claims() {
        let m = HmvpCycleModel::cham();
        // 12 forward modules × 300 MHz / 6144 = 585,937 slots/s.
        let slots = m.transform_slots_per_sec();
        assert!((slots - 585_937.5).abs() < 1.0, "slots {slots}");
        // Paper: 195k NTT ops/s.
        let ntt = m.ntt_ops_per_sec();
        assert!((ntt - 195_312.5).abs() < 1.0, "ntt {ntt}");
        // Paper: 65k key-switch ops/s.
        let ks = m.keyswitch_ops_per_sec();
        assert!((ks - 65_104.0).abs() < 1.0, "ks {ks}");
    }

    #[test]
    fn stages_balance_at_shipped_point() {
        let m = HmvpCycleModel::cham();
        let r = m.engine_cycles(1024, 4096);
        // INTT, MULT, PPU, PACK all ≈ 6144 per row; forward NTT half-loaded.
        assert_eq!(r.intt_cycles, 6144 * 1024);
        assert_eq!(r.mult_cycles, 6144 * 1024);
        assert_eq!(r.ppu_cycles, 6144 * 1024);
        assert_eq!(r.pack_cycles, 6144 * 1023);
        assert!(r.ntt_cycles < r.intt_cycles);
    }

    #[test]
    fn throughput_grows_with_rows_then_saturates() {
        let m = HmvpCycleModel::cham();
        let t64 = m.hmvp_throughput_macs(64, 4096);
        let t1024 = m.hmvp_throughput_macs(1024, 4096);
        let t8192 = m.hmvp_throughput_macs(8192, 4096);
        assert!(t1024 > t64, "amortization should help: {t64} vs {t1024}");
        // Near saturation the gain flattens.
        let gain_hi = t8192 / t1024;
        assert!(gain_hi < 1.3, "gain {gain_hi}");
    }

    #[test]
    fn wide_columns_degrade_per_row_latency() {
        let m = HmvpCycleModel::cham();
        let narrow = m.hmvp_cycles(1024, 4096).total_cycles;
        let wide = m.hmvp_cycles(1024, 8192).total_cycles;
        assert!(wide > narrow);
    }

    #[test]
    fn two_engines_roughly_halve_time() {
        let one = HmvpCycleModel::new(
            ChamConfig {
                engines: 1,
                ..ChamConfig::cham()
            },
            RingShape::cham(),
        )
        .unwrap();
        let two = HmvpCycleModel::cham();
        let t1 = one.hmvp_seconds(4096, 4096);
        let t2 = two.hmvp_seconds(4096, 4096);
        let ratio = t1 / t2;
        assert!(ratio > 1.8 && ratio < 2.05, "ratio {ratio}");
    }

    #[test]
    fn pareto_points_perform_similarly() {
        // The paper's two optimal points should land within ~25% of each
        // other on throughput.
        let a = HmvpCycleModel::cham();
        let b = HmvpCycleModel::new(ChamConfig::cham_wide(), RingShape::cham()).unwrap();
        let ta = a.hmvp_throughput_macs(4096, 4096);
        let tb = b.hmvp_throughput_macs(4096, 4096);
        let ratio = ta / tb;
        assert!(ratio > 0.75 && ratio < 1.35, "ratio {ratio}");
    }

    #[test]
    fn invalid_shape_rejected() {
        let bad = RingShape {
            degree: 1000,
            aug_limbs: 3,
            ct_limbs: 2,
        };
        assert!(HmvpCycleModel::new(ChamConfig::cham(), bad).is_err());
        let bad2 = RingShape {
            degree: 4096,
            aug_limbs: 2,
            ct_limbs: 2,
        };
        assert!(HmvpCycleModel::new(ChamConfig::cham(), bad2).is_err());
    }

    #[test]
    fn stalls_appear_for_deep_trees_with_small_buffers() {
        let cfg = ChamConfig {
            engine: EngineConfig {
                reduce_buffer_cts: 2,
                ..EngineConfig::cham()
            },
            ..ChamConfig::cham()
        };
        let m = HmvpCycleModel::new(cfg, RingShape::cham()).unwrap();
        let r = m.engine_cycles(4096, 4096);
        assert!(r.stall_cycles > 0);
        let big_buf = HmvpCycleModel::cham().engine_cycles(4096, 4096);
        assert!(big_buf.stall_cycles < r.stall_cycles);
    }
}
