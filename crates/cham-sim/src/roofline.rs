//! Roofline model (paper Fig. 2a).
//!
//! An *operation* is one 27×18 integer multiply — exactly one DSP slice per
//! cycle (the paper's convention). The device ceiling is
//! `DSP count × f_clk`; the memory ceiling is `bandwidth × intensity`.
//! The figure's point: individual HE operators (NTT, key-switch) have low
//! compute intensity and sit under the memory roof, while the fused HMVP
//! keeps the matrix streaming against on-chip reuse of the vector
//! ciphertext and climbs toward the compute roof — the argument for
//! accelerating HMVP *as a whole* (§III-B).

use crate::pipeline::RingShape;
use crate::resources::FpgaDevice;

/// DSP-operations per 34/38-bit modular multiply (2×2 tiles of 27×18).
pub const OPS_PER_MODMUL: u64 = 4;

/// An operator characterised by its op count and off-chip traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Operator name (plot label).
    pub name: String,
    /// 27×18 multiply count.
    pub ops: u64,
    /// Off-chip bytes moved (reads + writes).
    pub bytes: u64,
}

impl OpProfile {
    /// Compute intensity in ops/byte.
    pub fn intensity(&self) -> f64 {
        self.ops as f64 / self.bytes as f64
    }

    /// One limb NTT invoked standalone: `N/2·log2 N` butterflies, one
    /// modmul each; the polynomial is read and written off-chip.
    pub fn ntt(shape: &RingShape) -> Self {
        let n = shape.degree as u64;
        let log_n = shape.degree.trailing_zeros() as u64;
        Self {
            name: "NTT".into(),
            ops: (n / 2) * log_n * OPS_PER_MODMUL,
            bytes: 2 * n * 8,
        }
    }

    /// One key-switch invoked standalone: the model's 9 calibrated
    /// transform slots (see `HmvpCycleModel::keyswitch_ops_per_sec`) plus
    /// the MAC, but the key-switch key (2 digits × 2 polys × `aug` limbs) must
    /// stream from off-chip every time.
    pub fn keyswitch(shape: &RingShape) -> Self {
        let n = shape.degree as u64;
        let log_n = shape.degree.trailing_zeros() as u64;
        let la = shape.aug_limbs as u64;
        let transforms = 3 * la; // calibrated slots, not a transform count
        let ops = transforms * (n / 2) * log_n * OPS_PER_MODMUL + 4 * la * n * OPS_PER_MODMUL;
        // ct in/out (2·lc polys each way) + KSK stream (2 digits × 2 polys
        // × la limbs).
        let lc = shape.ct_limbs as u64;
        let bytes = (2 * lc * 2 + 2 * 2 * la) * n * 8;
        Self {
            name: "KeySwitch".into(),
            ops,
            bytes,
        }
    }

    /// A fused `m × n` HMVP: the vector ciphertext and all intermediates
    /// stay on chip; only the matrix plaintexts stream in and one packed
    /// ciphertext leaves.
    pub fn hmvp(shape: &RingShape, rows: usize, cols: usize) -> Self {
        let n = shape.degree as u64;
        let log_n = shape.degree.trailing_zeros() as u64;
        let la = shape.aug_limbs as u64;
        let lc = shape.ct_limbs as u64;
        let m = rows as u64;
        let tiles = cols.div_ceil(shape.degree) as u64;
        let transform = (n / 2) * log_n * OPS_PER_MODMUL;
        // Per row: la plaintext NTTs per tile + 2·la inverse + pack's
        // 3·la transforms per reduction; plus the pointwise MACs.
        let ops = m * tiles * la * transform
            + m * 2 * la * transform
            + m.saturating_sub(1) * 3 * la * transform
            + m * tiles * 2 * la * n * OPS_PER_MODMUL
            + m.saturating_sub(1) * 4 * la * n * OPS_PER_MODMUL;
        // Traffic: matrix plaintexts (m·tiles·la limbs — coefficient form,
        // one limb is enough since |A| < t; we charge la for the lifted
        // form the hardware streams), vector ciphertext in, one packed
        // ciphertext out.
        let bytes = (m * tiles * la + tiles * 2 * la + 2 * lc) * n * 8;
        Self {
            name: format!("HMVP {rows}x{cols}"),
            ops,
            bytes,
        }
    }
}

/// The roofline for a device at a clock frequency.
#[derive(Debug, Clone)]
pub struct Roofline {
    device: FpgaDevice,
    clock_hz: f64,
}

impl Roofline {
    /// Creates the roofline.
    pub fn new(device: FpgaDevice, clock_hz: f64) -> Self {
        Self { device, clock_hz }
    }

    /// The compute ceiling in ops/s.
    pub fn peak_ops(&self) -> f64 {
        self.device.peak_ops_per_sec(self.clock_hz)
    }

    /// The ridge point (ops/byte where the roofs meet).
    pub fn ridge_intensity(&self) -> f64 {
        self.peak_ops() / self.device.mem_bandwidth
    }

    /// Attainable performance at a given compute intensity.
    pub fn attainable(&self, intensity: f64) -> f64 {
        (self.device.mem_bandwidth * intensity).min(self.peak_ops())
    }

    /// Attainable performance for a profiled operator.
    pub fn attainable_for(&self, p: &OpProfile) -> f64 {
        self.attainable(p.intensity())
    }

    /// Whether an operator is memory-bound on this device.
    pub fn memory_bound(&self, p: &OpProfile) -> bool {
        p.intensity() < self.ridge_intensity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roofline() -> Roofline {
        Roofline::new(FpgaDevice::u200(), 300e6)
    }

    #[test]
    fn ridge_point() {
        let r = roofline();
        let ridge = r.ridge_intensity();
        // 2.052e12 / 77e9 ≈ 26.6 ops/byte.
        assert!((ridge - 26.65).abs() < 0.1, "ridge {ridge}");
    }

    #[test]
    fn hmvp_intensity_exceeds_individual_ops() {
        // The Fig. 2a claim: HMVP has much higher compute intensity than
        // NTT or key-switch invoked individually.
        let s = RingShape::cham();
        let ntt = OpProfile::ntt(&s);
        let ks = OpProfile::keyswitch(&s);
        let hmvp = OpProfile::hmvp(&s, 4096, 4096);
        assert!(hmvp.intensity() > 5.0 * ntt.intensity());
        assert!(hmvp.intensity() > 5.0 * ks.intensity());
    }

    #[test]
    fn ntt_and_keyswitch_are_memory_bound() {
        let r = roofline();
        let s = RingShape::cham();
        assert!(r.memory_bound(&OpProfile::ntt(&s)));
        assert!(r.memory_bound(&OpProfile::keyswitch(&s)));
    }

    #[test]
    fn attainable_clamps_to_peak() {
        let r = roofline();
        assert_eq!(r.attainable(1e9), r.peak_ops());
        assert!(r.attainable(1.0) < r.peak_ops());
        assert!((r.attainable(1.0) - 77e9).abs() < 1.0);
    }

    #[test]
    fn larger_matrices_increase_intensity() {
        let s = RingShape::cham();
        let small = OpProfile::hmvp(&s, 64, 4096);
        let big = OpProfile::hmvp(&s, 8192, 4096);
        assert!(big.intensity() >= small.intensity() * 0.9);
        // Both well above standalone NTT.
        assert!(small.intensity() > OpProfile::ntt(&s).intensity());
    }
}
