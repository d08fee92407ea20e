//! Off-chip memory traffic model.
//!
//! The HMVP pipeline streams the matrix plaintexts from DDR continuously
//! (they are used once — this is what pushes standalone operators under
//! the memory roof in Fig. 2a). This module turns the device bandwidth
//! into a per-engine cycle bound that [`crate::pipeline::HmvpCycleModel`]
//! folds into its bottleneck computation, so bandwidth-starved design
//! points surface in the DSE rather than being silently over-credited.

use crate::pipeline::RingShape;

/// DDR subsystem model: aggregate bandwidth shared by the engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrModel {
    /// Aggregate sustained bandwidth in bytes/s (U200/VU9P: ≈77 GB/s).
    pub bytes_per_sec: f64,
    /// Access efficiency for the streaming pattern (long sequential
    /// bursts; 0.85 is typical for DDR4 row-major streams).
    pub efficiency: f64,
}

impl Default for DdrModel {
    fn default() -> Self {
        Self {
            bytes_per_sec: 77e9,
            efficiency: 0.85,
        }
    }
}

impl DdrModel {
    /// Effective bandwidth after access efficiency.
    pub fn effective(&self) -> f64 {
        self.bytes_per_sec * self.efficiency
    }

    /// Bytes streamed per matrix row: one augmented plaintext per column
    /// tile (the vector ciphertext and intermediates stay on chip).
    pub fn bytes_per_row(&self, shape: &RingShape, tiles: u64) -> u64 {
        tiles * shape.aug_limbs as u64 * shape.degree as u64 * 8
    }

    /// Cycle bound for streaming `rows` rows into one engine when the
    /// bandwidth is split across `engines`.
    pub fn stream_cycles(
        &self,
        shape: &RingShape,
        rows: u64,
        tiles: u64,
        engines: usize,
        clock_hz: f64,
    ) -> u64 {
        let bytes = rows * self.bytes_per_row(shape, tiles);
        let per_engine_bw = self.effective() / engines as f64;
        (bytes as f64 / per_engine_bw * clock_hz).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_row_matches_shape() {
        let ddr = DdrModel::default();
        let s = RingShape::cham();
        // 3 limbs × 4096 coeffs × 8 B = 98,304 B.
        assert_eq!(ddr.bytes_per_row(&s, 1), 98_304);
        assert_eq!(ddr.bytes_per_row(&s, 2), 196_608);
    }

    #[test]
    fn shipped_point_is_not_bandwidth_bound() {
        // Two engines at 48,828 rows/s each need 2 × 4.8 GB/s — far below
        // the 65 GB/s effective bandwidth: streaming cycles per row << the
        // 6144-cycle compute interval.
        let ddr = DdrModel::default();
        let s = RingShape::cham();
        let per_row = ddr.stream_cycles(&s, 1, 1, 2, 300e6);
        assert!(per_row < 2000, "stream cycles {per_row}");
    }

    #[test]
    fn stream_cycles_scale_linearly() {
        let ddr = DdrModel::default();
        let s = RingShape::cham();
        let one = ddr.stream_cycles(&s, 100, 1, 1, 300e6);
        let two = ddr.stream_cycles(&s, 200, 1, 1, 300e6);
        assert!((two as f64 / one as f64 - 2.0).abs() < 0.01);
        // More engines sharing the link slows each stream.
        let shared = ddr.stream_cycles(&s, 100, 1, 4, 300e6);
        assert!(shared > one);
    }

    #[test]
    fn starved_configuration_becomes_bound() {
        // A hypothetical 1 GB/s link cannot keep even one engine fed.
        let ddr = DdrModel {
            bytes_per_sec: 1e9,
            efficiency: 1.0,
        };
        let s = RingShape::cham();
        let per_row = ddr.stream_cycles(&s, 1, 1, 1, 300e6);
        assert!(per_row > 6144, "stream cycles {per_row}");
    }
}
