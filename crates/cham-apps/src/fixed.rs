//! Fixed-point encoding between model-space `f64` and the plaintext ring.
//!
//! HeteroLR quantities (features, activations, gradients) are encoded as
//! `round(x · 2^frac_bits)` and carried through the homomorphic pipeline as
//! centred residues mod `t`. The encoder tracks the scale so chained
//! multiplications decode correctly, and validates that magnitudes stay
//! within `±t/2` (overflow would silently wrap — the failure mode the
//! validator exists to catch).

use crate::{AppError, Result};
use cham_math::Modulus;

/// A fixed-point codec for a plaintext modulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedCodec {
    t: Modulus,
    frac_bits: u32,
}

impl FixedCodec {
    /// Creates a codec with `frac_bits` fractional bits.
    ///
    /// # Errors
    /// [`AppError::InvalidConfig`] when the scale exceeds the modulus.
    pub fn new(t: Modulus, frac_bits: u32) -> Result<Self> {
        if frac_bits >= 63 || (1u64 << frac_bits) >= t.value() {
            return Err(AppError::InvalidConfig(
                "fixed-point scale must be far below the plaintext modulus",
            ));
        }
        Ok(Self { t, frac_bits })
    }

    /// The scale factor `2^frac_bits`.
    #[inline]
    pub fn scale(&self) -> i64 {
        1i64 << self.frac_bits
    }

    /// Fractional bits.
    #[inline]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The plaintext modulus.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.t
    }

    /// Encodes one value at the codec's scale.
    ///
    /// # Errors
    /// [`AppError::OutOfRange`] when `|x·2^f|` would exceed `t/2`.
    pub fn encode(&self, x: f64) -> Result<u64> {
        self.encode_scaled(x, 1)
    }

    /// Encodes at `scale_power` times the base scale (for quantities that
    /// carry an accumulated scale of `2^(f·scale_power)`).
    ///
    /// # Errors
    /// [`AppError::OutOfRange`] on overflow.
    pub fn encode_scaled(&self, x: f64, scale_power: u32) -> Result<u64> {
        let scaled = (x * (1i64 << (self.frac_bits * scale_power)) as f64).round();
        if !scaled.is_finite() || scaled.abs() >= (self.t.value() / 2) as f64 {
            return Err(AppError::OutOfRange("fixed-point overflow"));
        }
        Ok(self.t.from_signed(scaled as i64))
    }

    /// Decodes one residue at the base scale.
    pub fn decode(&self, v: u64) -> f64 {
        self.decode_scaled(v, 1)
    }

    /// Decodes a residue carrying `scale_power` accumulated scales.
    pub fn decode_scaled(&self, v: u64, scale_power: u32) -> f64 {
        let centred = self.t.center(self.t.reduce(v));
        centred as f64 / (1i64 << (self.frac_bits * scale_power)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> FixedCodec {
        FixedCodec::new(Modulus::new((1 << 23) + 1).unwrap(), 6).unwrap()
    }

    #[test]
    fn roundtrip_accuracy() {
        let c = codec();
        for x in [-3.25f64, 0.0, 0.015625, 1.0, 2.75, -0.5] {
            let v = c.encode(x).unwrap();
            let back = c.decode(v);
            assert!(
                (back - x).abs() <= 1.0 / c.scale() as f64,
                "x={x} back={back}"
            );
        }
    }

    #[test]
    fn scaled_products_decode() {
        // (a·2^f)·(b·2^f) decodes at scale_power 2.
        let c = codec();
        let (a, b) = (1.5f64, -2.25f64);
        let ea = c.encode(a).unwrap();
        let eb = c.encode(b).unwrap();
        let prod = c.modulus().mul(ea, eb);
        let back = c.decode_scaled(prod, 2);
        assert!((back - a * b).abs() < 0.05, "back={back}");
    }

    #[test]
    fn overflow_rejected() {
        let c = codec();
        assert!(c.encode(1e6).is_err());
        assert!(c.encode(f64::NAN).is_err());
        assert!(c.encode(f64::INFINITY).is_err());
    }

    #[test]
    fn validation() {
        let t = Modulus::new(65537).unwrap();
        assert!(FixedCodec::new(t, 17).is_err()); // 2^17 >= t
        assert!(FixedCodec::new(t, 8).is_ok());
    }

    #[test]
    fn vector_roundtrip() {
        let c = codec();
        let xs = [0.5, -1.25, 3.0];
        let enc: Vec<u64> = xs.iter().map(|&x| c.encode(x).unwrap()).collect();
        for (a, &v) in xs.iter().zip(&enc) {
            assert!((a - c.decode(v)).abs() < 0.02);
        }
    }
}
