//! Word-sized modular arithmetic.
//!
//! Two reduction strategies coexist, mirroring the paper's design space:
//!
//! * **Barrett reduction** with a 128-bit precomputed ratio — the generic
//!   software path used for speed on CPUs,
//! * **shift-add reduction** for *hardware-friendly* moduli of the form
//!   `2^a + 2^b + 1` (Hamming weight 3) — the reduction CHAM implements in
//!   FPGA logic (paper §IV-A.3). On hardware a multiplication by such a
//!   modulus costs three shifted additions; here we model the equivalent
//!   fold-based reduction and prove it equal to Barrett in tests.
//!
//! The CHAM parameter set uses
//! `(q0, q1, p) = (2^34 + 2^27 + 1, 2^34 + 2^19 + 1, 2^38 + 2^23 + 1)`,
//! all prime and all `≡ 1 (mod 2^13)`, hence NTT-friendly for `N = 4096`.

use crate::{MathError, Result};
use cham_telemetry::Counter;

/// Deferred-reduction flushes. A *flush* is one canonical-reduction pass
/// over one limb of a lazy `u128` accumulator — see
/// [`crate::rns::FusedAccumulator::flush`].
static LAZY_FLUSH: Counter = Counter::new("cham_math.modulus.reduce.lazy_flush");

/// Number of deferred-reduction flushes performed by lazy accumulation
/// kernels since process start (the `cham_math.modulus.reduce.lazy_flush`
/// counter).
pub fn lazy_flush_count() -> u64 {
    LAZY_FLUSH.get()
}

/// Records one deferred-reduction flush pass.
#[inline]
pub(crate) fn record_lazy_flush() {
    LAZY_FLUSH.add(1);
}

/// CHAM ciphertext modulus `q0 = 2^34 + 2^27 + 1`.
pub const Q0: u64 = (1 << 34) + (1 << 27) + 1;
/// CHAM ciphertext modulus `q1 = 2^34 + 2^19 + 1`.
pub const Q1: u64 = (1 << 34) + (1 << 19) + 1;
/// CHAM special (key-switching) modulus `p = 2^38 + 2^23 + 1`.
pub const SPECIAL_P: u64 = (1 << 38) + (1 << 23) + 1;

/// Decomposition of a Hamming-weight-3 modulus `q = 2^a + 2^b + 1` with
/// `a > b > 0`, as exploited by the CHAM modular-reduction units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LowHammingForm {
    /// Exponent of the leading term.
    pub a: u32,
    /// Exponent of the middle term.
    pub b: u32,
}

/// A prime (or at least odd) modulus `q < 2^62` with precomputed reduction
/// constants.
///
/// The type is `Copy` and cheap to pass by value; all arithmetic helpers
/// keep operands in canonical form `[0, q)`.
///
/// # Example
/// ```
/// use cham_math::modulus::{Modulus, Q0};
/// let q = Modulus::new(Q0)?;
/// assert_eq!(q.mul(Q0 - 1, Q0 - 1), 1); // (-1)^2 = 1
/// # Ok::<(), cham_math::MathError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Modulus {
    value: u64,
    /// floor(2^128 / value), as (low, high) words — Barrett ratio.
    ratio: (u64, u64),
    /// Set when the modulus has the `2^a + 2^b + 1` shape.
    low_hamming: Option<LowHammingForm>,
    bits: u32,
}

impl PartialEq for Modulus {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}
impl Eq for Modulus {}

impl std::hash::Hash for Modulus {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.value.hash(state);
    }
}

impl std::fmt::Display for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value)
    }
}

impl Modulus {
    /// Creates a modulus with precomputed Barrett constants.
    ///
    /// # Errors
    /// Returns [`MathError::InvalidModulus`] if `value < 2` or
    /// `value >= 2^62` (the headroom bound that keeps `2q` sums and lazy
    /// values inside `u64`).
    pub fn new(value: u64) -> Result<Self> {
        if !(2..(1 << 62)).contains(&value) {
            return Err(MathError::InvalidModulus(value));
        }
        // floor((2^128 - 1) / q) == floor(2^128 / q) for any q that does not
        // divide 2^128; all odd q > 1 qualify, and even q only matter for
        // test scaffolding where the off-by-one cannot trigger because the
        // Barrett estimate is conservative by design.
        let ratio128 = u128::MAX / value as u128;
        let ratio = (ratio128 as u64, (ratio128 >> 64) as u64);
        // Belt-and-braces twin of the range check above: the whole lazy
        // datapath (scalar and SIMD) relies on 4q − 1 fitting in u64, i.e.
        // q < 2^62. The `if` rejects violations in release builds; this
        // assert documents the invariant at the single point it is
        // established.
        debug_assert!(
            value.checked_mul(4).is_some(),
            "lazy headroom requires q < 2^62"
        );
        Ok(Self {
            value,
            ratio,
            low_hamming: Self::detect_low_hamming(value),
            bits: 64 - value.leading_zeros(),
        })
    }

    fn detect_low_hamming(value: u64) -> Option<LowHammingForm> {
        if value.count_ones() != 3 || value & 1 == 0 {
            return None;
        }
        let rest = value - 1;
        let b = rest.trailing_zeros();
        let a = 63 - rest.leading_zeros();
        if a > b && (1u64 << a) + (1u64 << b) + 1 == value {
            Some(LowHammingForm { a, b })
        } else {
            None
        }
    }

    /// The modulus value.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.value
    }

    /// Bit width of the modulus.
    #[inline]
    pub const fn bits(&self) -> u32 {
        self.bits
    }

    /// Returns the `2^a + 2^b + 1` decomposition when the modulus is
    /// hardware friendly in the CHAM sense, and `None` otherwise.
    #[inline]
    pub const fn low_hamming_form(&self) -> Option<LowHammingForm> {
        self.low_hamming
    }

    /// Reduces an arbitrary `u64` to canonical form.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        self.reduce_u128(x as u128)
    }

    /// Barrett reduction of a 128-bit value to `[0, q)`.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        let (xlo, xhi) = (x as u64, (x >> 64) as u64);
        let (rlo, rhi) = self.ratio;
        // Estimate the quotient: high 128 bits of x * ratio / 2^128.
        let t1 = ((xlo as u128 * rlo as u128) >> 64) as u64;
        let t2 = xlo as u128 * rhi as u128;
        let t3 = xhi as u128 * rlo as u128;
        let mid = t1 as u128 + (t2 as u64) as u128 + (t3 as u64) as u128;
        let carry = (mid >> 64) as u64;
        let quot = (xhi as u128 * rhi as u128)
            .wrapping_add(t2 >> 64)
            .wrapping_add(t3 >> 64)
            .wrapping_add(carry as u128) as u64;
        let r = xlo.wrapping_sub(quot.wrapping_mul(self.value));
        // The estimate is off by at most 2; fold back into range.
        let mut r = r;
        while r >= self.value {
            r = r.wrapping_sub(self.value);
        }
        r
    }

    /// Shift-add reduction of a 128-bit value for low-Hamming moduli.
    ///
    /// Uses the congruence `2^a ≡ -(2^b + 1) (mod q)` to fold the high part
    /// repeatedly — the datapath a CHAM reduction unit implements with three
    /// shifted adders per fold.
    ///
    /// # Panics
    /// Panics if the modulus is not of the `2^a + 2^b + 1` form; callers
    /// should check [`Modulus::low_hamming_form`] first (the public entry
    /// point [`Modulus::reduce_u128`] never panics).
    pub fn reduce_u128_shift_add(&self, x: u128) -> u64 {
        let form = self
            .low_hamming
            .expect("shift-add reduction requires a 2^a + 2^b + 1 modulus");
        let (a, b) = (form.a, form.b);
        // First fold in unsigned space (x may exceed i128::MAX):
        //   x = hi*2^a + lo  ≡  lo - hi*(2^b + 1)   (mod q).
        let hi = x >> a;
        let lo = x & ((1u128 << a) - 1);
        let mut v = lo as i128 - ((hi << b) + hi) as i128;
        // Subsequent folds in signed space; each fold scales the magnitude
        // by ~2^(b+1-a) < 1, so the loop terminates quickly.
        let bound = 1i128 << a;
        while v >= bound || v <= -bound {
            let hi = v >> a; // arithmetic shift == floor division by 2^a
            let lo = v - (hi << a); // in [0, 2^a)
            v = lo - ((hi << b) + hi);
        }
        let q = self.value as i128;
        let mut r = v % q;
        if r < 0 {
            r += q;
        }
        r as u64
    }

    /// `a + b mod q` for canonical operands.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// `a - b mod q` for canonical operands.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// `-a mod q` for a canonical operand.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// `a * b mod q` via Barrett reduction.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Twice the modulus — the lazy-domain correction constant. Fits in
    /// `u64` because `q < 2^62`.
    #[inline]
    pub const fn two_q(&self) -> u64 {
        self.value << 1
    }

    /// Shoup multiplication without the final conditional subtraction:
    /// result in `[0, 2q)`, congruent to `a·w mod q`.
    ///
    /// **Lazy-range contract**: valid for **any** `u64` operand `a` (in
    /// particular lazy `[0, 4q)` values) and a *canonical* constant
    /// `w < q` with `w_shoup = self.shoup(w)` — the quotient estimate
    /// `⌊a·w_shoup/2^64⌋` is off by at most one, so the remainder stays
    /// below `2q`. The `q < 2^62` headroom this relies on is a `Modulus`
    /// construction invariant (asserted in [`Modulus::new`]), **not** a
    /// per-call precondition; the only per-call obligation is `w < q`,
    /// checked here in debug builds. The SIMD twins in [`crate::simd`]
    /// implement exactly this contract lane-for-lane.
    #[inline]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(w < self.value, "mul_shoup_lazy requires canonical w < q");
        let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(self.value))
    }

    /// Finishes a lazy value: maps `x ∈ [0, 4q)` to canonical `[0, q)`
    /// with two conditional subtractions (the single normalization pass at
    /// the end of a lazy NTT).
    #[inline]
    pub fn reduce_from_lazy(&self, x: u64) -> u64 {
        debug_assert!(x < 2 * self.two_q());
        let mut r = x;
        if r >= self.two_q() {
            r -= self.two_q();
        }
        if r >= self.value {
            r -= self.value;
        }
        r
    }

    /// `a * b mod q` via the hardware shift-add path when available, else
    /// Barrett. Exposed so benches can compare the two (DESIGN.md ablation).
    #[inline]
    pub fn mul_shift_add(&self, a: u64, b: u64) -> u64 {
        if self.low_hamming.is_some() {
            self.reduce_u128_shift_add(a as u128 * b as u128)
        } else {
            self.mul(a, b)
        }
    }

    /// Precomputes the Shoup companion word `floor(w * 2^64 / q)` for a
    /// constant multiplicand `w`, enabling [`Modulus::mul_shoup`].
    #[inline]
    pub fn shoup(&self, w: u64) -> u64 {
        debug_assert!(w < self.value);
        (((w as u128) << 64) / self.value as u128) as u64
    }

    /// `a * w mod q` where `w_shoup = self.shoup(w)` — one multiplication
    /// high-half plus one low multiply, the butterfly-friendly form used by
    /// both NTT implementations.
    #[inline]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
        let r = a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(self.value));
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// `base^exp mod q` by square-and-multiply.
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.reduce(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse of `a`.
    ///
    /// # Errors
    /// Returns [`MathError::NotInvertible`] when `gcd(a, q) != 1`.
    pub fn inv(&self, a: u64) -> Result<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return Err(MathError::NotInvertible(0));
        }
        // Extended Euclid keeps this correct for non-prime moduli too
        // (needed by test scaffolding).
        let (mut r0, mut r1) = (self.value as i128, a as i128);
        let (mut t0, mut t1) = (0i128, 1i128);
        while r1 != 0 {
            let q = r0 / r1;
            (r0, r1) = (r1, r0 - q * r1);
            (t0, t1) = (t1, t0 - q * t1);
        }
        if r0 != 1 {
            return Err(MathError::NotInvertible(a));
        }
        let q = self.value as i128;
        Ok(((t0 % q + q) % q) as u64)
    }

    /// Lifts `x` to the centred representative in `(-q/2, q/2]`.
    #[inline]
    pub fn center(&self, x: u64) -> i64 {
        debug_assert!(x < self.value);
        if x > self.value / 2 {
            x as i64 - self.value as i64
        } else {
            x as i64
        }
    }

    /// Maps a signed value into canonical form `[0, q)`.
    #[inline]
    pub fn from_signed(&self, x: i64) -> u64 {
        let mag = x.unsigned_abs();
        // Plaintext and noise coefficients are almost always below `q`
        // in magnitude; only the rare large input pays a division.
        let r = if mag < self.value {
            mag
        } else {
            mag % self.value
        };
        if x < 0 && r != 0 {
            self.value - r
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn rejects_degenerate_moduli() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(1 << 62).is_err());
        assert!(Modulus::new((1 << 62) - 1).is_ok());
    }

    #[test]
    fn detects_cham_forms() {
        let [q0, q1, p] = [Q0, Q1, SPECIAL_P].map(|v| Modulus::new(v).unwrap());
        assert_eq!(q0.low_hamming_form(), Some(LowHammingForm { a: 34, b: 27 }));
        assert_eq!(q1.low_hamming_form(), Some(LowHammingForm { a: 34, b: 19 }));
        assert_eq!(p.low_hamming_form(), Some(LowHammingForm { a: 38, b: 23 }));
        assert!(Modulus::new(17).unwrap().low_hamming_form().is_none());
        // 2^4 + 2^2 + 1 = 21 has the right shape even though composite.
        assert_eq!(
            Modulus::new(21).unwrap().low_hamming_form(),
            Some(LowHammingForm { a: 4, b: 2 })
        );
    }

    #[test]
    fn barrett_matches_division() {
        let mut rng = rng();
        for &qv in &[Q0, Q1, SPECIAL_P, 97, (1u64 << 61) - 1] {
            let q = Modulus::new(qv).unwrap();
            for _ in 0..2000 {
                let x: u128 = rng.gen();
                assert_eq!(q.reduce_u128(x), (x % qv as u128) as u64, "x={x} q={qv}");
            }
            assert_eq!(q.reduce_u128(0), 0);
            assert_eq!(q.reduce_u128(u128::MAX), (u128::MAX % qv as u128) as u64);
        }
    }

    #[test]
    fn shift_add_matches_barrett() {
        let mut rng = rng();
        for &qv in &[Q0, Q1, SPECIAL_P] {
            let q = Modulus::new(qv).unwrap();
            for _ in 0..2000 {
                let a = rng.gen_range(0..qv);
                let b = rng.gen_range(0..qv);
                assert_eq!(q.mul_shift_add(a, b), q.mul(a, b));
            }
            // Full-width 128-bit inputs.
            for _ in 0..500 {
                let x: u128 = rng.gen();
                assert_eq!(q.reduce_u128_shift_add(x), q.reduce_u128(x), "x={x}");
            }
            assert_eq!(q.reduce_u128_shift_add(0), 0);
            assert_eq!(q.reduce_u128_shift_add(u128::MAX), q.reduce_u128(u128::MAX));
        }
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = Modulus::new(Q0).unwrap();
        let mut rng = rng();
        for _ in 0..1000 {
            let a = rng.gen_range(0..Q0);
            let b = rng.gen_range(0..Q0);
            assert_eq!(q.sub(q.add(a, b), b), a);
            assert_eq!(q.add(a, q.neg(a)), 0);
        }
    }

    #[test]
    fn shoup_matches_mul() {
        let q = Modulus::new(Q1).unwrap();
        let mut rng = rng();
        for _ in 0..1000 {
            let a = rng.gen_range(0..Q1);
            let w = rng.gen_range(0..Q1);
            let ws = q.shoup(w);
            assert_eq!(q.mul_shoup(a, w, ws), q.mul(a, w));
        }
    }

    #[test]
    fn pow_and_inv() {
        let q = Modulus::new(Q0).unwrap();
        let mut rng = rng();
        for _ in 0..200 {
            let a = rng.gen_range(1..Q0);
            let inv = q.inv(a).unwrap();
            assert_eq!(q.mul(a, inv), 1);
            // Fermat check: a^(q-1) == 1 for prime q.
            assert_eq!(q.pow(a, Q0 - 1), 1);
        }
        assert!(q.inv(0).is_err());
    }

    #[test]
    fn inv_non_prime_modulus() {
        let m = Modulus::new(15).unwrap();
        assert_eq!(m.inv(2).unwrap(), 8);
        assert!(m.inv(3).is_err());
        assert!(m.inv(5).is_err());
    }

    #[test]
    fn center_and_from_signed() {
        let q = Modulus::new(17).unwrap();
        assert_eq!(q.center(0), 0);
        assert_eq!(q.center(8), 8);
        assert_eq!(q.center(9), -8);
        assert_eq!(q.center(16), -1);
        assert_eq!(q.from_signed(-1), 16);
        assert_eq!(q.from_signed(-17), 0);
        assert_eq!(q.from_signed(35), 1);
    }

    #[test]
    fn from_signed_matches_the_two_remainder_formula() {
        let strict = |q: u64, x: i64| {
            let q = q as i128;
            ((x as i128 % q + q) % q) as u64
        };
        for &qv in &[
            2u64,
            17,
            97,
            Q0,
            Q1,
            SPECIAL_P,
            (1 << 61) - 1,
            (1 << 62) - 1,
        ] {
            let q = Modulus::new(qv).unwrap();
            let qi = qv as i64;
            let edges = [
                i64::MIN,
                i64::MIN + 1,
                i64::MAX,
                i64::MAX - 1,
                qi,
                -qi,
                qi - 1,
                -(qi - 1),
                qi + 1,
                -(qi + 1),
                0,
                1,
                -1,
            ];
            for x in edges {
                assert_eq!(q.from_signed(x), strict(qv, x), "q={qv} x={x}");
            }
            let mut rng = rng();
            for _ in 0..2000 {
                let x: i64 = rng.gen();
                assert_eq!(q.from_signed(x), strict(qv, x), "q={qv} x={x}");
                let small = x % (2 * qi.min(1 << 40));
                assert_eq!(q.from_signed(small), strict(qv, small), "q={qv} x={small}");
            }
        }
    }

    #[test]
    fn display_shows_value() {
        let q = Modulus::new(Q0).unwrap();
        assert_eq!(q.to_string(), Q0.to_string());
    }
}
