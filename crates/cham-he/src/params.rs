//! CHAM encryption parameters (paper §II-F).
//!
//! The paper fixes `N = 4096` with a 109-bit modulus chain: two 35-bit(*)
//! ciphertext primes `q0, q1` and one 39-bit special prime `p` reserved for
//! key-switching and the dot-product rescale. All three have Hamming
//! weight 3, so the FPGA reduces products with three shift-adds.
//!
//! (*) the published primes are actually 34.01 and 38.00 bits; the paper
//! rounds. We use the exact published values.
//!
//! A ciphertext is 2 polynomials × 2 limbs (4 polys), or 6 when augmented
//! with `p`; a plaintext is 2, or 3 augmented — the parallelism the compute
//! engine exploits (§III-A).

use crate::{HeError, Result};
use cham_math::modulus::{Modulus, Q0, Q1, SPECIAL_P};
use cham_math::ntt::GaloisSlots;
use cham_math::primality::is_prime;
use cham_math::rns::RnsContext;
use std::sync::Arc;

/// Default plaintext modulus: the Fermat prime `2^16 + 1`.
///
/// Odd (so the packing payload factor `2^h` is invertible mod `t`) and
/// `≡ 1 (mod 2N)` (so the batch-encoding baseline of §II-E has `N` slots).
pub const DEFAULT_PLAIN_MODULUS: u64 = 65537;

/// Paper ring degree.
pub const DEFAULT_DEGREE: usize = 4096;

/// Complete parameter set for the CHAM scheme.
///
/// Use [`ChamParams::cham_default`] for the paper's published parameters or
/// [`ChamParamsBuilder`] for reduced test/bench sets.
///
/// # Example
/// ```
/// use cham_he::params::ChamParams;
/// let params = ChamParams::cham_default()?;
/// assert_eq!(params.degree(), 4096);
/// assert_eq!(params.ciphertext_context().len(), 2);
/// assert_eq!(params.augmented_context().len(), 3);
/// # Ok::<(), cham_he::HeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChamParams {
    degree: usize,
    plain_modulus: Modulus,
    ct_ctx: RnsContext,
    aug_ctx: RnsContext,
    special_prime: u64,
    /// `σ_{2^h+1}` in the NTT slot order for `h = 1..=log2 N`: the pack's
    /// automorphisms of its NTT-resident `b` half, one table per level,
    /// built once with the parameters and shared by every clone.
    pack_slots: Arc<[GaloisSlots]>,
}

impl ChamParams {
    /// The paper's parameter set: `N = 4096`,
    /// `(q0, q1, p) = (2^34+2^27+1, 2^34+2^19+1, 2^38+2^23+1)`, `t = 65537`.
    ///
    /// # Errors
    /// Never fails for the built-in constants; the `Result` mirrors the
    /// builder API.
    pub fn cham_default() -> Result<Self> {
        ChamParamsBuilder::new().build()
    }

    /// A reduced parameter set (`N = 256`) with the same modulus chain, for
    /// fast unit tests. **Not secure** — test/bench use only.
    ///
    /// # Errors
    /// Never fails for the built-in constants.
    pub fn insecure_test_default() -> Result<Self> {
        ChamParamsBuilder::new().degree(256).build()
    }

    /// A larger set (`N = 8192`, same hardware-friendly chain — all three
    /// primes are `≡ 1 mod 2^14`) for workloads that want more noise
    /// headroom or longer vectors per ciphertext. Security rises to
    /// >192 bits at the same modulus.
    ///
    /// # Errors
    /// Never fails for the built-in constants.
    pub fn cham_large() -> Result<Self> {
        ChamParamsBuilder::new().degree(8192).build()
    }

    /// The preset a command line names: `test`
    /// ([`Self::insecure_test_default`]), `default` ([`Self::cham_default`])
    /// or `large` ([`Self::cham_large`]).
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] for any other name.
    pub fn by_name(name: &str) -> Result<Self> {
        match name {
            "test" => Self::insecure_test_default(),
            "default" => Self::cham_default(),
            "large" => Self::cham_large(),
            _ => Err(HeError::InvalidParams(
                "unknown params preset (test|default|large)",
            )),
        }
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Plaintext modulus `t`.
    #[inline]
    pub fn plain_modulus(&self) -> &Modulus {
        &self.plain_modulus
    }

    /// RNS context of normal-form ciphertexts (`{q0, q1}`).
    #[inline]
    pub fn ciphertext_context(&self) -> &RnsContext {
        &self.ct_ctx
    }

    /// RNS context of augmented ciphertexts (`{q0, q1, p}`).
    #[inline]
    pub fn augmented_context(&self) -> &RnsContext {
        &self.aug_ctx
    }

    /// The special prime `p`.
    #[inline]
    pub fn special_prime(&self) -> u64 {
        self.special_prime
    }

    /// `Q = q0·q1` as an integer.
    #[inline]
    pub fn q_product(&self) -> u128 {
        self.ct_ctx.modulus_product()
    }

    /// Total ciphertext modulus bits (the paper's "109 bit" figure:
    /// 34 + 34.3 + 38 ≈ 106–109 depending on rounding convention).
    pub fn total_modulus_bits(&self) -> u32 {
        128 - self.aug_ctx.modulus_product().leading_zeros()
    }

    /// The slot table of the pack's automorphism `σ_{2^h+1}` at level
    /// `1 ≤ h ≤ log2 N`.
    pub(crate) fn pack_slots(&self, h: u32) -> &GaloisSlots {
        &self.pack_slots[h as usize - 1]
    }

    /// Maximum packing depth: `log2 N` levels pack up to `N` LWE
    /// ciphertexts into one RLWE ciphertext.
    #[inline]
    pub fn max_pack_log(&self) -> u32 {
        self.degree.trailing_zeros()
    }

    /// Conservative classical-security estimate in bits, from the
    /// homomorphicencryption.org standard's ternary-secret table
    /// (λ = 128/192/256 rows), linearly interpolated in `log2 Q` and
    /// floored at zero for out-of-table chains. The *total* modulus
    /// (including the key-switching prime) is what the attacker sees.
    ///
    /// The paper's set — `N = 4096`, `log2(Q·p) ≈ 106` — lands at ≈131
    /// bits, consistent with §II-F's "required security level".
    pub fn estimated_security_bits(&self) -> u32 {
        // (N, max log2 Q) rows for λ = 128, 192, 256 (HE standard, ternary).
        const TABLE: [(usize, [u32; 3]); 5] = [
            (1024, [27, 19, 14]),
            (2048, [54, 37, 29]),
            (4096, [109, 75, 58]),
            (8192, [218, 152, 118]),
            (16384, [438, 305, 237]),
        ];
        let logq = self.total_modulus_bits();
        let row = match TABLE.iter().find(|(n, _)| *n >= self.degree) {
            Some((_, caps)) => caps,
            // Degrees above the table: extrapolate from the largest row
            // (security only grows with N at fixed log Q).
            None => &TABLE[TABLE.len() - 1].1,
        };
        // Below the tightest cap → at least 256; above the loosest → scale
        // 128 down linearly with the overshoot.
        if logq <= row[2] {
            return 256;
        }
        if logq <= row[1] {
            return 192;
        }
        if logq <= row[0] {
            // Interpolate between 192 (at row[1]) and 128 (at row[0]).
            let span = (row[0] - row[1]) as f64;
            let frac = (row[0] - logq) as f64 / span;
            return (128.0 + frac * 64.0) as u32;
        }
        // Over the 128-bit cap: degrade proportionally.
        let deficit = logq as f64 / row[0] as f64;
        (128.0 / deficit) as u32
    }
}

/// Builder for [`ChamParams`] (C-BUILDER).
///
/// # Example
/// ```
/// use cham_he::params::ChamParamsBuilder;
/// let params = ChamParamsBuilder::new()
///     .degree(512)
///     .plain_modulus(65537)
///     .build()?;
/// assert_eq!(params.degree(), 512);
/// # Ok::<(), cham_he::HeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChamParamsBuilder {
    degree: usize,
    plain_modulus: u64,
    ct_primes: Vec<u64>,
    special_prime: u64,
}

impl Default for ChamParamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ChamParamsBuilder {
    /// Starts from the paper defaults.
    pub fn new() -> Self {
        Self {
            degree: DEFAULT_DEGREE,
            plain_modulus: DEFAULT_PLAIN_MODULUS,
            ct_primes: vec![Q0, Q1],
            special_prime: SPECIAL_P,
        }
    }

    /// Sets the ring degree (power of two).
    pub fn degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }

    /// Sets the plaintext modulus.
    pub fn plain_modulus(mut self, t: u64) -> Self {
        self.plain_modulus = t;
        self
    }

    /// Sets the ciphertext prime chain (without the special prime).
    pub fn ciphertext_primes(mut self, primes: &[u64]) -> Self {
        self.ct_primes = primes.to_vec();
        self
    }

    /// Sets the special (key-switching) prime.
    pub fn special_prime(mut self, p: u64) -> Self {
        self.special_prime = p;
        self
    }

    /// Validates and builds the parameter set.
    ///
    /// # Errors
    /// * [`HeError::InvalidParams`] for a non-power-of-two degree, a
    ///   plaintext modulus that is even / ≥ any ciphertext prime / too
    ///   small, non-prime chain entries, a special prime that repeats a
    ///   ciphertext prime, or a special prime smaller than the largest
    ///   ciphertext prime (the hybrid key-switch bound).
    /// * Math-layer errors when a prime cannot host the required NTT.
    pub fn build(self) -> Result<ChamParams> {
        if !self.degree.is_power_of_two() || self.degree < 8 {
            return Err(HeError::InvalidParams("degree must be a power of two >= 8"));
        }
        if self.plain_modulus < 2 || self.plain_modulus.is_multiple_of(2) {
            return Err(HeError::InvalidParams(
                "plaintext modulus must be an odd integer >= 3 (odd so packing scale factors are invertible)",
            ));
        }
        if self.ct_primes.is_empty() {
            return Err(HeError::InvalidParams("ciphertext prime chain is empty"));
        }
        for &q in &self.ct_primes {
            if !is_prime(q) {
                return Err(HeError::InvalidParams("ciphertext modulus is not prime"));
            }
            if self.plain_modulus >= q {
                return Err(HeError::InvalidParams(
                    "plaintext modulus must be smaller than every ciphertext prime",
                ));
            }
        }
        if !is_prime(self.special_prime) {
            return Err(HeError::InvalidParams("special modulus is not prime"));
        }
        if self.ct_primes.contains(&self.special_prime) {
            return Err(HeError::InvalidParams(
                "special modulus must differ from the ciphertext primes",
            ));
        }
        let max_ct = *self.ct_primes.iter().max().expect("non-empty");
        if self.special_prime < max_ct {
            return Err(HeError::InvalidParams(
                "special modulus must be at least as large as the largest ciphertext prime (hybrid key-switch noise bound)",
            ));
        }
        let ct_ctx = RnsContext::new(self.degree, &self.ct_primes)?;
        let mut aug = self.ct_primes.clone();
        aug.push(self.special_prime);
        let aug_ctx = RnsContext::new(self.degree, &aug)?;
        let pack_slots = (1..=self.degree.trailing_zeros())
            .map(|h| GaloisSlots::new(self.degree, (1 << h) + 1))
            .collect();
        Ok(ChamParams {
            degree: self.degree,
            plain_modulus: Modulus::new(self.plain_modulus)?,
            ct_ctx,
            aug_ctx,
            special_prime: self.special_prime,
            pack_slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = ChamParams::cham_default().unwrap();
        assert_eq!(p.degree(), 4096);
        assert_eq!(p.plain_modulus().value(), 65537);
        assert_eq!(p.special_prime(), SPECIAL_P);
        assert_eq!(p.ciphertext_context().len(), 2);
        assert_eq!(p.augmented_context().len(), 3);
        // "This corresponds to a space of 109 bit" — q0(34.01) + q1(34.00)
        // + p(38.00) ≈ 106.0; the paper quotes nominal widths 35+35+39.
        let bits = p.total_modulus_bits();
        assert!((105..=110).contains(&bits), "bits={bits}");
        assert_eq!(p.max_pack_log(), 12);
    }

    #[test]
    fn delta_scales() {
        let p = ChamParams::insecure_test_default().unwrap();
        // Δ = ⌊Q/t⌋, the scale of normal-form ciphertexts.
        let d = p.q_product() / p.plain_modulus().value() as u128;
        // ⌊Qp/t⌋, the scale of augmented ciphertexts, over Δ ≈ p.
        let da = p.augmented_context().modulus_product() / p.plain_modulus().value() as u128;
        let ratio = da / d;
        let sp = p.special_prime() as u128;
        assert!(ratio >= sp - 1 && ratio <= sp + 1, "ratio={ratio}");
    }

    #[test]
    fn builder_validation() {
        assert!(ChamParamsBuilder::new().degree(100).build().is_err());
        assert!(ChamParamsBuilder::new().degree(4).build().is_err());
        assert!(ChamParamsBuilder::new()
            .plain_modulus(65536)
            .build()
            .is_err()); // even
        assert!(ChamParamsBuilder::new().plain_modulus(1).build().is_err());
        assert!(ChamParamsBuilder::new()
            .ciphertext_primes(&[Q0, Q1 + 2])
            .build()
            .is_err()); // not prime
        assert!(ChamParamsBuilder::new().special_prime(Q0).build().is_err()); // repeats a ciphertext prime
        assert!(ChamParamsBuilder::new()
            .ciphertext_primes(&[SPECIAL_P])
            .special_prime(Q0)
            .build()
            .is_err()); // special smaller than ct prime
        assert!(ChamParamsBuilder::new().plain_modulus(Q0).build().is_err()); // t >= q
        assert!(ChamParamsBuilder::new()
            .ciphertext_primes(&[])
            .build()
            .is_err());
    }

    #[test]
    fn large_preset_works() {
        let p = ChamParams::cham_large().unwrap();
        assert_eq!(p.degree(), 8192);
        assert_eq!(p.max_pack_log(), 13);
        assert!(
            p.estimated_security_bits() >= 192,
            "{}",
            p.estimated_security_bits()
        );
    }

    #[test]
    fn security_estimate_brackets() {
        let p = ChamParams::cham_default().unwrap();
        // N = 4096 at ~106 bits total: ≥128-bit classical per the standard.
        let bits = p.estimated_security_bits();
        assert!((128..=200).contains(&bits), "bits={bits}");
        // The reduced test set is insecure by construction.
        let tiny = ChamParams::insecure_test_default().unwrap();
        assert!(
            tiny.estimated_security_bits() < 40,
            "{}",
            tiny.estimated_security_bits()
        );
    }

    #[test]
    fn reduced_degree_builds() {
        for n in [8usize, 64, 1024] {
            let p = ChamParamsBuilder::new().degree(n).build().unwrap();
            assert_eq!(p.degree(), n);
        }
    }
}
