//! Analytic noise estimator.
//!
//! Predicts worst-case-style invariant-noise bounds for each pipeline
//! operation, so callers can validate a parameter/workload combination
//! *before* running it (the production deployment concern behind §II-F's
//! parameter-selection discussion). The estimates are deliberately
//! conservative upper bounds; tests check that the exact measured noise
//! (from [`crate::encrypt::Decryptor::decrypt_with_noise`]) never exceeds
//! them on random instances.

use crate::params::ChamParams;
use cham_math::sampling::DEFAULT_CBD_K;

/// Conservative per-operation noise bounds, in absolute invariant-noise
/// units (`|e|` such that decryption is correct while `|e| < Q/(2t)`).
#[derive(Debug, Clone, Copy)]
pub struct NoiseEstimator {
    n: f64,
    t: f64,
    q: f64,
    p: f64,
    /// Bound on fresh noise coefficients (CBD tail).
    fresh_bound: f64,
    /// Bound on secret-key 1-norm (ternary: ≤ N).
    sk_norm: f64,
}

impl NoiseEstimator {
    /// Builds an estimator for a parameter set.
    pub fn new(params: &ChamParams) -> Self {
        Self {
            n: params.degree() as f64,
            t: params.plain_modulus().value() as f64,
            q: params.q_product() as f64,
            p: params.special_prime() as f64,
            fresh_bound: DEFAULT_CBD_K as f64,
            sk_norm: params.degree() as f64,
        }
    }

    /// Correctness ceiling: decryption works while noise stays below this.
    pub fn ceiling(&self) -> f64 {
        self.q / (2.0 * self.t)
    }

    /// The scale-rounding term: with `Δ = ⌊Q/t⌋`, the invariant noise of
    /// any ciphertext carries up to `(Q mod t)·μ/t < t` on top of the RLWE
    /// noise. Every bound below includes it.
    fn rounding(&self) -> f64 {
        self.t
    }

    /// Fresh symmetric encryption.
    pub fn fresh(&self) -> f64 {
        self.fresh_bound + self.rounding()
    }

    /// Fresh public-key encryption (`b·u + e0 + a·u·s + e1` with ternary
    /// `u`): `≈ N·B + 2B`.
    pub fn fresh_pk(&self) -> f64 {
        self.n * self.fresh_bound + 2.0 * self.fresh_bound + self.rounding()
    }

    /// After multiplying by a plaintext with centred coefficients
    /// (`‖pt‖∞ ≤ t/2`): noise scales by `N·t/2`.
    pub fn after_mul_plain(&self, input: f64) -> f64 {
        input * self.n * self.t / 2.0 + self.rounding()
    }

    /// After rescaling by the special prime: divided by `p` plus the
    /// rounding terms `≈ (1 + ‖s‖₁)/2` and the scale remainder.
    pub fn after_rescale(&self, input: f64) -> f64 {
        input / self.p + (1.0 + self.sk_norm) / 2.0 + self.rounding()
    }

    /// Additive noise of one key-switch: digit magnitudes `< q_i`, noise
    /// `B`, `N` cross terms, divided by `p`, plus rounding.
    pub fn keyswitch_additive(&self) -> f64 {
        let q_max = 2f64.powi(35); // largest ciphertext prime < 2^35
        let digits = 2.0;
        digits * q_max * self.n * self.fresh_bound / self.p
            + (1.0 + self.sk_norm) / 2.0
            + self.rounding()
    }

    /// After packing `2^levels` ciphertexts of bound `input`: each level
    /// doubles the payload noise and adds one key-switch.
    pub fn after_pack(&self, input: f64, levels: u32) -> f64 {
        let mut e = input;
        for _ in 0..levels {
            e = 2.0 * e + self.keyswitch_additive();
        }
        e
    }

    /// Full-pipeline bound for an HMVP with `col_tiles` column tiles and
    /// `2^pack_levels` packed rows.
    pub fn hmvp_bound(&self, col_tiles: usize, pack_levels: u32) -> f64 {
        let dot = self.after_mul_plain(self.fresh_pk()) * col_tiles as f64;
        let rescaled = self.after_rescale(dot);
        self.after_pack(rescaled, pack_levels)
    }

    /// True when the HMVP bound stays under the ceiling — the parameter
    /// validation a deployment runs before admitting a workload shape.
    pub fn hmvp_is_safe(&self, col_tiles: usize, pack_levels: u32) -> bool {
        self.hmvp_bound(col_tiles, pack_levels) < self.ceiling()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CoeffEncoder;
    use crate::encrypt::{Decryptor, Encryptor, PublicKey};
    use crate::hmvp::{Hmvp, Matrix};
    use crate::keys::{GaloisKeys, SecretKey};
    use rand::{Rng, SeedableRng};

    fn setup() -> (
        ChamParams,
        SecretKey,
        Encryptor,
        Decryptor,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        (params, sk, enc, dec, rng)
    }

    /// Measured |e| from the noise meter, in absolute units.
    fn measured(dec: &Decryptor, ct: &crate::ciphertext::RlweCiphertext) -> f64 {
        let r = dec.decrypt_with_noise(ct);
        2f64.powf(r.noise_bits)
    }

    #[test]
    fn fresh_bounds_hold() {
        let (params, sk, enc, dec, mut rng) = setup();
        let est = NoiseEstimator::new(&params);
        let coder = CoeffEncoder::new(&params);
        let pk = PublicKey::generate(&sk, &mut rng);
        for _ in 0..10 {
            let pt = coder.encode_vector(&[rng.gen_range(0..65537u64)]).unwrap();
            let sym = enc.encrypt(&pt, &mut rng);
            assert!(measured(&dec, &sym) <= est.fresh(), "symmetric");
            let asym = enc.encrypt_with_pk(&pk, &pt, &mut rng).unwrap();
            assert!(measured(&dec, &asym) <= est.fresh_pk(), "public-key");
        }
    }

    #[test]
    fn mul_and_rescale_bounds_hold() {
        let (params, _, enc, dec, mut rng) = setup();
        let est = NoiseEstimator::new(&params);
        let coder = CoeffEncoder::new(&params);
        let t = params.plain_modulus().value();
        let n = params.degree();
        for _ in 0..5 {
            let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
            let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
            let ct = enc.encrypt_augmented(&coder.encode_vector(&v).unwrap(), &mut rng);
            let prod =
                crate::ops::mul_plain(&ct, &coder.encode_row(&row).unwrap(), &params).unwrap();
            // The augmented basis has its own (larger) ceiling; compare in
            // the normal basis after rescale, where the estimator lives.
            let rescaled = crate::ops::rescale(&prod, &params).unwrap();
            let bound = est.after_rescale(est.after_mul_plain(est.fresh()));
            assert!(
                measured(&dec, &rescaled) <= bound,
                "measured {} > bound {}",
                measured(&dec, &rescaled),
                bound
            );
        }
    }

    #[test]
    fn hmvp_pipeline_bound_holds() {
        let (params, sk, enc, dec, mut rng) = setup();
        let est = NoiseEstimator::new(&params);
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng).unwrap();
        let t = params.plain_modulus().value();
        let n = params.degree();
        // m == N so every output coefficient is a payload (the noise meter
        // measures all coefficients; partially-filled packs carry garbage
        // in the gaps, which is data, not noise).
        let m = n;
        let a = Matrix::random(m, n, t, &mut rng);
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let hmvp = Hmvp::new(&params);
        let cts = hmvp.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let em = hmvp.encode_matrix(&a).unwrap();
        let result = hmvp.multiply(&em, &cts, &gkeys).unwrap();
        let levels = (m as f64).log2().ceil() as u32;
        let bound = est.hmvp_bound(1, levels);
        let got = measured(&dec, &result.packed[0].ciphertext);
        assert!(got <= bound, "measured {got} > bound {bound}");
        assert!(est.hmvp_is_safe(1, levels));
    }

    #[test]
    fn safety_check_rejects_absurd_depth() {
        let (params, ..) = setup();
        let est = NoiseEstimator::new(&params);
        // Enough doubling levels eventually exceed the ceiling.
        assert!(!est.hmvp_is_safe(1, 60));
    }

    #[test]
    fn ceiling_matches_params() {
        let (params, ..) = setup();
        let est = NoiseEstimator::new(&params);
        let expected = params.q_product() as f64 / (2.0 * params.plain_modulus().value() as f64);
        assert!((est.ceiling() - expected).abs() / expected < 1e-12);
    }
}
