//! Batch-encoded HMVP baseline (paper §II-E, related work).
//!
//! The GAZELLE-style comparator, built on SIMD slot encoding:
//! **rotate-and-sum** — per row: one slot-wise plaintext multiply plus
//! `log2` slot-count rotations to fold the products into an inner
//! product. `O(m log N)` ciphertext operations.
//!
//! Coefficient-encoded HMVP (Alg. 1) beats it: `O(m)` with much cheaper
//! per-op cost. Its readers are Beaver's
//! `BeaverGenerator::generate_batch_baseline` (`cham-apps`),
//! `examples/beaver_triples.rs` and `tests/applications.rs`.
//!
//! Slot rotations are realised by Galois automorphisms. For negacyclic
//! batching the automorphism group acts on slots as `Z_2 × Z_{N/2}`
//! (generated by `σ_3` and `σ_{2N−1}`); [`RotationLayout`] recovers the
//! `σ_3` orbit structure once, giving `N/2` *logical* slots on which `σ_3`
//! is a clean cyclic shift. The baseline therefore handles shapes up to
//! `N/2` — the standard halved capacity of hypercube batching.

use crate::ciphertext::RlweCiphertext;
use crate::encoding::{BatchEncoder, Plaintext};
use crate::encrypt::{Decryptor, Encryptor};
use crate::hmvp::Matrix;
use crate::keys::GaloisKeys;
use crate::ops::{apply_galois, mul_plain};
use crate::params::ChamParams;
use crate::{HeError, Result};
use rand::Rng;

/// The logical-slot layout induced by the `σ_3` orbit.
#[derive(Debug, Clone)]
pub struct RotationLayout {
    /// `physical[c]` = physical slot index of logical slot `c` (row 0 of
    /// the hypercube).
    physical: Vec<usize>,
}

impl RotationLayout {
    /// Computes the layout for the parameter set.
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] when batching is unsupported, or
    /// [`HeError::Incompatible`] when the slot algebra is not the expected
    /// `Z_2 × Z_{N/2}` (cannot happen for power-of-two `N ≥ 8`).
    pub fn new(params: &ChamParams) -> Result<Self> {
        let enc = BatchEncoder::new(params)?;
        let n = params.degree();
        let perm = enc.slot_permutation(3)?;
        // Walk one σ_3 orbit starting from slot 0; it must have length N/2.
        let mut physical = Vec::with_capacity(n / 2);
        let mut cur = 0usize;
        loop {
            physical.push(cur);
            cur = perm[cur];
            if cur == 0 {
                break;
            }
            if physical.len() > n {
                return Err(HeError::Incompatible("σ_3 orbit does not close"));
            }
        }
        if physical.len() != n / 2 {
            return Err(HeError::Incompatible(
                "σ_3 orbit length is not N/2; unexpected slot algebra",
            ));
        }
        Ok(Self { physical })
    }

    /// Number of logical slots (`N/2`).
    #[inline]
    pub fn len(&self) -> usize {
        self.physical.len()
    }

    /// True when empty (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.physical.is_empty()
    }

    /// Scatters logical values into a physical slot vector (unused slots
    /// zero).
    pub fn scatter(&self, logical: &[u64], slot_count: usize) -> Vec<u64> {
        let mut out = vec![0u64; slot_count];
        for (c, &v) in logical.iter().enumerate() {
            out[self.physical[c % self.len()]] = v;
        }
        out
    }

    /// Gathers logical values back out of a physical slot vector.
    pub fn gather(&self, slots: &[u64]) -> Vec<u64> {
        self.physical.iter().map(|&p| slots[p]).collect()
    }
}

/// Batch-encoded HMVP baselines.
#[derive(Debug, Clone)]
pub struct BatchHmvp {
    params: ChamParams,
    encoder: BatchEncoder,
    layout: RotationLayout,
}

impl BatchHmvp {
    /// Creates the baseline engine.
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] when batching is unsupported.
    pub fn new(params: &ChamParams) -> Result<Self> {
        Ok(Self {
            params: params.clone(),
            encoder: BatchEncoder::new(params)?,
            layout: RotationLayout::new(params)?,
        })
    }

    /// Logical slot capacity (`N/2`).
    pub fn capacity(&self) -> usize {
        self.layout.len()
    }

    /// Automorphism indices needed by [`Self::rotate_and_sum`]:
    /// `3^{2^i} mod 2N` for the fold.
    pub fn rotate_sum_galois_indices(&self) -> Vec<usize> {
        let n2 = 2 * self.params.degree();
        let steps = self.capacity().trailing_zeros();
        let mut k = 3usize;
        let mut out = Vec::with_capacity(steps as usize);
        for _ in 0..steps {
            out.push(k);
            k = (k * k) % n2;
        }
        out
    }

    /// Encrypts a vector into logical slots (normal basis).
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] when the vector exceeds the capacity.
    pub fn encrypt_vector<R: Rng + ?Sized>(
        &self,
        v: &[u64],
        enc: &Encryptor,
        rng: &mut R,
    ) -> Result<RlweCiphertext> {
        if v.len() > self.capacity() {
            return Err(HeError::ShapeMismatch {
                expected: self.capacity(),
                got: v.len(),
            });
        }
        let slots = self.layout.scatter(v, self.params.degree());
        let pt = self.encoder.encode(&slots)?;
        Ok(enc.encrypt(&pt, rng))
    }

    fn encode_logical(&self, logical: &[u64]) -> Result<Plaintext> {
        let slots = self.layout.scatter(logical, self.params.degree());
        self.encoder.encode(&slots)
    }

    /// Folds the logical slots of `ct` so every logical slot holds the sum
    /// of all of them (`log2(N/2)` rotation+add steps).
    ///
    /// # Errors
    /// Missing Galois keys.
    pub fn sum_all_slots(&self, ct: &RlweCiphertext, gkeys: &GaloisKeys) -> Result<RlweCiphertext> {
        let mut acc = ct.clone();
        for k in self.rotate_sum_galois_indices() {
            let rotated = apply_galois(&acc, k, gkeys, &self.params)?;
            acc = acc.add(&rotated)?;
        }
        Ok(acc)
    }

    /// Rotate-and-sum HMVP: returns one ciphertext per row, each holding
    /// `⟨A_i, v⟩` in (every) logical slot. `O(m log N)` operations.
    ///
    /// # Errors
    /// Shape errors when the matrix exceeds the capacity; missing Galois
    /// keys.
    pub fn rotate_and_sum(
        &self,
        a: &Matrix,
        ct_v: &RlweCiphertext,
        gkeys: &GaloisKeys,
    ) -> Result<Vec<RlweCiphertext>> {
        if a.cols() > self.capacity() {
            return Err(HeError::ShapeMismatch {
                expected: self.capacity(),
                got: a.cols(),
            });
        }
        (0..a.rows())
            .map(|i| {
                let pt = self.encode_logical(a.row(i))?;
                let prod = mul_plain(ct_v, &pt, &self.params)?;
                self.sum_all_slots(&prod, gkeys)
            })
            .collect()
    }

    /// Decodes logical slot values from a decrypted ciphertext.
    pub fn decode(&self, dec: &Decryptor, ct: &RlweCiphertext) -> Result<Vec<u64>> {
        let pt = dec.decrypt(ct);
        let slots = self.encoder.decode(&pt)?;
        Ok(self.layout.gather(&slots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::SecretKey;
    use rand::SeedableRng;

    fn setup() -> (
        ChamParams,
        SecretKey,
        Encryptor,
        Decryptor,
        rand::rngs::StdRng,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3003);
        let params = ChamParams::insecure_test_default().unwrap();
        let sk = SecretKey::generate(&params, &mut rng);
        let enc = Encryptor::new(&params, &sk);
        let dec = Decryptor::new(&params, &sk);
        (params, sk, enc, dec, rng)
    }

    #[test]
    fn layout_orbit_covers_half() {
        let (params, ..) = setup();
        let layout = RotationLayout::new(&params).unwrap();
        assert_eq!(layout.len(), params.degree() / 2);
        // scatter/gather roundtrip
        let vals: Vec<u64> = (1..=10).collect();
        let slots = layout.scatter(&vals, params.degree());
        assert_eq!(&layout.gather(&slots)[..10], &vals[..]);
    }

    #[test]
    fn rotation_is_cyclic_shift_in_logical_space() {
        let (params, sk, enc, dec, mut rng) = setup();
        let b = BatchHmvp::new(&params).unwrap();
        let cap = b.capacity();
        let v: Vec<u64> = (0..cap as u64).map(|i| i + 1).collect();
        let ct = b.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let gkeys = GaloisKeys::generate(&sk, &[3], &mut rng).unwrap();
        let rot = apply_galois(&ct, 3, &gkeys, &params).unwrap();
        let got = b.decode(&dec, &rot).unwrap();
        // σ_3 shifts the logical vector by one position (direction is a
        // convention; accept either).
        let fwd: Vec<u64> = (0..cap).map(|i| v[(i + 1) % cap]).collect();
        let bwd: Vec<u64> = (0..cap).map(|i| v[(i + cap - 1) % cap]).collect();
        assert!(got == fwd || got == bwd, "rotation is not a unit shift");
    }

    #[test]
    fn rotate_and_sum_matches_plain() {
        let (params, sk, enc, dec, mut rng) = setup();
        let b = BatchHmvp::new(&params).unwrap();
        let t = params.plain_modulus();
        let (m, n) = (6usize, 16usize);
        let a = Matrix::random(m, n, t.value(), &mut rng);
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let gkeys = GaloisKeys::generate(&sk, &b.rotate_sum_galois_indices(), &mut rng).unwrap();
        let ct_v = b.encrypt_vector(&v, &enc, &mut rng).unwrap();
        let outs = b.rotate_and_sum(&a, &ct_v, &gkeys).unwrap();
        let expect = a.mul_vector_mod(&v, t).unwrap();
        for (i, ct) in outs.iter().enumerate() {
            let got = b.decode(&dec, ct).unwrap();
            assert_eq!(got[0], expect[i], "row {i}");
            // Sum lands in every logical slot.
            assert!(got.iter().all(|&x| x == expect[i]), "row {i} not uniform");
        }
    }

    #[test]
    fn capacity_limits_enforced() {
        let (params, _, enc, _, mut rng) = setup();
        let b = BatchHmvp::new(&params).unwrap();
        let too_long = vec![1u64; b.capacity() + 1];
        assert!(b.encrypt_vector(&too_long, &enc, &mut rng).is_err());
    }
}
