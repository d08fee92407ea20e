//! Plaintext encodings.
//!
//! * [`CoeffEncoder`] — the paper's coefficient encoding (Eq. 1): a matrix
//!   row is laid out reversed-and-negated so the polynomial product with the
//!   vector's plaintext leaves the inner product in the constant coefficient
//!   (Eq. 2). `O(m)` per matrix-vector product.
//! * [`BatchEncoder`] — SIMD slot encoding over `Z_t` (related work,
//!   §II-E): an NTT over the plaintext modulus maps `N` slot values to one
//!   polynomial; slot-wise add/mul come for free, row sums need `log2 N`
//!   rotations. This is the `O(m log N)` comparator.

use crate::params::ChamParams;
use crate::{HeError, Result};
use cham_math::modulus::Modulus;
use cham_math::ntt::NttTable;

/// A plaintext: `N` values modulo `t`.
///
/// The interpretation (coefficients vs slots) is fixed by the encoder that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    values: Vec<u64>,
}

impl Plaintext {
    /// Wraps raw values (already reduced mod `t`).
    pub fn from_values(values: Vec<u64>) -> Self {
        Self { values }
    }

    /// The values.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of values (the ring degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Coefficient encoder (paper Eq. 1).
#[derive(Debug, Clone)]
pub struct CoeffEncoder {
    params: std::sync::Arc<ChamParams>,
}

impl CoeffEncoder {
    /// Creates an encoder for the parameter set.
    pub fn new(params: &ChamParams) -> Self {
        Self::from_arc(std::sync::Arc::new(params.clone()))
    }

    /// Creates an encoder sharing an existing parameter handle (no clone).
    pub fn from_arc(params: std::sync::Arc<ChamParams>) -> Self {
        Self { params }
    }

    fn t(&self) -> &Modulus {
        self.params.plain_modulus()
    }

    /// Encodes a vector `v` as `pt(X) = Σ_j v_j X^j`.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] if `v` is longer than the degree (shorter
    /// vectors are zero-padded).
    pub fn encode_vector(&self, v: &[u64]) -> Result<Plaintext> {
        let n = self.params.degree();
        if v.len() > n {
            return Err(HeError::ShapeMismatch {
                expected: n,
                got: v.len(),
            });
        }
        let mut values: Vec<u64> = v.iter().map(|&x| self.t().reduce(x)).collect();
        values.resize(n, 0);
        Ok(Plaintext { values })
    }

    /// Encodes a matrix row `A_i` as
    /// `pt(X) = A_{i,0} − Σ_{j=1}^{N−1} A_{i,j} X^{N−j}` (Eq. 1), so that
    /// `pt^{(A_i)} · pt^{(v)}` has `⟨A_i, v⟩` in its constant coefficient
    /// (Eq. 2).
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] if `row` is longer than the degree.
    pub fn encode_row(&self, row: &[u64]) -> Result<Plaintext> {
        let n = self.params.degree();
        if row.len() > n {
            return Err(HeError::ShapeMismatch {
                expected: n,
                got: row.len(),
            });
        }
        let t = self.t();
        let mut values = vec![0u64; n];
        values[0] = t.reduce(row[0]);
        for (j, &x) in row.iter().enumerate().skip(1) {
            values[n - j] = t.neg(t.reduce(x));
        }
        Ok(Plaintext { values })
    }
}

/// Batch (SIMD) encoder over the plaintext modulus — requires
/// `t ≡ 1 (mod 2N)` (true for the default `t = 65537` at `N ≤ 4096`).
///
/// `encode` places values in *slots*: slot-wise products of encoded
/// plaintexts correspond to element-wise products of the value vectors.
/// Slot `i` is the evaluation of the polynomial at a fixed primitive root
/// power; the exact order matches the NTT's bit-reversed order, which is
/// all the baselines need (they only ever combine like-indexed slots).
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    table: NttTable,
}

impl BatchEncoder {
    /// Creates a batch encoder.
    ///
    /// # Errors
    /// [`HeError::InvalidParams`] when `t` cannot host a `2N`-th root of
    /// unity (i.e. batching is unsupported for this parameter set).
    pub fn new(params: &ChamParams) -> Result<Self> {
        let t = *params.plain_modulus();
        let table = NttTable::new(params.degree(), t).map_err(|_| {
            HeError::InvalidParams("plaintext modulus does not support batching (t mod 2N != 1)")
        })?;
        Ok(Self { table })
    }

    /// Number of slots (= degree).
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.table.n()
    }

    /// Encodes slot values into a coefficient-domain plaintext.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] if more slots than available.
    pub fn encode(&self, slots: &[u64]) -> Result<Plaintext> {
        let n = self.slot_count();
        if slots.len() > n {
            return Err(HeError::ShapeMismatch {
                expected: n,
                got: slots.len(),
            });
        }
        let t = self.table.modulus();
        let mut vals: Vec<u64> = slots.iter().map(|&v| t.reduce(v)).collect();
        vals.resize(n, 0);
        // Slots live in the NTT domain; coefficients are its inverse image.
        self.table.inverse(&mut vals);
        Ok(Plaintext::from_values(vals))
    }

    /// Decodes a plaintext back to slot values.
    ///
    /// # Errors
    /// [`HeError::ShapeMismatch`] on length mismatch.
    pub fn decode(&self, pt: &Plaintext) -> Result<Vec<u64>> {
        if pt.len() != self.slot_count() {
            return Err(HeError::ShapeMismatch {
                expected: self.slot_count(),
                got: pt.len(),
            });
        }
        let mut vals = pt.values().to_vec();
        self.table.forward(&mut vals);
        Ok(vals)
    }

    /// The slot permutation induced by the Galois map `X → X^k`: returns
    /// `perm` such that `decode(σ_k(p))[i] = decode(p)[perm[i]]`.
    ///
    /// Used by the rotate-and-sum baseline to realise slot rotations.
    ///
    /// # Errors
    /// [`HeError::Math`] for even `k`.
    pub fn slot_permutation(&self, k: usize) -> Result<Vec<usize>> {
        let n = self.slot_count();
        let t = *self.table.modulus();
        // Probe with a basis plaintext per slot block: use one probe vector
        // with distinct slot values, apply σ_k, and match values.
        let probe: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
        let pt = self.encode(&probe)?;
        let poly = cham_math::poly::Poly::from_coeffs(pt.values().to_vec());
        let rotated = poly.automorph(k, &t)?;
        let out = self.decode(&Plaintext::from_values(rotated.into_coeffs()))?;
        let mut index_of = vec![0usize; n + 1];
        for (i, &v) in probe.iter().enumerate() {
            index_of[v as usize] = i;
        }
        let mut perm = Vec::with_capacity(n);
        for &v in &out {
            if v == 0 || v as usize > n {
                return Err(HeError::Incompatible(
                    "automorphism did not permute slots (unexpected slot algebra)",
                ));
            }
            perm.push(index_of[v as usize]);
        }
        Ok(perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cham_math::poly::Poly;
    use rand::{Rng, SeedableRng};

    fn params() -> ChamParams {
        ChamParams::insecure_test_default().unwrap()
    }

    #[test]
    fn coeff_encode_dot_product_in_constant_term() {
        // Eq. 2: (pt_row * pt_vec) constant coefficient == <row, vec> mod t.
        let p = params();
        let enc = CoeffEncoder::new(&p);
        let t = p.plain_modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = p.degree();
        let row: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let vec: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t.value())).collect();
        let pr = enc.encode_row(&row).unwrap();
        let pv = enc.encode_vector(&vec).unwrap();
        let a = Poly::from_coeffs(pr.values().to_vec());
        let b = Poly::from_coeffs(pv.values().to_vec());
        let prod = a.mul_negacyclic_schoolbook(&b, t);
        let expect = row
            .iter()
            .zip(&vec)
            .fold(0u64, |acc, (&x, &y)| t.add(acc, t.mul(x, y)));
        assert_eq!(prod.coeffs()[0], expect);
    }

    #[test]
    fn encode_vector_pads_and_validates() {
        let p = params();
        let enc = CoeffEncoder::new(&p);
        let pt = enc.encode_vector(&[1, 2, 3]).unwrap();
        assert_eq!(pt.len(), p.degree());
        assert_eq!(&pt.values()[..4], &[1, 2, 3, 0]);
        assert!(enc.encode_vector(&vec![0; p.degree() + 1]).is_err());
        assert!(enc.encode_row(&vec![0; p.degree() + 1]).is_err());
    }

    #[test]
    fn batch_roundtrip() {
        let p = params();
        let enc = BatchEncoder::new(&p).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let slots: Vec<u64> = (0..enc.slot_count())
            .map(|_| rng.gen_range(0..p.plain_modulus().value()))
            .collect();
        let pt = enc.encode(&slots).unwrap();
        assert_eq!(enc.decode(&pt).unwrap(), slots);
    }

    #[test]
    fn batch_slotwise_product() {
        let p = params();
        let enc = BatchEncoder::new(&p).unwrap();
        let t = p.plain_modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..enc.slot_count())
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let ys: Vec<u64> = (0..enc.slot_count())
            .map(|_| rng.gen_range(0..t.value()))
            .collect();
        let px = enc.encode(&xs).unwrap();
        let py = enc.encode(&ys).unwrap();
        let prod = Poly::from_coeffs(px.values().to_vec())
            .mul_negacyclic_schoolbook(&Poly::from_coeffs(py.values().to_vec()), t);
        let decoded = enc
            .decode(&Plaintext::from_values(prod.into_coeffs()))
            .unwrap();
        let expect: Vec<u64> = xs.iter().zip(&ys).map(|(&a, &b)| t.mul(a, b)).collect();
        assert_eq!(decoded, expect);
    }

    #[test]
    fn slot_permutation_is_a_permutation() {
        let p = params();
        let enc = BatchEncoder::new(&p).unwrap();
        for k in [3usize, 5, 2 * p.degree() - 1] {
            let perm = enc.slot_permutation(k).unwrap();
            let mut seen = vec![false; perm.len()];
            for &i in &perm {
                assert!(!seen[i], "k={k}: duplicate target {i}");
                seen[i] = true;
            }
        }
    }

    #[test]
    fn slot_permutation_composes() {
        // perm(k1*k2) == perm(k1) ∘ perm(k2) (up to the group convention).
        let p = params();
        let n = p.degree();
        let enc = BatchEncoder::new(&p).unwrap();
        let p3 = enc.slot_permutation(3).unwrap();
        let p9 = enc.slot_permutation(9 % (2 * n)).unwrap();
        let composed: Vec<usize> = (0..n).map(|i| p3[p3[i]]).collect();
        assert_eq!(composed, p9);
    }

    #[test]
    fn batching_requires_friendly_t() {
        // t = 17: 2N = 512 does not divide 16.
        let p = crate::params::ChamParamsBuilder::new()
            .degree(256)
            .plain_modulus(17)
            .build()
            .unwrap();
        assert!(BatchEncoder::new(&p).is_err());
    }
}
