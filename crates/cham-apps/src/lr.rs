//! HeteroLR — vertically-partitioned federated logistic regression
//! (paper §V-B.3, after Hardy et al. / FATE).
//!
//! Three roles: data parties **A** (features only) and **B** (features +
//! labels), and an **arbiter** holding the HE key pair. Per iteration:
//!
//! 1. A computes its local activations `u_A = X_A·w_A`, quantizes and
//!    encrypts them under the arbiter's public key — the **encrypt** step,
//! 2. B folds in its share and the linearised sigmoid (FATE's Taylor
//!    approximation `σ(z) ≈ 0.25 z + 0.5`):
//!    `[[d]] = 0.25·([[u_A]] + u_B) + 0.5 − y` — the **add_vec** step,
//! 3. both parties compute encrypted gradients `[[∇]] = Xᵀ·[[d]]` — the
//!    **matvec** step, by Paillier scalar-mult loops (FATE's original
//!    algorithm) or by the CHAM coefficient-encoded HMVP,
//! 4. the arbiter decrypts, averages, applies SGD, and returns updated
//!    weights — the **decrypt** step.
//!
//! Fixed-point budget: a gradient coefficient accumulates
//! `Σ_i (X·2^fx)(d·2^fd)` over the batch; the scales are chosen per batch
//! size so the sum stays within `±t/2` ([`LrConfig::plan_scales`]). With
//! mini-batching and HMVP column tiling this supports "data of any scale"
//! (§V-B.3).

use crate::datasets::VerticalDataset;
use crate::fixed::FixedCodec;
use crate::paillier::{PaillierPrivateKey, PaillierVector};
use crate::protocol::{rlwe_ciphertext_bytes, Role, Transcript};
use crate::{AppError, Result};
use cham_he::encoding::CoeffEncoder;
use cham_he::encrypt::{Decryptor, Encryptor, PublicKey};
use cham_he::hmvp::{Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, SecretKey};
use cham_he::ops::add_plain;
use cham_he::params::{ChamParams, ChamParamsBuilder};
use rand::Rng;
use std::time::Instant;

/// The plaintext modulus HeteroLR uses: `2^24 + 1` (odd, so packing decode
/// factors invert; large enough for the gradient accumulation budget).
pub const LR_PLAIN_MODULUS: u64 = (1 << 24) + 1;

/// Which cryptosystem carries the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrBackend {
    /// B/FV with coefficient-encoded HMVP (this work).
    Bfv,
    /// Element-wise Paillier (FATE's original algorithm).
    Paillier {
        /// Modulus size in bits (paper deployments use 2048; tests use
        /// smaller for speed — see DESIGN.md).
        modulus_bits: u32,
    },
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct LrConfig {
    /// Gradient-descent iterations.
    pub iterations: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Mini-batch size (`None` = full batch).
    pub batch_size: Option<usize>,
    /// Crypto backend.
    pub backend: LrBackend,
    /// Ring degree for the B/FV backend.
    pub degree: usize,
}

impl Default for LrConfig {
    fn default() -> Self {
        Self {
            iterations: 10,
            learning_rate: 0.5,
            batch_size: None,
            backend: LrBackend::Bfv,
            degree: 4096,
        }
    }
}

impl LrConfig {
    /// Chooses `(fx, fd)` fractional bits so the batch accumulation fits:
    /// `log2(batch) + fx + fd + 2 ≤ log2(t/2)`.
    pub fn plan_scales(batch: usize, t: u64) -> (u32, u32) {
        let cap = 63 - (t / 2).leading_zeros(); // log2(t/2)
        let budget =
            cap.saturating_sub(2 + usize::BITS - batch.next_power_of_two().leading_zeros() - 1);
        let fx = (budget / 2).clamp(2, 6);
        let fd = (budget.saturating_sub(fx)).clamp(2, 8);
        (fx, fd)
    }
}

/// Per-iteration wall-clock timings of the four Fig. 7 steps, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTiming {
    /// Party A's activation encryption.
    pub encrypt: f64,
    /// Party B's homomorphic residual computation.
    pub add_vec: f64,
    /// Both parties' encrypted gradient matvecs.
    pub matvec: f64,
    /// The arbiter's gradient decryption.
    pub decrypt: f64,
    /// What the matvec step would cost on the modelled CHAM accelerator
    /// (populated for the B/FV backend; zero for Paillier).
    pub matvec_simulated: f64,
}

impl StepTiming {
    /// Total step time (measured software path).
    pub fn total(&self) -> f64 {
        self.encrypt + self.add_vec + self.matvec + self.decrypt
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainingResult {
    /// Party A's weights.
    pub weights_a: Vec<f64>,
    /// Party B's weights.
    pub weights_b: Vec<f64>,
    /// Training accuracy after each iteration.
    pub accuracy_history: Vec<f64>,
    /// Measured timings per iteration.
    pub timings: Vec<StepTiming>,
    /// Communication transcript.
    pub transcript: Transcript,
}

/// The HeteroLR driver: owns the arbiter's keys and runs the three-role
/// protocol in-process.
pub struct HeteroLr {
    config: LrConfig,
    // B/FV state (present for the Bfv backend).
    bfv: Option<BfvState>,
    paillier: Option<PaillierPrivateKey>,
}

struct BfvState {
    params: ChamParams,
    encryptor: Encryptor,
    decryptor: Decryptor,
    public_key: PublicKey,
    gkeys: GaloisKeys,
    hmvp: Hmvp,
    coder: CoeffEncoder,
}

impl std::fmt::Debug for HeteroLr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeteroLr")
            .field("config", &self.config)
            .field(
                "backend_ready",
                &(self.bfv.is_some() || self.paillier.is_some()),
            )
            .finish()
    }
}

impl HeteroLr {
    /// Sets up keys for the configured backend.
    ///
    /// # Errors
    /// Parameter/keygen failures from the HE layer.
    pub fn new<R: Rng + ?Sized>(config: LrConfig, rng: &mut R) -> Result<Self> {
        match config.backend {
            LrBackend::Bfv => {
                let params = ChamParamsBuilder::new()
                    .degree(config.degree)
                    .plain_modulus(LR_PLAIN_MODULUS)
                    .build()?;
                let sk = SecretKey::generate(&params, rng);
                let encryptor = Encryptor::new(&params, &sk);
                let decryptor = Decryptor::new(&params, &sk);
                let public_key = PublicKey::generate(&sk, rng);
                let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), rng)?;
                let hmvp = Hmvp::new(&params);
                let coder = CoeffEncoder::new(&params);
                Ok(Self {
                    config,
                    bfv: Some(BfvState {
                        params,
                        encryptor,
                        decryptor,
                        public_key,
                        gkeys,
                        hmvp,
                        coder,
                    }),
                    paillier: None,
                })
            }
            LrBackend::Paillier { modulus_bits } => Ok(Self {
                config,
                bfv: None,
                paillier: Some(PaillierPrivateKey::generate(modulus_bits, rng)),
            }),
        }
    }

    /// Trains on a dataset, returning weights, accuracy history, and the
    /// measured per-step timings.
    ///
    /// # Errors
    /// [`AppError::InvalidConfig`] for an empty dataset or a zero batch
    /// size; shape or overflow failures from the fixed-point plan.
    pub fn train<R: Rng + ?Sized>(
        &self,
        data: &VerticalDataset,
        rng: &mut R,
    ) -> Result<TrainingResult> {
        if data.samples() == 0 {
            return Err(AppError::InvalidConfig("dataset is empty"));
        }
        if self.config.batch_size == Some(0) {
            return Err(AppError::InvalidConfig("batch size must be positive"));
        }
        let da = data.features_a[0].len();
        let db = data.features_b[0].len();
        let mut wa = vec![0.0f64; da];
        let mut wb = vec![0.0f64; db];
        let mut timings = Vec::with_capacity(self.config.iterations);
        let mut accuracy_history = Vec::with_capacity(self.config.iterations);
        let mut transcript = Transcript::new();
        let n_samples = data.samples();
        let batch = self.config.batch_size.unwrap_or(n_samples).min(n_samples);

        for it in 0..self.config.iterations {
            let start = (it * batch) % n_samples;
            let idx: Vec<usize> = (0..batch).map(|k| (start + k) % n_samples).collect();
            let timing = match self.config.backend {
                LrBackend::Bfv => {
                    self.bfv_step(data, &idx, &mut wa, &mut wb, &mut transcript, rng)?
                }
                LrBackend::Paillier { .. } => {
                    self.paillier_step(data, &idx, &mut wa, &mut wb, &mut transcript, rng)?
                }
            };
            timings.push(timing);
            accuracy_history.push(data.accuracy(&wa, &wb));
        }
        Ok(TrainingResult {
            weights_a: wa,
            weights_b: wb,
            accuracy_history,
            timings,
            transcript,
        })
    }

    /// Computes the residual `d = 0.25(u_A+u_B) + 0.5 − y` ingredients.
    fn local_activations(
        data: &VerticalDataset,
        idx: &[usize],
        wa: &[f64],
        wb: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let u_a: Vec<f64> = idx
            .iter()
            .map(|&i| data.features_a[i].iter().zip(wa).map(|(x, w)| x * w).sum())
            .collect();
        let u_b: Vec<f64> = idx
            .iter()
            .map(|&i| data.features_b[i].iter().zip(wb).map(|(x, w)| x * w).sum())
            .collect();
        let y: Vec<f64> = idx.iter().map(|&i| data.labels[i]).collect();
        (u_a, u_b, y)
    }

    fn bfv_step<R: Rng + ?Sized>(
        &self,
        data: &VerticalDataset,
        idx: &[usize],
        wa: &mut [f64],
        wb: &mut [f64],
        transcript: &mut Transcript,
        rng: &mut R,
    ) -> Result<StepTiming> {
        let st = self.bfv.as_ref().expect("bfv backend initialised");
        let t = st.params.plain_modulus();
        let batch = idx.len();
        let (fx, fd) = LrConfig::plan_scales(batch, t.value());
        // d's carried scale: u_A is encrypted at fd bits; the ·0.25 folds
        // into B's plain constants by encoding them at fd too.
        let codec_d = FixedCodec::new(*t, fd)?;
        let codec_x = FixedCodec::new(*t, fx)?;
        let mut timing = StepTiming::default();

        // --- Party A: encrypt 0.25·u_A at scale fd (one ciphertext per
        // N-sample chunk; mini-batches beyond the ring degree tile). ---
        let (u_a, u_b, y) = Self::local_activations(data, idx, wa, wb);
        let n_ring = st.params.degree();
        let t0 = Instant::now();
        let qa: Vec<u64> = u_a
            .iter()
            .map(|&u| codec_d.encode(0.25 * u))
            .collect::<Result<_>>()?;
        let ct_ua: Vec<_> = qa
            .chunks(n_ring)
            .map(|chunk| {
                let pt = st.coder.encode_vector(chunk)?;
                st.encryptor
                    .encrypt_with_pk(&st.public_key, &pt, rng)
                    .map_err(crate::AppError::He)
            })
            .collect::<Result<_>>()?;
        timing.encrypt = t0.elapsed().as_secs_f64();
        for ct in &ct_ua {
            transcript.send(
                Role::PartyA,
                Role::PartyB,
                "[[0.25 u_A]]",
                rlwe_ciphertext_bytes(ct),
            );
        }

        // --- Party B: [[d]] = [[0.25 u_A]] + (0.25 u_B + 0.5 − y). ---
        let t1 = Instant::now();
        let plain_part: Vec<u64> = u_b
            .iter()
            .zip(&y)
            .map(|(&ub, &yi)| codec_d.encode(0.25 * ub + 0.5 - yi))
            .collect::<Result<_>>()?;
        let ct_d: Vec<_> = ct_ua
            .iter()
            .zip(plain_part.chunks(n_ring))
            .map(|(ct, chunk)| {
                let pt = st.coder.encode_vector(chunk)?;
                add_plain(ct, &pt, &st.params).map_err(crate::AppError::He)
            })
            .collect::<Result<_>>()?;
        timing.add_vec = t1.elapsed().as_secs_f64();
        for ct in &ct_d {
            transcript.send(
                Role::PartyB,
                Role::PartyA,
                "[[d]]",
                rlwe_ciphertext_bytes(ct),
            );
        }

        // --- Both parties: encrypted gradients via HMVP. ---
        let t2 = Instant::now();
        let grad_a_enc = self.bfv_gradient(st, data, idx, &ct_d, &codec_x, true)?;
        let grad_b_enc = self.bfv_gradient(st, data, idx, &ct_d, &codec_x, false)?;
        timing.matvec = t2.elapsed().as_secs_f64();
        // What the same two gradient matvecs would cost on the modelled
        // accelerator (features x batch HMVPs).
        let model = cham_sim::pipeline::HmvpCycleModel::new(
            cham_sim::config::ChamConfig::cham(),
            cham_sim::pipeline::RingShape {
                degree: st.params.degree(),
                aug_limbs: st.params.augmented_context().len(),
                ct_limbs: st.params.ciphertext_context().len(),
            },
        )
        .map_err(crate::AppError::Sim)?;
        timing.matvec_simulated = model.hmvp_seconds(data.features_a[0].len(), batch)
            + model.hmvp_seconds(data.features_b[0].len(), batch);
        for (label, res) in [("[[grad_A]]", &grad_a_enc), ("[[grad_B]]", &grad_b_enc)] {
            let bytes: usize = res
                .packed
                .iter()
                .map(|p| rlwe_ciphertext_bytes(&p.ciphertext))
                .sum();
            transcript.send(Role::PartyB, Role::Arbiter, label, bytes);
        }

        // --- Arbiter: decrypt, decode at scale fx+fd, average, update. ---
        let t3 = Instant::now();
        let ga_ring = st.hmvp.decrypt_result(&grad_a_enc, &st.decryptor)?;
        let gb_ring = st.hmvp.decrypt_result(&grad_b_enc, &st.decryptor)?;
        timing.decrypt = t3.elapsed().as_secs_f64();
        let scale = (1i64 << (fx + fd)) as f64 * batch as f64;
        let lr = self.config.learning_rate;
        for (w, &g) in wa.iter_mut().zip(&ga_ring) {
            *w -= lr * t.center(g) as f64 / scale;
        }
        for (w, &g) in wb.iter_mut().zip(&gb_ring) {
            *w -= lr * t.center(g) as f64 / scale;
        }
        transcript.send(Role::Arbiter, Role::PartyA, "w_A", wa.len() * 8);
        transcript.send(Role::Arbiter, Role::PartyB, "w_B", wb.len() * 8);
        Ok(timing)
    }

    /// `Xᵀ·[[d]]` for one party's feature block, as an HMVP.
    fn bfv_gradient(
        &self,
        st: &BfvState,
        data: &VerticalDataset,
        idx: &[usize],
        ct_d: &[cham_he::prelude::RlweCiphertext],
        codec_x: &FixedCodec,
        party_a: bool,
    ) -> Result<cham_he::hmvp::HmvpResult> {
        let feats = if party_a {
            &data.features_a
        } else {
            &data.features_b
        };
        let d = feats[0].len();
        let batch = idx.len();
        // X^T: d rows × batch cols, quantized at fx bits.
        let mut mat = Vec::with_capacity(d * batch);
        for j in 0..d {
            for &i in idx {
                mat.push(codec_x.encode(feats[i][j])?);
            }
        }
        let matrix = Matrix::from_data(d, batch, mat)?;
        let em = st.hmvp.encode_matrix(&matrix)?;
        Ok(st.hmvp.multiply(&em, ct_d, &st.gkeys)?)
    }

    fn paillier_step<R: Rng + ?Sized>(
        &self,
        data: &VerticalDataset,
        idx: &[usize],
        wa: &mut [f64],
        wb: &mut [f64],
        transcript: &mut Transcript,
        rng: &mut R,
    ) -> Result<StepTiming> {
        let sk = self
            .paillier
            .as_ref()
            .expect("paillier backend initialised");
        let pk = sk.public_key().clone();
        let batch = idx.len();
        // Paillier's plaintext space is huge; generous fixed scales.
        let (fx, fd) = (8u32, 8u32);
        let mut timing = StepTiming::default();

        let (u_a, u_b, y) = Self::local_activations(data, idx, wa, wb);
        // --- A: element-wise encryption of 0.25·u_A. ---
        let t0 = Instant::now();
        let qa: Vec<i64> = u_a
            .iter()
            .map(|&u| (0.25 * u * (1i64 << fd) as f64).round() as i64)
            .collect();
        let ct_ua = PaillierVector::encrypt(&pk, &qa, rng)?;
        timing.encrypt = t0.elapsed().as_secs_f64();
        transcript.send(
            Role::PartyA,
            Role::PartyB,
            "[[0.25 u_A]]",
            ct_ua.elements.len() * 64,
        );

        // --- B: [[d]] via add_plain per element. ---
        let t1 = Instant::now();
        let n = pk.modulus().clone();
        let d_cts: Vec<_> = ct_ua
            .elements
            .iter()
            .zip(u_b.iter().zip(&y))
            .map(|(ct, (&ub, &yi))| {
                let v = (((0.25 * ub) + 0.5 - yi) * (1i64 << fd) as f64).round() as i64;
                let m = if v >= 0 {
                    crate::bigint::BigUint::from_u64(v as u64)
                } else {
                    n.sub(&crate::bigint::BigUint::from_u64(v.unsigned_abs()))
                };
                pk.add_plain(ct, &m)
            })
            .collect();
        let d_vec = PaillierVector { elements: d_cts };
        timing.add_vec = t1.elapsed().as_secs_f64();

        // --- Both gradients: scalar-mult matvec. ---
        let t2 = Instant::now();
        let quant = |feats: &Vec<Vec<f64>>, j: usize| -> Vec<i64> {
            idx.iter()
                .map(|&i| (feats[i][j] * (1i64 << fx) as f64).round() as i64)
                .collect()
        };
        let rows_a: Vec<Vec<i64>> = (0..wa.len()).map(|j| quant(&data.features_a, j)).collect();
        let rows_b: Vec<Vec<i64>> = (0..wb.len()).map(|j| quant(&data.features_b, j)).collect();
        let ga = d_vec.matvec(&pk, &rows_a)?;
        let gb = d_vec.matvec(&pk, &rows_b)?;
        timing.matvec = t2.elapsed().as_secs_f64();
        transcript.send(
            Role::PartyB,
            Role::Arbiter,
            "[[grads]]",
            (ga.elements.len() + gb.elements.len()) * 64,
        );

        // --- Arbiter: decrypt and update. ---
        let t3 = Instant::now();
        let scale = (1i64 << (fx + fd)) as f64 * batch as f64;
        let lr = self.config.learning_rate;
        for (w, ct) in wa.iter_mut().zip(&ga.elements) {
            *w -= lr * sk.decrypt_signed(ct) as f64 / scale;
        }
        for (w, ct) in wb.iter_mut().zip(&gb.elements) {
            *w -= lr * sk.decrypt_signed(ct) as f64 / scale;
        }
        timing.decrypt = t3.elapsed().as_secs_f64();
        Ok(timing)
    }
}

/// Cleartext reference trainer (same linearised sigmoid), for validating
/// the encrypted gradients.
pub fn train_plain(data: &VerticalDataset, config: &LrConfig) -> TrainingResult {
    let da = data.features_a[0].len();
    let db = data.features_b[0].len();
    let mut wa = vec![0.0f64; da];
    let mut wb = vec![0.0f64; db];
    let mut accuracy_history = Vec::new();
    let n = data.samples();
    let batch = config.batch_size.unwrap_or(n).min(n);
    for it in 0..config.iterations {
        let start = (it * batch) % n;
        let idx: Vec<usize> = (0..batch).map(|k| (start + k) % n).collect();
        let (u_a, u_b, y) = HeteroLr::local_activations(data, &idx, &wa, &wb);
        let d: Vec<f64> = u_a
            .iter()
            .zip(&u_b)
            .zip(&y)
            .map(|((ua, ub), yi)| 0.25 * (ua + ub) + 0.5 - yi)
            .collect();
        for j in 0..da {
            let g: f64 = idx
                .iter()
                .zip(&d)
                .map(|(&i, di)| data.features_a[i][j] * di)
                .sum::<f64>()
                / batch as f64;
            wa[j] -= config.learning_rate * g;
        }
        for j in 0..db {
            let g: f64 = idx
                .iter()
                .zip(&d)
                .map(|(&i, di)| data.features_b[i][j] * di)
                .sum::<f64>()
                / batch as f64;
            wb[j] -= config.learning_rate * g;
        }
        accuracy_history.push(data.accuracy(&wa, &wb));
    }
    TrainingResult {
        weights_a: wa,
        weights_b: wb,
        accuracy_history,
        timings: vec![],
        transcript: Transcript::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn small_config() -> LrConfig {
        LrConfig {
            iterations: 12,
            learning_rate: 1.0,
            batch_size: None,
            backend: LrBackend::Bfv,
            degree: 256,
        }
    }

    #[test]
    fn scale_planning_respects_budget() {
        for batch in [16usize, 256, 4096, 8192] {
            let (fx, fd) = LrConfig::plan_scales(batch, LR_PLAIN_MODULUS);
            let cap = 23u32; // log2(t/2)
            let lg = batch.next_power_of_two().trailing_zeros();
            assert!(
                fx + fd + lg + 2 <= cap + 1,
                "batch {batch}: fx={fx} fd={fd}"
            );
            assert!(fx >= 2 && fd >= 2);
        }
    }

    #[test]
    fn bfv_training_converges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let data = VerticalDataset::generate(128, 3, 3, 0.02, &mut rng);
        let lr = HeteroLr::new(small_config(), &mut rng).unwrap();
        let result = lr.train(&data, &mut rng).unwrap();
        let final_acc = *result.accuracy_history.last().unwrap();
        assert!(final_acc > 0.85, "accuracy {final_acc}");
        assert_eq!(result.timings.len(), 12);
        assert!(result.timings.iter().all(|t| t.total() > 0.0));
        // The simulated accelerator path is populated and far cheaper than
        // the software matvec.
        assert!(result.timings.iter().all(|t| t.matvec_simulated > 0.0));
        assert!(result
            .timings
            .iter()
            .all(|t| t.matvec_simulated <= t.matvec));
        assert!(result.transcript.total_bytes() > 0);
    }

    #[test]
    fn bfv_matches_plain_reference_closely() {
        // One iteration of encrypted training ≈ one iteration of the plain
        // reference (up to quantization error).
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let data = VerticalDataset::generate(64, 3, 2, 0.0, &mut rng);
        let cfg = LrConfig {
            iterations: 1,
            ..small_config()
        };
        let lr = HeteroLr::new(cfg.clone(), &mut rng).unwrap();
        let enc = lr.train(&data, &mut rng).unwrap();
        let plain = train_plain(&data, &cfg);
        for (a, b) in enc.weights_a.iter().zip(&plain.weights_a) {
            assert!((a - b).abs() < 0.05, "enc {a} plain {b}");
        }
        for (a, b) in enc.weights_b.iter().zip(&plain.weights_b) {
            assert!((a - b).abs() < 0.05, "enc {a} plain {b}");
        }
    }

    #[test]
    fn paillier_training_converges() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let data = VerticalDataset::generate(48, 2, 2, 0.0, &mut rng);
        let cfg = LrConfig {
            iterations: 8,
            learning_rate: 1.0,
            batch_size: None,
            backend: LrBackend::Paillier { modulus_bits: 96 },
            degree: 256,
        };
        let lr = HeteroLr::new(cfg, &mut rng).unwrap();
        let result = lr.train(&data, &mut rng).unwrap();
        let final_acc = *result.accuracy_history.last().unwrap();
        assert!(final_acc > 0.8, "accuracy {final_acc}");
    }

    #[test]
    fn mini_batch_runs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        let data = VerticalDataset::generate(100, 3, 3, 0.02, &mut rng);
        let cfg = LrConfig {
            batch_size: Some(32),
            iterations: 15,
            ..small_config()
        };
        let lr = HeteroLr::new(cfg, &mut rng).unwrap();
        let result = lr.train(&data, &mut rng).unwrap();
        assert!(*result.accuracy_history.last().unwrap() > 0.7);
    }

    #[test]
    fn plain_reference_learns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(46);
        let data = VerticalDataset::generate(200, 4, 4, 0.02, &mut rng);
        let result = train_plain(&data, &small_config());
        assert!(*result.accuracy_history.last().unwrap() > 0.85);
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let data = VerticalDataset::generate(10, 2, 2, 0.0, &mut rng);
        let lr = HeteroLr::new(small_config(), &mut rng).unwrap();
        let empty = VerticalDataset {
            features_a: vec![],
            features_b: vec![],
            labels: vec![],
            true_weights: vec![],
        };
        assert!(matches!(
            lr.train(&empty, &mut rng),
            Err(AppError::InvalidConfig(_))
        ));
        let cfg = LrConfig {
            batch_size: Some(0),
            ..small_config()
        };
        let lr = HeteroLr::new(cfg, &mut rng).unwrap();
        assert!(matches!(
            lr.train(&data, &mut rng),
            Err(AppError::InvalidConfig(_))
        ));
    }
}
