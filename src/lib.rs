//! # cham — reproduction of the CHAM homomorphic-encryption accelerator
//!
//! CHAM (DAC 2023, Ren et al.) is a customized FPGA accelerator for fast
//! *homomorphic matrix-vector product* (HMVP) over coefficient-encoded
//! B/FV ciphertexts, with LWE↔RLWE ciphertext conversion. This workspace
//! reimplements the complete system in pure Rust:
//!
//! * [`math`] (crate `cham-math`) — modular arithmetic, NTTs (iterative
//!   and constant-geometry), polynomial rings, RNS,
//! * [`he`] (crate `cham-he`) — the B/FV scheme, extraction/packing, and
//!   the HMVP algorithm with its batch-encoded baselines,
//! * [`sim`] (crate `cham-sim`) — the cycle-level accelerator model
//!   (pipeline, resources, roofline, DSE, host/FPGA overlap),
//! * [`apps`] (crate `cham-apps`) — HeteroLR federated logistic
//!   regression, Beaver triple generation, and the Paillier baseline,
//! * [`serve`] (crate `cham-serve`) — the HMVP service: framed TCP wire
//!   protocol, content-addressed session/key cache, one admission gate
//!   with deadlines and backpressure in front of the kernel.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use cham::he::prelude::*;
//! use cham::he::hmvp::Matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = ChamParams::insecure_test_default()?;
//! let sk = SecretKey::generate(&params, &mut rng);
//! let enc = Encryptor::new(&params, &sk);
//! let dec = Decryptor::new(&params, &sk);
//! let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng)?;
//!
//! // Encrypted A·v with the CHAM pipeline.
//! let t = params.plain_modulus();
//! let a = Matrix::random(8, 8, t.value(), &mut rng);
//! let v = vec![1u64; 8];
//! let hmvp = Hmvp::new(&params);
//! let cts = hmvp.encrypt_vector(&v, &enc, &mut rng)?;
//! let em = hmvp.encode_matrix(&a)?;
//! let result = hmvp.multiply(&em, &cts, &gkeys)?;
//! let out = hmvp.decrypt_result(&result, &dec)?;
//! assert_eq!(out, a.mul_vector_mod(&v, t)?);
//! # Ok::<(), cham::he::HeError>(())
//! ```

#![warn(missing_docs)]
/// Arithmetic substrate (re-export of `cham-math`).
pub use cham_math as math;

/// HE scheme and HMVP algorithm (re-export of `cham-he`).
pub use cham_he as he;

/// Cycle-level accelerator model (re-export of `cham-sim`).
pub use cham_sim as sim;

/// Privacy-preserving applications (re-export of `cham-apps`).
pub use cham_apps as apps;

/// HMVP serving layer (re-export of `cham-serve`).
pub use cham_serve as serve;
