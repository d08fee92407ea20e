//! # cham-bench — the figure/table reproduction harness
//!
//! One binary per paper artifact (run with `cargo run -p cham-bench
//! --release --bin <name>`); each prints its tables to stdout:
//!
//! | binary | artifact | arguments |
//! |--------|----------|-----------|
//! | `fig2a_roofline` | Fig. 2a roofline: NTT / key-switch / HMVP intensity | none |
//! | `fig2b_dse` | Fig. 2b design-space exploration | none |
//! | `table2_resources` | Table II resource utilisation | none |
//! | `table3_ntt` | Table III NTT comparison + throughput claims | `--threads n` |
//! | `fig6_throughput` | Fig. 6 HMVP throughput vs matrix shape | none |
//! | `fig8_hmvp` | Fig. 8 HMVP latency: CPU vs GPU vs CHAM | `--threads n` |
//! | `fig7ab_heterolr` | Fig. 7a/7b HeteroLR step breakdown | `--threads n` |
//! | `fig7c_beaver` | Fig. 7c Beaver triple generation | `--threads n` |
//! | `headline` | the abstract's 1800× / 36× / 144× claims | `--threads n` |
//! | `ablation_fused` | fused pipeline vs op-by-op invocation (§III-B) | none |
//! | `sensitivity` | clock / DDR bandwidth / engine-count sweeps | none |
//! | `golden_dump` | RTL golden vectors | positional `degree per_unit seed` |
//!
//! The five binaries that run HE take `--threads n` (default 1, parsed by
//! [`threads_from_env`]), which fixes the process thread budget; the
//! model-only ones take no argument ([`no_args`]).
//!
//! This library holds the shared measurement helpers: CPU-baseline timing
//! of the software HE stack with extrapolation to paper-scale shapes, and
//! table formatting.

#![warn(missing_docs)]
use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::extract::extract_lwe;
use cham_he::hmvp::{EncodedMatrix, Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, KeySwitchKey, SecretKey};
use cham_he::ops::{keyswitch_mask, mul_plain_prepared, rescale};
use cham_he::pack::pack_two;
use cham_he::params::ChamParams;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A deterministic RNG for reproducible measurements.
pub fn bench_rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0xCAB1E)
}

/// Parses the one flag of the binaries that run HE, `--threads <n>`: the
/// CPU-baseline parallelism for measurements that support it (see
/// [`CpuCosts::measure_with_threads`]), default 1. `Ok(None)` means
/// `--help`.
///
/// # Errors
/// A message naming the bad argument: `--threads` without a positive
/// integer after it, or any other argument.
pub fn parse_threads(args: impl IntoIterator<Item = String>) -> Result<Option<usize>, String> {
    let mut threads = 1;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => return Err("--threads requires a positive integer".into()),
            },
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(threads))
}

/// [`parse_threads`] over the process arguments of the binary `name`,
/// which then fixes the process thread budget at the parsed value
/// (`cham_pool::configure_global`, which outranks `CHAM_POOL_THREADS`;
/// only an earlier read of the budget in-process wins over it), so entry
/// points without a cap of their own (`Hmvp::multiply`, `pack_lwes`) fan
/// out over exactly this many threads. Prints usage and exits with status
/// 0 on `--help`.
///
/// # Errors
/// The [`parse_threads`] error; `main` passes it to [`usage_error`].
pub fn threads_from_env(name: &str) -> Result<usize, String> {
    let Some(threads) = parse_threads(std::env::args().skip(1))? else {
        println!("usage: {name} [--threads <n>]");
        println!("  --threads <n>  CPU-baseline thread count (default 1)");
        std::process::exit(0);
    };
    cham_pool::configure_global(threads);
    Ok(threads)
}

/// The CLI of the model-only binaries, which take no argument: `--help`
/// prints usage and exits with status 0, any other argument exits with
/// status 2.
pub fn no_args(name: &str) {
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--help" | "-h") => {
            println!("usage: {name}");
            std::process::exit(0);
        }
        Some(other) => usage_error(&format!("unknown argument `{other}`")),
    }
}

/// Prints an argument error and exits with status 2.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message} (try --help)");
    std::process::exit(2);
}

/// Measured per-operation CPU costs of the software HE stack at the
/// paper's full parameters (`N = 4096`), used to extrapolate CPU baselines
/// to paper-scale workloads without running hours of software HE.
#[derive(Debug, Clone, Copy)]
pub struct CpuCosts {
    /// One augmented symmetric encryption (seconds).
    pub encrypt: f64,
    /// One per-row dot product: prepared-plaintext multiply + rescale +
    /// extract (seconds).
    pub dot_row: f64,
    /// One `PACKTWOLWES` reduction: automorphism + key-switch (seconds).
    pub pack_reduction: f64,
    /// One raw key-switch of a mask polynomial (seconds).
    pub keyswitch: f64,
    /// One full decryption (seconds).
    pub decrypt: f64,
    /// One limb NTT of size `N` (seconds).
    pub ntt: f64,
}

impl CpuCosts {
    /// Measures the cost table on this machine at the given parameters,
    /// single-threaded (the paper's CPU baseline).
    ///
    /// # Panics
    /// Panics if key setup fails (cannot happen for valid parameters).
    pub fn measure(params: &ChamParams) -> Self {
        Self::measure_with_threads(params, 1)
    }

    /// [`Self::measure`] with `threads`-way parallelism for the per-row
    /// dot product (the only stage the HMVP pipeline parallelizes): the
    /// amortized `dot_row` is measured over a `threads`-row matrix run
    /// through `dot_products_parallel`, so extrapolations reflect the
    /// multi-threaded CPU baseline selected by `--threads`.
    ///
    /// # Panics
    /// Panics if key setup fails (cannot happen for valid parameters).
    pub fn measure_with_threads(params: &ChamParams, threads: usize) -> Self {
        let threads = threads.max(1);
        let mut rng = bench_rng();
        let sk = SecretKey::generate(params, &mut rng);
        let enc = Encryptor::new(params, &sk);
        let dec = Decryptor::new(params, &sk);
        let coder = cham_he::encoding::CoeffEncoder::new(params);
        let hmvp = Hmvp::new(params);
        let t = params.plain_modulus().value();
        let n = params.degree();
        let v: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
        let pt = coder.encode_vector(&v).expect("vector fits");

        let reps = 3;
        let t0 = Instant::now();
        let mut ct = enc.encrypt_augmented(&pt, &mut rng);
        for _ in 1..reps {
            ct = enc.encrypt_augmented(&pt, &mut rng);
        }
        let encrypt = t0.elapsed().as_secs_f64() / reps as f64;

        // Per-row dot product with a prepared matrix, amortized over
        // `threads` rows so the fan-out's speedup lands in the figure.
        let rows = threads;
        let data: Vec<u64> = (0..rows * n).map(|_| rng.gen_range(0..t)).collect();
        let matrix = Matrix::from_data(rows, n, data).expect("shape");
        let em = hmvp.encode_matrix(&matrix).expect("encode");
        let t1 = Instant::now();
        for _ in 0..reps {
            let _ = hmvp
                .dot_products_parallel(&em, std::slice::from_ref(&ct), threads)
                .expect("dot");
        }
        let dot_row = t1.elapsed().as_secs_f64() / (reps * rows) as f64;

        // One pack reduction at level 1.
        let gkeys = GaloisKeys::generate_for_packing(&sk, 1, &mut rng).expect("gk");
        let row_pt = coder
            .encode_row(&(0..n).map(|_| rng.gen_range(0..t)).collect::<Vec<_>>())
            .expect("row fits");
        let prepared =
            cham_he::ops::lift_plaintext_ntt(&row_pt, params, params.augmented_context())
                .expect("lift");
        let prod = mul_plain_prepared(&ct, &prepared).expect("mul");
        let normal = rescale(&prod, params).expect("rescale");
        let lwe = extract_lwe(&normal, 0).expect("extract");
        let as_rlwe = cham_he::extract::lwe_to_rlwe(&lwe);
        let t2 = Instant::now();
        for _ in 0..reps {
            let _ = pack_two(1, &as_rlwe, &as_rlwe, &gkeys, params).expect("pack");
        }
        let pack_reduction = t2.elapsed().as_secs_f64() / reps as f64;

        // Raw key-switch.
        let ksk = KeySwitchKey::generate(&sk, sk.coeffs(), &mut rng).expect("ksk");
        let t3 = Instant::now();
        for _ in 0..reps {
            let _ = keyswitch_mask(normal.a(), &ksk, params).expect("ks");
        }
        let keyswitch = t3.elapsed().as_secs_f64() / reps as f64;

        let t4 = Instant::now();
        for _ in 0..reps {
            let _ = dec.decrypt(&normal);
        }
        let decrypt = t4.elapsed().as_secs_f64() / reps as f64;

        // One limb NTT.
        let q = params.ciphertext_context().moduli()[0];
        let table = cham_math::NttTable::new(n, q).expect("ntt");
        let mut poly: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let t5 = Instant::now();
        let ntt_reps = 20;
        for _ in 0..ntt_reps {
            table.forward(&mut poly);
        }
        let ntt = t5.elapsed().as_secs_f64() / ntt_reps as f64;

        Self {
            encrypt,
            dot_row,
            pack_reduction,
            keyswitch,
            decrypt,
            ntt,
        }
    }

    /// Extrapolated CPU seconds for a full `rows × cols` HMVP (dot
    /// products + packing; encryption/decryption excluded to match the
    /// paper's matvec step).
    pub fn hmvp_seconds(&self, rows: usize, cols: usize, degree: usize) -> f64 {
        let tiles = cols.div_ceil(degree) as f64;
        rows as f64 * self.dot_row * tiles + (rows.saturating_sub(1)) as f64 * self.pack_reduction
    }

    /// CPU key-switch throughput in ops/s.
    pub fn keyswitch_ops_per_sec(&self) -> f64 {
        1.0 / self.keyswitch
    }

    /// CPU NTT throughput in "NTT ops"/s using the paper's accounting
    /// (one op = one 3-limb plaintext transform).
    pub fn ntt_ops_per_sec(&self, aug_limbs: usize) -> f64 {
        1.0 / (self.ntt * aug_limbs as f64)
    }
}

/// A prepared dot-product-phase benchmark: one encoded `rows × cols` matrix
/// and one encrypted input vector (one ciphertext per `N`-column tile),
/// reusable across thread counts so a reported speedup ratio compares the
/// *same* work at different parallelism caps (the cap is the number of
/// threads the rows run on).
#[derive(Debug)]
pub struct DotPhaseBench {
    hmvp: Hmvp,
    em: EncodedMatrix,
    cts: Vec<RlweCiphertext>,
    rows: usize,
}

impl DotPhaseBench {
    /// Encrypts an input vector and encodes a random `rows × N` matrix at
    /// the given parameters.
    ///
    /// # Panics
    /// Panics if encoding/encryption fails (cannot happen for valid
    /// parameters and `rows ≥ 1`).
    #[must_use]
    pub fn prepare(params: &ChamParams, rows: usize) -> Self {
        Self::prepare_cols(params, rows, params.degree())
    }

    /// [`Self::prepare`] with an explicit column count: `⌈cols/N⌉` column
    /// tiles per row, so the per-row accumulation depth (the regime the
    /// fused kernel targets) scales with `cols`.
    ///
    /// # Panics
    /// Panics if encoding/encryption fails (cannot happen for valid
    /// parameters, `rows ≥ 1` and `cols ≥ 1`).
    #[must_use]
    pub fn prepare_cols(params: &ChamParams, rows: usize, cols: usize) -> Self {
        let mut rng = bench_rng();
        let sk = SecretKey::generate(params, &mut rng);
        let enc = Encryptor::new(params, &sk);
        let coder = cham_he::encoding::CoeffEncoder::new(params);
        let hmvp = Hmvp::new(params);
        let t = params.plain_modulus().value();
        let n = params.degree();
        let v: Vec<u64> = (0..cols).map(|_| rng.gen_range(0..t)).collect();
        let cts: Vec<RlweCiphertext> = v
            .chunks(n)
            .map(|tile| {
                enc.encrypt_augmented(&coder.encode_vector(tile).expect("vector fits"), &mut rng)
            })
            .collect();
        let data: Vec<u64> = (0..rows * cols).map(|_| rng.gen_range(0..t)).collect();
        let em = hmvp
            .encode_matrix(&Matrix::from_data(rows, cols, data).expect("shape"))
            .expect("encode");
        Self {
            hmvp,
            em,
            cts,
            rows,
        }
    }

    /// Number of matrix rows per run.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Best-of-`reps` wall-clock seconds for one dot-product phase through
    /// the fused path (`dot_products_parallel`: one `simd::row_product` per
    /// limb, sums held in registers and `b` an inner product, then the
    /// streaming row tail) at the given row-parallelism cap.
    ///
    /// # Panics
    /// Panics if the dot-product phase fails (cannot happen for the
    /// shapes [`DotPhaseBench::prepare`] builds).
    #[must_use]
    pub fn seconds(&self, threads: usize, reps: usize) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let _ = self
                .hmvp
                .dot_products_parallel(&self.em, &self.cts, threads)
                .expect("dot phase");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }

    /// Best-of-`reps` wall-clock seconds for one dot-product phase through
    /// the oracle path (`dot_products_unfused`): strict per-term
    /// MODMUL/MODADD with per-term allocations, then `rescale` +
    /// `extract_lwe` on a materialised ciphertext, serial over rows.
    /// Paired with [`DotPhaseBench::seconds`] at `threads = 1` this isolates
    /// the fused MAC + streaming row tail from thread parallelism.
    ///
    /// # Panics
    /// Panics if the dot-product phase fails (cannot happen for the
    /// shapes [`DotPhaseBench::prepare`] builds).
    #[must_use]
    pub fn seconds_unfused(&self, reps: usize) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            let _ = self
                .hmvp
                .dot_products_unfused(&self.em, &self.cts)
                .expect("dot phase");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    }
}

/// Cost model for the *original Delphi* triple generation: a batch-encoded
/// diagonal matvec with baby-step/giant-step rotations (GAZELLE-style),
/// evaluated on the CPU — `≈ 2√n` key-switches plus `n` slot-wise
/// multiply-accumulate passes per output block of `N/2` rows.
pub fn delphi_triple_seconds(cpu: &CpuCosts, rows: usize, cols: usize, degree: usize) -> f64 {
    let slots = (degree / 2) as f64;
    let blocks = (rows as f64 / slots).ceil();
    let rotations = 2.0 * (cols as f64).sqrt();
    // A slot-wise diagonal multiply-accumulate costs roughly one NTT-domain
    // pass of the dot-product pipeline (no INTT per diagonal).
    let diag_pass = cpu.dot_row * 0.3;
    blocks * (rotations * cpu.keyswitch + cols as f64 * diag_pass)
}

// The `eng`/`si` formatters moved to `cham_telemetry::fmt` (single home
// for human-number rendering); re-exported here so the figure binaries
// keep their `cham_bench::eng(..)` call sites.
pub use cham_telemetry::fmt::{eng, si};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers_and_help() {
        let args = |a: &[&str]| a.iter().map(ToString::to_string).collect::<Vec<_>>();
        assert_eq!(parse_threads(args(&[])), Ok(Some(1)));
        assert_eq!(parse_threads(args(&["--threads", "4"])), Ok(Some(4)));
        assert_eq!(parse_threads(args(&["--help"])), Ok(None));
        for bad in [
            &["--threads", "0"][..],
            &["--threads", "two"],
            &["--threads", "-1"],
            &["--threads"],
            &["--json", "out.json"],
        ] {
            assert!(parse_threads(args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn cpu_costs_measure_and_extrapolate() {
        // Measured at the reduced test parameters so the smoke test stays
        // fast; the figure binaries use the full N = 4096 set.
        let params = ChamParams::insecure_test_default().expect("test params");
        let costs = CpuCosts::measure(&params);
        for v in [
            costs.encrypt,
            costs.dot_row,
            costs.pack_reduction,
            costs.keyswitch,
            costs.decrypt,
            costs.ntt,
        ] {
            assert!(v > 0.0 && v.is_finite(), "cost {v}");
        }
        // Extrapolation is linear in rows and tiles.
        let n = params.degree();
        let one = costs.hmvp_seconds(64, n, n);
        let two_rows = costs.hmvp_seconds(128, n, n);
        assert!(two_rows > 1.8 * one && two_rows < 2.2 * one);
        let two_tiles = costs.hmvp_seconds(64, 2 * n, n);
        assert!(two_tiles > one);
        // Derived throughputs are positive.
        assert!(costs.keyswitch_ops_per_sec() > 0.0);
        assert!(costs.ntt_ops_per_sec(3) > 0.0);
    }

    #[test]
    fn delphi_model_scales_sanely() {
        let params = ChamParams::insecure_test_default().expect("test params");
        let costs = CpuCosts::measure(&params);
        let n = params.degree();
        let small = delphi_triple_seconds(&costs, 64, 64, n);
        let wide = delphi_triple_seconds(&costs, 64, 256, n);
        let tall = delphi_triple_seconds(&costs, 64 * n, 64, n);
        assert!(small > 0.0);
        assert!(wide > small, "more columns cost more");
        assert!(tall > small, "more row blocks cost more");
    }
}
