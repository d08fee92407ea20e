//! # cham-bench — the figure/table reproduction harness
//!
//! One binary per paper artifact (run with `cargo run -p cham-bench
//! --release --bin <name>`):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig2a_roofline` | Fig. 2a roofline: NTT / key-switch / HMVP intensity |
//! | `fig2b_dse` | Fig. 2b design-space exploration |
//! | `table2_resources` | Table II resource utilisation |
//! | `table3_ntt` | Table III NTT comparison + throughput claims |
//! | `fig6_throughput` | Fig. 6 HMVP throughput vs matrix shape |
//! | `fig8_hmvp` | Fig. 8 HMVP latency: CPU vs GPU vs CHAM |
//! | `fig7ab_heterolr` | Fig. 7a/7b HeteroLR step breakdown |
//! | `fig7c_beaver` | Fig. 7c Beaver triple generation |
//! | `headline` | the abstract's 1800× / 36× / 144× claims |
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
use cham_telemetry::record::RunRecord;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// A deterministic RNG for reproducible measurements.
pub fn bench_rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0xCAB1E)
}

/// The shared CLI of every figure binary:
///
/// * `--json <path>` — write a structured [`RunRecord`]
///   (`cham-run-record/v1`, see `DESIGN.md` § Observability) when the
///   run finishes; it embeds the full counter/timer snapshot.
/// * `--threads <n>` — CPU-baseline parallelism for measurements that
///   support it (see [`CpuCosts::measure_with_threads`]). Defaults to 1;
///   always recorded as the `threads` param of the run record. The value
///   also sizes the process-global `cham-pool` kernel pool (unless
///   `CHAM_POOL_THREADS` or an earlier pool use already fixed its size),
///   so tile/row-parallel kernels fan out to exactly this many workers.
///
/// Binaries call [`BenchRun::from_env`] first, attach `param`s and
/// `metric`s while printing their usual tables, and end with
/// [`BenchRun::finish`].
#[derive(Debug)]
pub struct BenchRun {
    record: RunRecord,
    json_path: Option<PathBuf>,
    threads: usize,
}

impl BenchRun {
    /// Parses `std::env::args` for the benchmark `name`.
    ///
    /// Prints usage and exits with status 2 on unknown arguments, and
    /// with status 0 on `--help`.
    #[must_use]
    pub fn from_env(name: &str) -> Self {
        Self::from_args(name, std::env::args().skip(1))
    }

    /// [`Self::from_env`] over an explicit argument list (testable).
    #[must_use]
    pub fn from_args(name: &str, args: impl IntoIterator<Item = String>) -> Self {
        let mut json_path = None;
        let mut threads = 1usize;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => match args.next() {
                    Some(p) => json_path = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("error: --json requires a path");
                        std::process::exit(2);
                    }
                },
                "--threads" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => threads = n,
                    _ => {
                        eprintln!("error: --threads requires a positive integer");
                        std::process::exit(2);
                    }
                },
                "--help" | "-h" => {
                    println!("usage: {name} [--json <path>] [--threads <n>]");
                    println!("  --json <path>  write a cham-run-record/v1 JSON run record");
                    println!("  --threads <n>  CPU-baseline thread count (default 1)");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("error: unknown argument `{other}` (try --help)");
                    std::process::exit(2);
                }
            }
        }
        // Route --threads to the shared kernel pool. First configuration
        // wins pool-wide; an explicit CHAM_POOL_THREADS env (read on first
        // pool use) or an earlier benchmark in-process takes precedence.
        cham_pool::configure_global(threads);
        let mut record = RunRecord::start(name);
        record.param("threads", threads as u64);
        record.param("pool_threads", cham_pool::global().threads() as u64);
        // Active SIMD backend (resolves CHAM_SIMD on first use) so every
        // bench trajectory is attributable to the datapath that produced
        // it. `simd_requested` preserves the raw env (distinguishes an
        // explicit `scalar` pin from auto-resolution), and
        // `simd_expect_vector` is computed from raw feature detection —
        // independent of the Backend dispatch logic — so a dispatch bug
        // that silently falls back to scalar cannot mask itself.
        let backend = cham_math::Backend::active();
        let requested = std::env::var("CHAM_SIMD").unwrap_or_else(|_| "auto".into());
        #[cfg(target_arch = "x86_64")]
        let host_vector = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let host_vector = false;
        let expect_vector = host_vector && !requested.trim().eq_ignore_ascii_case("scalar");
        record.param("simd_backend", backend.name());
        record.param("simd_lanes", backend.lanes() as u64);
        record.param("simd_requested", requested);
        record.param("simd_expect_vector", u64::from(expect_vector));
        Self {
            record,
            json_path,
            threads,
        }
    }

    /// The `--threads` value (1 when the flag was not given).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Records an input parameter on the run record.
    pub fn param(
        &mut self,
        key: impl Into<String>,
        value: impl Into<cham_telemetry::json::JsonValue>,
    ) -> &mut Self {
        self.record.param(key, value);
        self
    }

    /// Records a result metric on the run record.
    pub fn metric(
        &mut self,
        key: impl Into<String>,
        value: impl Into<cham_telemetry::json::JsonValue>,
    ) -> &mut Self {
        self.record.metric(key, value);
        self
    }

    /// Stops the wall clock and, when `--json` was given, writes the
    /// record (panicking on I/O errors — a benchmark that cannot write
    /// its results should fail loudly).
    ///
    /// Pool activity (`pool_tasks`, `pool_steals`, `pool_parks`,
    /// `pool_idle_ns`) is snapshotted into the record's metrics: the
    /// pool's counters are per instance, so they are not in the record's
    /// process-wide `counters` object.
    ///
    /// # Panics
    /// Panics when the record file cannot be written.
    pub fn finish(mut self) {
        if let Some(stats) = cham_pool::global_stats() {
            self.record.metric("pool_tasks", stats.tasks);
            self.record.metric("pool_steals", stats.steals);
            self.record.metric("pool_parks", stats.parks);
            self.record.metric("pool_idle_ns", stats.idle_ns);
        }
        self.record.finish();
        if let Some(path) = &self.json_path {
            self.record
                .write(path)
                .unwrap_or_else(|e| panic!("writing run record {}: {e}", path.display()));
            // stderr: several binaries have their stdout redirected into
            // result files (e.g. golden_dump).
            eprintln!("wrote run record to {}", path.display());
        }
    }
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
        // `threads` rows so thread-pool speedup lands in the figure.
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
/// *same* work at different parallelism caps (the pool itself stays at its
/// configured size; the cap bounds how many row tasks run concurrently).
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

    /// Best-of-`reps` wall-clock seconds for one dot-product phase at the
    /// given row-parallelism cap.
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
    /// the fused MAC + streaming row tail from pool parallelism.
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
    fn bench_run_parses_json_flag() {
        let run = BenchRun::from_args("t", ["--json".to_string(), "/tmp/x.json".to_string()]);
        assert_eq!(
            run.json_path.as_deref(),
            Some(std::path::Path::new("/tmp/x.json"))
        );
        let run = BenchRun::from_args("t", std::iter::empty());
        assert!(run.json_path.is_none());
    }

    #[test]
    fn bench_run_writes_record() {
        let dir = std::env::temp_dir().join("cham_bench_run_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rec.json");
        let mut run = BenchRun::from_args(
            "unit",
            ["--json".into(), path.to_str().unwrap().to_string()],
        );
        run.param("rows", 8u64);
        run.metric("speedup", 2.5f64);
        run.finish();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"schema\": \"cham-run-record/v1\""));
        assert!(body.contains("\"name\": \"unit\""));
        assert!(body.contains("\"rows\": 8"));
        assert!(body.contains("\"speedup\": 2.5"));
        std::fs::remove_dir_all(&dir).ok();
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
