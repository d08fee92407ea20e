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
//! This library holds the shared measurement helpers: [`Timing`], the one
//! timer of every CPU figure the binaries print (one untimed call, then
//! timed ones; `median (min–max)`), [`CpuHmvp`], the CPU baseline of
//! every HMVP the binaries compare against (a decrypt-verified
//! `multiply_parallel` timed at the compared shape, median of
//! [`HMVP_REPS`]), [`CpuCosts`], the per-operation costs of the cost
//! models (each the fastest of [`COST_REPS`]), and table formatting.

#![warn(missing_docs)]
use cham_he::ciphertext::RlweCiphertext;
use cham_he::encrypt::{Decryptor, Encryptor};
use cham_he::hmvp::{EncodedMatrix, Hmvp, Matrix};
use cham_he::keys::{GaloisKeys, KeySwitchKey, SecretKey};
use cham_he::ops::{keyswitch_mask, lift_plaintext_ntt, mul_plain_prepared};
use cham_he::params::ChamParams;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A deterministic RNG for reproducible measurements.
pub fn bench_rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0xCAB1E)
}

/// Parses the one flag of the binaries that run HE, `--threads <n>`: the
/// CPU-baseline parallelism, the cap of every [`CpuHmvp`] product,
/// default 1. `Ok(None)` means `--help`.
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
/// paper's full parameters (`N = 4096`): the inputs of the models whose
/// work is a count of these operations (HeteroLR's host steps, the
/// Delphi baseline, Table III's throughputs). An HMVP is never modelled
/// from them; [`CpuHmvp`] times it.
#[derive(Debug, Clone, Copy)]
pub struct CpuCosts {
    /// One augmented symmetric encryption (seconds).
    pub encrypt: f64,
    /// One ciphertext `add` of two augmented ciphertexts (seconds).
    pub add: f64,
    /// One raw key-switch of a mask polynomial (seconds).
    pub keyswitch: f64,
    /// One full decryption (seconds).
    pub decrypt: f64,
    /// One limb NTT of size `N` (seconds).
    pub ntt: f64,
    /// One diagonal pass of a BSGS matvec: a slot-wise product of the
    /// augmented input ciphertext with a prepared plaintext, added into
    /// an accumulator (seconds).
    pub diag_pass: f64,
}

impl CpuCosts {
    /// Measures the cost table on this machine at the given parameters,
    /// single-threaded (the paper's CPU baseline): each cost is the
    /// [`Timing::min`] of [`COST_REPS`] timed calls.
    ///
    /// # Panics
    /// Panics if key setup fails (cannot happen for valid parameters).
    pub fn measure(params: &ChamParams) -> Self {
        let mut rng = bench_rng();
        let sk = SecretKey::generate(params, &mut rng);
        let enc = Encryptor::new(params, &sk);
        let dec = Decryptor::new(params, &sk);
        let coder = cham_he::encoding::CoeffEncoder::new(params);
        let t = params.plain_modulus().value();
        let n = params.degree();
        let mut random = || (0..n).map(|_| rng.gen_range(0..t)).collect::<Vec<u64>>();
        let pt = coder.encode_vector(&random()).expect("vector fits");
        let diagonal = coder.encode_row(&random()).expect("row fits");
        let diagonal =
            lift_plaintext_ntt(&diagonal, params, params.augmented_context()).expect("lift");

        let encrypt = Timing::of(COST_REPS, || enc.encrypt_augmented(&pt, &mut rng)).min;
        let mut ct = enc.encrypt_augmented(&pt, &mut rng);
        let other = enc.encrypt_augmented(&pt, &mut rng);
        let add = Timing::of(COST_REPS, || ct.add(&other).expect("add")).min;
        // The Delphi pass multiplies a coefficient-form ciphertext (its
        // transforms are part of the pass): the input is converted once,
        // outside the timer.
        ct.to_coeff();
        let mut acc = ct.zero_like();
        let diag_pass = Timing::of(COST_REPS, || {
            let product = mul_plain_prepared(&ct, &diagonal).expect("mul");
            acc = acc.add(&product).expect("add");
        })
        .min;

        // Raw key-switch, and a decryption, of a normal-basis ciphertext in
        // coefficient form, as the pack's key-switch and a reply's
        // decryption read it (converted outside the timers).
        let mut normal = enc.encrypt(&pt, &mut rng);
        normal.to_coeff();
        let ksk = KeySwitchKey::generate(&sk, sk.coeffs(), &mut rng).expect("ksk");
        let keyswitch = Timing::of(COST_REPS, || {
            keyswitch_mask(normal.a(), &ksk, params).expect("ks")
        })
        .min;
        let decrypt = Timing::of(COST_REPS, || dec.decrypt(&normal)).min;

        // One limb NTT.
        let q = params.ciphertext_context().moduli()[0];
        let table = cham_math::NttTable::new(n, q).expect("ntt");
        let mut poly: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q.value())).collect();
        let ntt = Timing::of(COST_REPS, || table.forward(&mut poly)).min;

        Self {
            encrypt,
            add,
            keyswitch,
            decrypt,
            ntt,
            diag_pass,
        }
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

/// Timed calls behind a per-operation cost: [`CpuCosts`]' fields and the
/// binaries' per-kernel rows each read the [`Timing::min`] of this many.
/// The operations timed this way are short, and on a shared host the
/// fastest call is the most repeatable of the three statistics.
pub const COST_REPS: usize = 20;

/// Wall-clock seconds of the timed calls of one operation; its
/// `Display` is `median (min–max)`.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// The fastest call.
    pub min: f64,
    /// The median call (the mean of the middle two for an even count).
    pub median: f64,
    /// The slowest call.
    pub max: f64,
}

impl Timing {
    /// Calls `op` once untimed, so that no timed call pays a first call's
    /// costs (page faults, scratch allocation, cold caches), then `reps`
    /// times timed. It and [`Timing::interleaved`], which it calls, are
    /// the one timer of every CPU figure the binaries print.
    ///
    /// # Panics
    /// Panics if `reps` is 0.
    pub fn of<T>(reps: usize, mut op: impl FnMut() -> T) -> Self {
        let [timing] = Self::interleaved(
            reps,
            [&mut || {
                std::hint::black_box(op());
            }],
        );
        timing
    }

    /// [`Timing::of`] for `K` operations at once, interleaved: one untimed
    /// call of each, then `reps` rounds that time one call of each in
    /// turn. A slow window of the host then lands on every operation
    /// alike, so a ratio of their costs keeps less of it.
    ///
    /// # Panics
    /// Panics if `reps` is 0.
    pub fn interleaved<const K: usize>(reps: usize, mut ops: [&mut dyn FnMut(); K]) -> [Self; K] {
        assert!(reps > 0, "a timing needs at least one timed call");
        ops.iter_mut().for_each(|op| op());
        let mut runs = [(); K].map(|()| Vec::with_capacity(reps));
        for _ in 0..reps {
            for (op, runs) in ops.iter_mut().zip(&mut runs) {
                let t0 = Instant::now();
                op();
                runs.push(t0.elapsed().as_secs_f64());
            }
        }
        runs.map(|mut runs| {
            runs.sort_by(f64::total_cmp);
            Self {
                min: runs[0],
                median: (runs[(reps - 1) / 2] + runs[reps / 2]) / 2.0,
                max: runs[reps - 1],
            }
        })
    }
}

impl std::fmt::Display for Timing {
    /// `median (min–max)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [median, min, max] = [self.median, self.min, self.max].map(eng);
        write!(f, "{median} ({min}–{max})")
    }
}

/// The CPU baseline of an HMVP, measured: `Hmvp::multiply_parallel` timed
/// at the requested shape on this machine, [`HMVP_REPS`] times after one
/// warm-up, every result decrypted and compared with the plain product.
/// The keys — the Galois keys up to `max_pack_log()` among them — are
/// generated once, so a shape pays only its own encode.
#[derive(Debug)]
pub struct CpuHmvp {
    hmvp: Hmvp,
    gkeys: GaloisKeys,
    enc: Encryptor,
    dec: Decryptor,
    threads: usize,
    rng: rand::rngs::StdRng,
}

/// Timed runs per shape of a [`CpuHmvp`].
pub const HMVP_REPS: usize = 3;

impl CpuHmvp {
    /// Generates the keys at `params`; every product runs on at most
    /// `threads` threads.
    ///
    /// # Panics
    /// Panics if key setup fails (cannot happen for valid parameters).
    pub fn new(params: &ChamParams, threads: usize) -> Self {
        let mut rng = bench_rng();
        let sk = SecretKey::generate(params, &mut rng);
        let gkeys = GaloisKeys::generate_for_packing(&sk, params.max_pack_log(), &mut rng)
            .expect("galois keys");
        Self {
            hmvp: Hmvp::new(params),
            enc: Encryptor::new(params, &sk),
            dec: Decryptor::new(params, &sk),
            gkeys,
            threads: threads.max(1),
            rng,
        }
    }

    /// The engine the products run on.
    #[must_use]
    pub fn hmvp(&self) -> &Hmvp {
        &self.hmvp
    }

    /// Packing keys for every level up to `max_pack_log()`, under the key
    /// [`Self::operands`] encrypts with.
    #[must_use]
    pub fn gkeys(&self) -> &GaloisKeys {
        &self.gkeys
    }

    /// A random `rows × cols` matrix, encoded, an input vector encrypted
    /// under the key, and their plain product `A·v mod t`; the plain
    /// matrix is dropped once its product is known.
    ///
    /// # Panics
    /// Panics on an empty shape.
    pub fn operands(
        &mut self,
        rows: usize,
        cols: usize,
    ) -> (EncodedMatrix, Vec<RlweCiphertext>, Vec<u64>) {
        let t = self.hmvp.params().plain_modulus();
        let a = Matrix::random(rows, cols, t.value(), &mut self.rng);
        let v: Vec<u64> = (0..cols)
            .map(|_| self.rng.gen_range(0..t.value()))
            .collect();
        let expected = a.mul_vector_mod(&v, t).expect("shape");
        let input = self
            .hmvp
            .encrypt_vector(&v, &self.enc, &mut self.rng)
            .expect("vector");
        let matrix = self.hmvp.encode_matrix(&a).expect("encode");
        (matrix, input, expected)
    }

    /// Times [`HMVP_REPS`] runs of `multiply_parallel` on a random
    /// `rows × cols` product, after one warm-up, then decrypts every
    /// product, the warm-up's included, outside the timer.
    ///
    /// # Panics
    /// Panics on an empty shape, and when a product decrypts to anything
    /// but the plain `A·v`.
    pub fn time(&mut self, rows: usize, cols: usize) -> Timing {
        let (matrix, input, expected) = self.operands(rows, cols);
        let mut products = Vec::with_capacity(HMVP_REPS + 1);
        let timing = Timing::of(HMVP_REPS, || {
            let product = self
                .hmvp
                .multiply_parallel(&matrix, &input, &self.gkeys, self.threads)
                .expect("multiply");
            products.push(product);
        });
        for product in &products {
            let got = self.hmvp.decrypt_result(product, &self.dec);
            assert!(
                got.is_ok_and(|got| got == expected),
                "the {rows}x{cols} product decrypted wrong"
            );
        }
        timing
    }
}

/// Cost model for the *original Delphi* triple generation: a batch-encoded
/// diagonal matvec with baby-step/giant-step rotations (GAZELLE-style),
/// evaluated on the CPU — `≈ 2√n` key-switches plus `n` measured
/// diagonal passes per output block of `N/2` rows.
pub fn delphi_triple_seconds(cpu: &CpuCosts, rows: usize, cols: usize, degree: usize) -> f64 {
    let slots = (degree / 2) as f64;
    let blocks = (rows as f64 / slots).ceil();
    let rotations = 2.0 * (cols as f64).sqrt();
    blocks * (rotations * cpu.keyswitch + cols as f64 * cpu.diag_pass)
}

/// The host side of one HeteroLR iteration (Fig. 7a/7b) on a
/// `samples × features` dataset, in seconds. The B/FV integration keeps
/// FATE's per-value ciphertext interface, so the host encrypts one
/// ciphertext per sample and adds them element-wise (one measured
/// [`CpuCosts::add`] each); the two gradients decrypt `⌈features / N⌉`
/// ciphertexts each. `headline` and `fig7ab_heterolr` both read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeteroLrHost {
    /// Per-sample encryption.
    pub encrypt: f64,
    /// Per-value ciphertext additions.
    pub add_vec: f64,
    /// Decryption of both gradients.
    pub decrypt: f64,
}

impl HeteroLrHost {
    /// The host steps from measured per-op costs at ring degree `degree`.
    #[must_use]
    pub fn new(cpu: &CpuCosts, samples: usize, features: usize, degree: usize) -> Self {
        Self {
            encrypt: samples as f64 * cpu.encrypt,
            add_vec: samples as f64 * cpu.add,
            decrypt: 2.0 * features.div_ceil(degree) as f64 * cpu.decrypt,
        }
    }

    /// One iteration's seconds when each of its two matvecs (one per
    /// party's gradient) takes `matvec` seconds.
    #[must_use]
    pub fn iteration_seconds(&self, matvec: f64) -> f64 {
        self.encrypt + self.add_vec + 2.0 * matvec + self.decrypt
    }
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
    fn timing_excludes_the_warm_up_call() {
        let mut calls = 0;
        let t = Timing::of(5, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
        assert_eq!(calls, 6, "one untimed call, then five timed");
        assert!(t.max < 0.05, "the slow first call was timed: {t:?}");
        assert!(t.min <= t.median && t.median <= t.max, "{t:?}");
        let shown = Timing {
            min: 1.5e-3,
            median: 2.5e-3,
            max: 1.25,
        };
        assert_eq!(shown.to_string(), "2.500 ms (1.500 ms–1.250 s)");
    }

    #[test]
    fn interleaved_timing_alternates_its_operations() {
        let calls = std::cell::RefCell::new(Vec::new());
        let [a, b] = Timing::interleaved(
            3,
            [&mut || calls.borrow_mut().push('a'), &mut || {
                calls.borrow_mut().push('b');
                std::thread::sleep(std::time::Duration::from_millis(2));
            }],
        );
        assert_eq!(calls.into_inner(), "abababab".chars().collect::<Vec<_>>());
        assert!(
            a.max < b.min,
            "each timing holds its own calls: {a:?} {b:?}"
        );
    }

    #[test]
    fn cpu_hmvp_times_a_verified_multiply() {
        // The reduced test parameters keep the smoke test fast; the figure
        // binaries use the full N = 4096 set.
        let params = ChamParams::insecure_test_default().expect("test params");
        let n = params.degree();
        let mut cpu = CpuHmvp::new(&params, 1);
        // One tile, then three tiles over two pack blocks.
        for (rows, cols) in [(5, n), (n + 3, 2 * n + 1)] {
            let t = cpu.time(rows, cols);
            assert!(t.median > 0.0 && t.median.is_finite(), "{t}");
            assert!(t.min <= t.median && t.median <= t.max, "{t}");
        }
    }

    #[test]
    fn delphi_model_scales_sanely() {
        let params = ChamParams::insecure_test_default().expect("test params");
        let costs = CpuCosts::measure(&params);
        for v in [
            costs.encrypt,
            costs.add,
            costs.keyswitch,
            costs.decrypt,
            costs.ntt,
            costs.diag_pass,
        ] {
            assert!(v > 0.0 && v.is_finite(), "cost {v}");
        }
        assert!(costs.keyswitch_ops_per_sec() > 0.0);
        assert!(costs.ntt_ops_per_sec(3) > 0.0);
        let n = params.degree();
        let small = delphi_triple_seconds(&costs, 64, 64, n);
        let wide = delphi_triple_seconds(&costs, 64, 256, n);
        let tall = delphi_triple_seconds(&costs, 64 * n, 64, n);
        assert!(small > 0.0);
        assert!(wide > small, "more columns cost more");
        assert!(tall > small, "more row blocks cost more");
    }

    #[test]
    fn heterolr_host_counts_its_steps() {
        let cpu = CpuCosts {
            encrypt: 1.0,
            add: 0.5,
            keyswitch: 0.0,
            decrypt: 10.0,
            ntt: 0.0,
            diag_pass: 0.0,
        };
        let host = HeteroLrHost::new(&cpu, 8192, 8192, 4096);
        assert_eq!(host.encrypt, 8192.0);
        assert_eq!(host.add_vec, 8192.0 * 0.5);
        assert_eq!(host.decrypt, 40.0);
        let host_s = host.encrypt + host.add_vec + host.decrypt;
        assert!((host.iteration_seconds(3.0) - (host_s + 6.0)).abs() < 1e-9);
        // A partial ciphertext of features still decrypts whole.
        assert_eq!(HeteroLrHost::new(&cpu, 1, 4097, 4096).decrypt, 40.0);
    }
}
