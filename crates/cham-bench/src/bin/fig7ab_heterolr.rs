//! Fig. 7a/7b — HeteroLR per-step performance over dataset sizes.
//!
//! Three systems per dataset shape (samples × features):
//! * **Paillier (FATE)** — element-wise semi-HE, measured at a reduced
//!   modulus (each op the fastest of `COST_REPS` calls) and extrapolated
//!   to 2048-bit by the fitted modexp scaling,
//! * **B/FV CPU** — this repository's software stack: matvec is
//!   `multiply_parallel` timed at each shape (median of three runs after a
//!   warm-up, every product decrypt-verified), the host steps per-op
//!   measured (`CpuCosts`, each the fastest of `COST_REPS`) and counted,
//! * **B/FV + CHAM** — matvec offloaded to the modelled accelerator; the
//!   host keeps encryption/add_vec/decryption.
//!
//! Reproduced claims: B/FV cuts every step versus Paillier; CHAM
//! accelerates matvec by 30–1800×; end-to-end speed-up 2–36× with the
//! largest gains where matvec dominates (8192×4096, 8192×8192).

use cham_apps::bigint::BigUint;
use cham_apps::paillier::PaillierPrivateKey;
use cham_bench::{
    bench_rng, eng, threads_from_env, usage_error, CpuCosts, CpuHmvp, HeteroLrHost, Timing,
    COST_REPS, HMVP_REPS,
};
use cham_he::params::ChamParams;
use cham_sim::pipeline::HmvpCycleModel;
use rand::Rng;

/// Measured Paillier per-op costs at a given modulus size.
struct PaillierCosts {
    encrypt: f64,
    add_plain: f64,
    mul_scalar: f64,
    decrypt: f64,
}

/// Each cost is the fastest of [`COST_REPS`] calls at a `bits`-bit
/// modulus.
fn measure_paillier(bits: u32) -> PaillierCosts {
    let mut rng = bench_rng();
    let sk = PaillierPrivateKey::generate(bits, &mut rng);
    let pk = sk.public_key().clone();
    let m = BigUint::from_u64(12345);
    let k = BigUint::from_u64(rng.gen::<u32>() as u64);
    let ct = pk.encrypt(&m, &mut rng).expect("encrypt");
    PaillierCosts {
        encrypt: Timing::of(COST_REPS, || pk.encrypt(&m, &mut rng).expect("encrypt")).min,
        add_plain: Timing::of(COST_REPS, || pk.add_plain(&ct, &m)).min,
        mul_scalar: Timing::of(COST_REPS, || pk.mul_scalar(&ct, &k)).min,
        decrypt: Timing::of(COST_REPS, || sk.decrypt(&ct)).min,
    }
}

fn main() {
    let threads = threads_from_env("fig7ab_heterolr").unwrap_or_else(|e| usage_error(&e));
    println!("fitting Paillier modexp scaling (128 -> 256 bit)...");
    let p128 = measure_paillier(128);
    let p256 = measure_paillier(256);
    // Fit cost ∝ bits^e from the two sizes, per op class.
    let exp_fit = |a: f64, b: f64| (b / a).log2(); // per doubling
    let e_enc = exp_fit(p128.encrypt, p256.encrypt);
    // Extrapolate from 256-bit to FATE's 2048-bit (3 doublings).
    let scale = |v: f64, e: f64| v * (2f64).powf(e * 3.0);
    let pail = PaillierCosts {
        encrypt: scale(p256.encrypt, e_enc),
        add_plain: scale(
            p256.add_plain,
            exp_fit(p128.add_plain, p256.add_plain).max(1.5),
        ),
        mul_scalar: scale(p256.mul_scalar, exp_fit(p128.mul_scalar, p256.mul_scalar)),
        decrypt: scale(p256.decrypt, exp_fit(p128.decrypt, p256.decrypt)),
    };
    println!(
        "  2048-bit estimates: enc {}  add {}  scalar-mul {}  dec {}",
        eng(pail.encrypt),
        eng(pail.add_plain),
        eng(pail.mul_scalar),
        eng(pail.decrypt)
    );

    println!("\nmeasuring B/FV CPU per-op costs (N = 4096); matvec = 2 timed multiply_parallel");
    let params = ChamParams::cham_default().expect("paper params");
    let cpu = CpuCosts::measure(&params);
    let mut cpu_hmvp = CpuHmvp::new(&params, threads);
    let model = HmvpCycleModel::cham();
    let n_ring = params.degree();

    // Dataset shapes of Fig. 7 (samples × features).
    let shapes = [
        (1024usize, 1024usize),
        (4096, 1024),
        (4096, 4096),
        (8192, 4096),
        (8192, 8192),
    ];
    println!("\n=== Fig. 7a/7b: HeteroLR per-iteration step times ===");
    for (samples, features) in shapes {
        // Step models (one iteration, both parties' gradients).
        // FATE parallelizes Paillier over worker processes; 16-way is a
        // typical deployment (documented substitution — single-core
        // numbers would be 16x larger).
        const FATE_WORKERS: f64 = 16.0;
        let fate_enc = samples as f64 * pail.encrypt / FATE_WORKERS;
        let fate_add = samples as f64 * pail.add_plain / FATE_WORKERS;
        let fate_mv = 2.0 * features as f64 * samples as f64 * pail.mul_scalar / FATE_WORKERS;
        let fate_dec = 2.0 * features as f64 * pail.decrypt / FATE_WORKERS;

        // The B/FV integration keeps FATE's per-value ciphertext
        // interface: one encryption per sample activation (this is why
        // CHAM's LWE<->RLWE conversion matters — per-value ciphertexts are
        // packed on the way into the HMVP). Encryption therefore scales
        // with the sample count, which is what keeps the paper's
        // end-to-end speed-up at 2-36x rather than matvec's 30-1800x.
        let host = HeteroLrHost::new(&cpu, samples, features, n_ring);
        let mv = cpu_hmvp.time(features, samples);
        let bfv_mv = 2.0 * mv.median;
        let cham_one = model.hmvp_seconds(features, samples);
        let cham_mv = 2.0 * cham_one;

        let fate_total = fate_enc + fate_add + fate_mv + fate_dec;
        let bfv_total = host.iteration_seconds(mv.median);
        let cham_total = host.iteration_seconds(cham_one);

        println!("\n--- dataset {samples} x {features} ---");
        println!("one matvec {features}x{samples}, median of {HMVP_REPS}, decrypt-verified: {mv}");
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "system", "encrypt", "add_vec", "matvec", "decrypt", "total"
        );
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "Paillier/FATE",
            eng(fate_enc),
            eng(fate_add),
            eng(fate_mv),
            eng(fate_dec),
            eng(fate_total)
        );
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "B/FV CPU",
            eng(host.encrypt),
            eng(host.add_vec),
            eng(bfv_mv),
            eng(host.decrypt),
            eng(bfv_total)
        );
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "B/FV + CHAM",
            eng(host.encrypt),
            eng(host.add_vec),
            eng(cham_mv),
            eng(host.decrypt),
            eng(cham_total)
        );
        println!(
            "matvec speed-up CHAM vs CPU: {:>6.0}x   end-to-end vs FATE: {:>6.1}x   vs B/FV CPU: {:>5.1}x",
            bfv_mv / cham_mv,
            fate_total / cham_total,
            bfv_total / cham_total
        );
    }
    println!("\npaper claims: matvec 30-1800x vs CPU; end-to-end 2-36x; large");
    println!("matrices gain most because matvec dominates — see rows above.");
}
