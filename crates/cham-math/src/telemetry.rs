//! Batched telemetry hooks for the math kernels.
//!
//! Counter names follow `<crate>.<module>.<op>[.<qualifier>]`; the
//! modulus qualifier is `q0`/`q1`/`p` for the CHAM parameter set and
//! `other` for everything else (test scaffolding moduli). Hot loops
//! batch their increments — one counter add per transform or vector
//! pass, never per butterfly or per modular reduction — so the cost
//! stays at a handful of relaxed atomics per kernel call. The hooks are
//! always live; `Modulus::mul`/`reduce_u128` are deliberately not
//! instrumented (they run ~10⁷ times per HMVP).

use crate::modulus::{Modulus, Q0, Q1, SPECIAL_P};
use cham_telemetry::counter_add;

/// Adds `n` modular multiplies to the per-modulus `modmul` counter.
#[inline]
pub(crate) fn record_modmul(q: &Modulus, n: u64) {
    match q.value() {
        Q0 => counter_add!("cham_math.modulus.modmul.q0", n),
        Q1 => counter_add!("cham_math.modulus.modmul.q1", n),
        SPECIAL_P => counter_add!("cham_math.modulus.modmul.p", n),
        _ => counter_add!("cham_math.modulus.modmul.other", n),
    }
}

/// Adds `n` modular additions/subtractions to the per-modulus `modadd`
/// counter.
#[inline]
pub(crate) fn record_modadd(q: &Modulus, n: u64) {
    match q.value() {
        Q0 => counter_add!("cham_math.modulus.modadd.q0", n),
        Q1 => counter_add!("cham_math.modulus.modadd.q1", n),
        SPECIAL_P => counter_add!("cham_math.modulus.modadd.p", n),
        _ => counter_add!("cham_math.modulus.modadd.other", n),
    }
}

/// One iterative forward NTT: `N/2 · log2 N` butterflies, each costing
/// one Shoup multiply and two modular add/subs.
#[inline]
pub(crate) fn ntt_forward(q: &Modulus, n: usize, log_n: u32) {
    counter_add!("cham_math.ntt.forward", 1);
    let butterflies = (n as u64 / 2) * u64::from(log_n);
    counter_add!("cham_math.ntt.butterflies", butterflies);
    record_modmul(q, butterflies);
    record_modadd(q, 2 * butterflies);
}

/// One iterative inverse NTT: the butterflies plus `N` final scaling
/// multiplies by `n^{-1}`.
#[inline]
pub(crate) fn ntt_inverse(q: &Modulus, n: usize, log_n: u32) {
    counter_add!("cham_math.ntt.inverse", 1);
    let butterflies = (n as u64 / 2) * u64::from(log_n);
    counter_add!("cham_math.ntt.butterflies", butterflies);
    record_modmul(q, butterflies + n as u64);
    record_modadd(q, 2 * butterflies);
}

/// One constant-geometry forward NTT: butterflies plus the `N` fused
/// ψ-twist multiplies in the load stage.
#[inline]
pub(crate) fn ntt_cg_forward(q: &Modulus, n: usize, log_n: u32) {
    counter_add!("cham_math.ntt_cg.forward", 1);
    let butterflies = (n as u64 / 2) * u64::from(log_n);
    counter_add!("cham_math.ntt_cg.butterflies", butterflies);
    record_modmul(q, butterflies + n as u64);
    record_modadd(q, 2 * butterflies);
}

/// One constant-geometry inverse NTT: butterflies plus the `N` fused
/// untwist-and-scale multiplies in the store stage.
#[inline]
pub(crate) fn ntt_cg_inverse(q: &Modulus, n: usize, log_n: u32) {
    counter_add!("cham_math.ntt_cg.inverse", 1);
    let butterflies = (n as u64 / 2) * u64::from(log_n);
    counter_add!("cham_math.ntt_cg.butterflies", butterflies);
    record_modmul(q, butterflies + n as u64);
    record_modadd(q, 2 * butterflies);
}
