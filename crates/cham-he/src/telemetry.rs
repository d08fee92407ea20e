//! Telemetry hooks for the HE layer.
//!
//! Invocation counters cover the paper's operation set (encrypt,
//! decrypt, keyswitch, EXTRACTLWES, PACKTWOLWES, …) under
//! `cham_he.<module>.<op>` names. Noise tracking records two kinds of
//! data: *measured* invariant noise and remaining budget from
//! [`crate::encrypt::Decryptor::decrypt_with_noise`] (histograms in
//! bits), and the *predicted* per-op noise-budget deltas from the
//! [`crate::noise::NoiseEstimator`] (cumulative bit counters per op),
//! so a run record shows both what the estimator promised and what the
//! ciphertexts actually did.

use cham_telemetry::{counter_add, Histogram};

/// Rounds a (possibly negative or fractional) bit quantity to a `u64`
/// counter/histogram increment.
#[inline]
fn bits(v: f64) -> u64 {
    if v.is_finite() && v > 0.0 {
        v.round() as u64
    } else {
        0
    }
}

/// Records a measured noise report (from an actual decryption).
#[inline]
pub(crate) fn record_measured_noise(noise_bits: f64, budget_bits: f64) {
    static NOISE: Histogram = Histogram::with_unit("cham_he.noise.measured_noise_bits", "bits");
    static BUDGET: Histogram = Histogram::with_unit("cham_he.noise.measured_budget_bits", "bits");
    NOISE.record(bits(noise_bits));
    BUDGET.record(bits(budget_bits));
}

/// Records a predicted noise-budget delta for `MULPLAIN`: the estimator
/// turned `input` absolute noise into `output`.
#[inline]
pub(crate) fn record_estimate_mul_plain(input: f64, output: f64) {
    counter_add!("cham_he.noise.estimate.mul_plain.calls", 1);
    counter_add!(
        "cham_he.noise.estimate.mul_plain.growth_bits",
        bits(output.log2() - input.max(1.0).log2())
    );
}

/// Records a predicted noise-budget delta for `RESCALE` (noise usually
/// *shrinks*; the delta counter accumulates the reduction in bits).
#[inline]
pub(crate) fn record_estimate_rescale(input: f64, output: f64) {
    counter_add!("cham_he.noise.estimate.rescale.calls", 1);
    counter_add!(
        "cham_he.noise.estimate.rescale.reduction_bits",
        bits(input.max(1.0).log2() - output.max(1.0).log2())
    );
}

/// Records the predicted additive keyswitch noise.
#[inline]
pub(crate) fn record_estimate_keyswitch(additive: f64) {
    counter_add!("cham_he.noise.estimate.keyswitch.calls", 1);
    counter_add!(
        "cham_he.noise.estimate.keyswitch.additive_bits",
        bits(additive.log2())
    );
}

/// Records a predicted noise-budget delta for `PACKLWES`.
#[inline]
pub(crate) fn record_estimate_pack(input: f64, output: f64) {
    counter_add!("cham_he.noise.estimate.pack.calls", 1);
    counter_add!(
        "cham_he.noise.estimate.pack.growth_bits",
        bits(output.log2() - input.max(1.0).log2())
    );
}
