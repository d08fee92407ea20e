//! Deterministic, seeded fault injection for the serving stack.
//!
//! Resilience claims are only testable if faults are *repeatable*: a
//! chaos run that hangs once in fifty CI invocations is a flake, not a
//! test. This module centralizes every injectable fault behind one
//! [`FaultInjector`] seeded with a fixed [`FaultConfig`], so a failing
//! chaos schedule can be replayed by seed.
//!
//! Fault sites span every layer of `cham-serve`:
//!
//! | fault | layer | observable effect at the client |
//! |-------|-------|---------------------------------|
//! | [`Fault::TornWrite`] | wire | response truncated mid-frame, connection closed |
//! | [`Fault::CorruptFrame`] | wire | request body truncated → `BadFrame` reply, connection closed |
//! | [`Fault::ConnReset`] | wire | connection dropped before the reply |
//! | [`Fault::DelayedRead`] | wire | request processing delayed by a bounded sleep |
//! | [`Fault::SpuriousBusy`] | gate | `Busy` despite room at the admission gate |
//! | [`Fault::ForcedEviction`] | cache | key/matrix evicted mid-flight → `UnknownKey`/`UnknownMatrix` |
//! | [`Fault::SlowBatch`] | kernel | bounded delay while holding a permit (a straggler) |
//! | [`Fault::WorkerPanic`] | kernel | panic inside the kernel call → typed `Internal` reply |
//! | [`Fault::TornSnapshot`] | store | segment snapshot torn mid-write → recovery quarantines it |
//!
//! **Zero cost when disabled.** The server holds an
//! `Option<Arc<FaultInjector>>`; every call site is an `if let Some(..)`
//! on that option, so a production server (the `None` case) pays one
//! pointer-null check per site and touches no RNG, no locks, no counters.
//!
//! **Determinism model.** All probability draws come from one seeded
//! SplitMix64 stream behind a mutex. The *sequence* of draws is exactly
//! reproducible for a fixed seed; which concurrent request consumes which
//! draw depends on thread interleaving. That is the right trade for a
//! soak test: aggregate fault pressure is fixed by the seed while the
//! interleaving varies, which is precisely the space of schedules the
//! resilience layer must survive.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Every injectable fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Write half of a response frame, then close the connection.
    TornWrite,
    /// Truncate the received request body before parsing (every body
    /// codec checks exact length, so this deterministically yields a
    /// typed `BadFrame` — unlike a bit flip, which could land inside an
    /// in-range ciphertext coefficient and silently corrupt the result).
    CorruptFrame,
    /// Drop the connection before replying.
    ConnReset,
    /// Sleep a bounded random delay before processing a request.
    DelayedRead,
    /// Reject a request with `Busy` despite room at the admission gate.
    SpuriousBusy,
    /// Evict the referenced cache entry just before the lookup.
    ForcedEviction,
    /// Sleep a bounded random delay while holding a permit, before the
    /// kernel call.
    SlowBatch,
    /// Panic inside the kernel call.
    WorkerPanic,
    /// Tear a persistent-store segment write mid-snapshot: the segment
    /// file is left truncated (header promising more payload than is on
    /// disk) exactly as a crash between `write` and `fsync` would, and
    /// the write reports an I/O error. Store recovery must quarantine
    /// the torn segment on the next open.
    TornSnapshot,
}

/// Number of distinct fault kinds (size of the per-kind counter array).
pub const FAULT_KINDS: usize = 9;

impl Fault {
    /// All fault kinds, in counter-index order.
    pub const ALL: [Fault; FAULT_KINDS] = [
        Fault::TornWrite,
        Fault::CorruptFrame,
        Fault::ConnReset,
        Fault::DelayedRead,
        Fault::SpuriousBusy,
        Fault::ForcedEviction,
        Fault::SlowBatch,
        Fault::WorkerPanic,
        Fault::TornSnapshot,
    ];

    /// Stable snake-case name (used in env specs and counter names).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fault::TornWrite => "torn_write",
            Fault::CorruptFrame => "corrupt_frame",
            Fault::ConnReset => "conn_reset",
            Fault::DelayedRead => "delayed_read",
            Fault::SpuriousBusy => "spurious_busy",
            Fault::ForcedEviction => "forced_eviction",
            Fault::SlowBatch => "slow_batch",
            Fault::WorkerPanic => "worker_panic",
            Fault::TornSnapshot => "torn_snapshot",
        }
    }

    fn index(self) -> usize {
        match self {
            Fault::TornWrite => 0,
            Fault::CorruptFrame => 1,
            Fault::ConnReset => 2,
            Fault::DelayedRead => 3,
            Fault::SpuriousBusy => 4,
            Fault::ForcedEviction => 5,
            Fault::SlowBatch => 6,
            Fault::WorkerPanic => 7,
            Fault::TornSnapshot => 8,
        }
    }
}

/// Per-kind probabilities plus the seed and delay bound.
///
/// Probabilities are clamped to `[0, 1]` at draw time; `0.0` (the
/// default) disables the kind entirely without touching the RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic draw stream.
    pub seed: u64,
    /// Probability of a torn response write per reply.
    pub torn_write: f64,
    /// Probability of truncating a received frame body per request.
    pub corrupt_frame: f64,
    /// Probability of dropping the connection before the reply.
    pub conn_reset: f64,
    /// Probability of delaying a request before processing.
    pub delayed_read: f64,
    /// Probability of a spurious `Busy` per request.
    pub spurious_busy: f64,
    /// Probability of evicting the referenced entry per cache lookup.
    pub forced_eviction: f64,
    /// Probability of delaying a request while it holds a permit.
    pub slow_batch: f64,
    /// Probability of a panic inside the kernel call per request.
    pub worker_panic: f64,
    /// Probability of tearing a store segment write per snapshot.
    pub torn_snapshot: f64,
    /// Upper bound (milliseconds) for injected delays.
    pub delay_max_ms: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            torn_write: 0.0,
            corrupt_frame: 0.0,
            conn_reset: 0.0,
            delayed_read: 0.0,
            spurious_busy: 0.0,
            forced_eviction: 0.0,
            slow_batch: 0.0,
            worker_panic: 0.0,
            torn_snapshot: 0.0,
            delay_max_ms: 10,
        }
    }
}

impl FaultConfig {
    /// A config injecting every fault kind at probability `p` under
    /// `seed` — the usual chaos-soak shape.
    #[must_use]
    pub fn uniform(seed: u64, p: f64) -> Self {
        Self {
            seed,
            torn_write: p,
            corrupt_frame: p,
            conn_reset: p,
            delayed_read: p,
            spurious_busy: p,
            forced_eviction: p,
            slow_batch: p,
            worker_panic: p,
            torn_snapshot: p,
            delay_max_ms: 10,
        }
    }

    /// The probability configured for `fault`.
    #[must_use]
    pub fn probability(&self, fault: Fault) -> f64 {
        match fault {
            Fault::TornWrite => self.torn_write,
            Fault::CorruptFrame => self.corrupt_frame,
            Fault::ConnReset => self.conn_reset,
            Fault::DelayedRead => self.delayed_read,
            Fault::SpuriousBusy => self.spurious_busy,
            Fault::ForcedEviction => self.forced_eviction,
            Fault::SlowBatch => self.slow_batch,
            Fault::WorkerPanic => self.worker_panic,
            Fault::TornSnapshot => self.torn_snapshot,
        }
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let num = || -> Result<f64, String> {
            value
                .parse::<f64>()
                .map_err(|_| format!("fault spec: not a number: {value}"))
        };
        match key {
            "seed" => {
                self.seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("fault spec: not an integer seed: {value}"))?;
            }
            "delay_max_ms" => {
                self.delay_max_ms = value
                    .parse::<u64>()
                    .map_err(|_| format!("fault spec: not an integer delay: {value}"))?;
            }
            "all" => {
                let p = num()?;
                let seed = self.seed;
                let delay = self.delay_max_ms;
                *self = Self::uniform(seed, p);
                self.delay_max_ms = delay;
            }
            "torn_write" => self.torn_write = num()?,
            "corrupt_frame" => self.corrupt_frame = num()?,
            "conn_reset" => self.conn_reset = num()?,
            "delayed_read" => self.delayed_read = num()?,
            "spurious_busy" => self.spurious_busy = num()?,
            "forced_eviction" => self.forced_eviction = num()?,
            "slow_batch" => self.slow_batch = num()?,
            "worker_panic" => self.worker_panic = num()?,
            "torn_snapshot" => self.torn_snapshot = num()?,
            other => return Err(format!("fault spec: unknown key {other}")),
        }
        Ok(())
    }

    /// Parses a comma-separated `key=value` spec, e.g.
    /// `"seed=42,all=0.05,worker_panic=0.2,delay_max_ms=20"`.
    /// `all=p` sets every probability at once; later keys override it.
    ///
    /// # Errors
    /// A message naming the malformed key or value.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut config = Self::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec: expected key=value, got {part}"))?;
            config.set(key.trim(), value.trim())?;
        }
        Ok(config)
    }
}

/// SplitMix64 — the crate's deterministic draw stream. Public within the
/// crate so [`crate::cluster`] shares the same reproducible jitter source.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded injector shared across the server's layers.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Mutex<SplitMix64>,
    injected: [AtomicU64; FAULT_KINDS],
}

impl FaultInjector {
    /// Builds an injector over `config`.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        let rng = Mutex::new(SplitMix64::new(config.seed));
        Self {
            config,
            rng,
            injected: Default::default(),
        }
    }

    /// Reads `CHAM_SERVE_FAULTS` (same spec as [`FaultConfig::parse`])
    /// and returns an injector when set and non-empty. A malformed spec
    /// is reported on stderr and ignored rather than silently arming
    /// faults a production operator did not ask for.
    #[must_use]
    pub fn from_env() -> Option<std::sync::Arc<Self>> {
        let spec = std::env::var("CHAM_SERVE_FAULTS").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultConfig::parse(&spec) {
            Ok(config) => Some(std::sync::Arc::new(Self::new(config))),
            Err(msg) => {
                eprintln!("CHAM_SERVE_FAULTS ignored: {msg}");
                None
            }
        }
    }

    /// The config the injector was built with.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Draws once: should `fault` fire at this site? Kinds configured at
    /// probability zero return `false` without consuming a draw, so
    /// enabling one fault kind does not perturb the schedule of another.
    #[must_use]
    pub fn should(&self, fault: Fault) -> bool {
        let p = self.config.probability(fault);
        if p <= 0.0 {
            return false;
        }
        let hit = p >= 1.0 || self.rng.lock().expect("fault rng poisoned").next_f64() < p;
        if hit {
            self.injected[fault.index()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// A bounded injected delay in `[0, delay_max_ms]` milliseconds.
    #[must_use]
    pub fn delay(&self) -> Duration {
        let ms = if self.config.delay_max_ms == 0 {
            0
        } else {
            self.rng.lock().expect("fault rng poisoned").next_u64() % (self.config.delay_max_ms + 1)
        };
        Duration::from_millis(ms)
    }

    /// How many times `fault` fired so far.
    #[must_use]
    pub fn injected(&self, fault: Fault) -> u64 {
        self.injected[fault.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired across every kind.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// `(name, count)` per fault kind, in stable order.
    #[must_use]
    pub fn injected_by_kind(&self) -> Vec<(&'static str, u64)> {
        Fault::ALL
            .iter()
            .map(|&f| (f.name(), self.injected(f)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_spec_roundtrip() {
        let c = FaultConfig::parse("seed=42, all=0.25, worker_panic=1.0, delay_max_ms=7").unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(c.delay_max_ms, 7);
        assert!((c.torn_write - 0.25).abs() < f64::EPSILON);
        assert!((c.worker_panic - 1.0).abs() < f64::EPSILON);

        assert!(FaultConfig::parse("nonsense").is_err());
        assert!(FaultConfig::parse("torn_write=maybe").is_err());
        assert!(FaultConfig::parse("unknown_fault=0.5").is_err());
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::default());
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let a = FaultInjector::new(FaultConfig::uniform(7, 0.5));
        let b = FaultInjector::new(FaultConfig::uniform(7, 0.5));
        let seq_a: Vec<bool> = (0..64).map(|_| a.should(Fault::ConnReset)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.should(Fault::ConnReset)).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&h| h), "p=0.5 must fire within 64 draws");
        assert!(seq_a.iter().any(|&h| !h), "p=0.5 must also miss");
        assert_eq!(a.injected(Fault::ConnReset), a.injected_total());
    }

    #[test]
    fn zero_probability_is_free_and_one_is_certain() {
        let inj = FaultInjector::new(FaultConfig {
            worker_panic: 1.0,
            ..FaultConfig::default()
        });
        // Disabled kinds never fire and never consume a draw.
        for _ in 0..16 {
            assert!(!inj.should(Fault::TornWrite));
        }
        assert_eq!(inj.injected_total(), 0);
        // p = 1.0 always fires.
        for _ in 0..16 {
            assert!(inj.should(Fault::WorkerPanic));
        }
        assert_eq!(inj.injected(Fault::WorkerPanic), 16);
        assert_eq!(
            inj.injected_by_kind().iter().map(|&(_, n)| n).sum::<u64>(),
            16
        );
    }

    #[test]
    fn delays_respect_the_bound() {
        let inj = FaultInjector::new(FaultConfig {
            delay_max_ms: 5,
            ..FaultConfig::default()
        });
        for _ in 0..64 {
            assert!(inj.delay() <= Duration::from_millis(5));
        }
        let zero = FaultInjector::new(FaultConfig {
            delay_max_ms: 0,
            ..FaultConfig::default()
        });
        assert_eq!(zero.delay(), Duration::ZERO);
    }
}
