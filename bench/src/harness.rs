//! Closed-loop load generation and bookkeeping.
//!
//! Every client is a caller that waits for its reply before sending the
//! next operation (HeteroLR / triple-generation parties behave so), so a
//! slower system receives less load. Verification of a reply is client
//! think time: it happens between operations, off the latency clock, and
//! counts toward throughput only.

use crate::stats::{mean, median, percentile, round_summary, RoundSummary};
use crate::trace::{Span, SpanLog};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Duration the calibration burst is defined to take at reference host
/// speed (about what it takes on the 2.1 GHz Xeon this was sized on when
/// the host is undisturbed).
pub const CALIBRATION_REF_MS: f64 = 2.2;

/// Measures how fast the host is running right now, independent of the
/// program: a fixed burst of Shoup-multiply butterflies over an
/// L1-resident buffer, owned by the benchmark.
///
/// Shared hosts change speed by tens of percent for seconds at a time
/// (neighbours, frequency). A single-threaded workload is timed with a
/// burst before and after every operation and reports its times at
/// reference speed instead of at whatever speed the host happened to
/// have. The reading is only meaningful on a quiet core: workloads whose
/// clients share the cores with server threads are not calibrated (see
/// `README.md`, "Host speed").
pub struct Calibrator {
    /// A disabled calibrator reads 1.0 without running anything, so
    /// callers need no second code path for uncalibrated workloads.
    enabled: bool,
    seed: Vec<u64>,
    buf: Vec<u64>,
    twiddles: Vec<u64>,
    shoup: Vec<u64>,
}

impl Calibrator {
    pub fn new(enabled: bool) -> Self {
        let twiddles: Vec<u64> = (0..1024u64).map(|i| (i * 104_729 + 3) % Self::Q).collect();
        let seed: Vec<u64> = (0..2048u64).map(|i| (i * 7919) % Self::Q).collect();
        Self {
            enabled,
            buf: seed.clone(),
            seed,
            // Shoup companion floor(w * 2^64 / q) of each twiddle.
            shoup: twiddles
                .iter()
                .map(|&w| ((u128::from(w) << 64) / u128::from(Self::Q)) as u64)
                .collect(),
            twiddles,
        }
    }

    const Q: u64 = (1 << 34) + (1 << 27) + 1;
    const PASSES: usize = 1600;
    const BURSTS: usize = 3;

    /// One burst: passes of butterflies (64x64 high multiply, low
    /// multiplies, conditional subtractions) — the instruction mix of an
    /// NTT stage, without calling the program's.
    fn burst_ms(&mut self) -> f64 {
        let q = Self::Q;
        // Every burst computes the same values, so its duration cannot
        // depend on where earlier bursts left the buffer.
        self.buf.copy_from_slice(&self.seed);
        let t0 = Instant::now();
        for _ in 0..Self::PASSES {
            let (lo, hi) = self.buf.split_at_mut(1024);
            for (((a, b), &w), &ws) in lo
                .iter_mut()
                .zip(hi.iter_mut())
                .zip(&self.twiddles)
                .zip(&self.shoup)
            {
                let hi_part = ((u128::from(*b) * u128::from(ws)) >> 64) as u64;
                let mut t = b.wrapping_mul(w).wrapping_sub(hi_part.wrapping_mul(q));
                if t >= q {
                    t -= q;
                }
                let sum = *a + t;
                let diff = *a + q - t;
                *a = if sum >= q { sum - q } else { sum };
                *b = if diff >= q { diff - q } else { diff };
            }
        }
        std::hint::black_box(&mut self.buf);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Host speed relative to the reference: 1.0 at reference speed, 0.8
    /// when the burst takes a quarter longer. The median of a few bursts,
    /// so a preempted one does not count.
    pub fn speed(&mut self) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        let bursts: Vec<f64> = (0..Self::BURSTS).map(|_| self.burst_ms()).collect();
        CALIBRATION_REF_MS / crate::stats::median(&bursts)
    }
}

/// One client's operation: called once per closed-loop iteration.
pub type ClientOp<'a> = Box<dyn FnMut(&mut OpCtx) + Send + 'a>;

/// One round of one client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    pub ops: u64,
    /// Seconds spent in operations and think time (calibration excluded).
    pub wall_s: f64,
    /// The same seconds at reference host speed.
    pub ref_s: f64,
}

/// One operation's on-clock latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    pub round: u8,
    pub wall_ms: f64,
    /// Host speed around the operation (1.0 when not calibrated).
    pub speed: f64,
}

/// What one client thread recorded.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub ops: Vec<OpSample>,
    pub rounds: Vec<Round>,
    /// On-clock latency of each named call, ms.
    pub calls: BTreeMap<&'static str, Vec<f64>>,
    /// Workload-defined event counts (chunks sent, …).
    pub counts: BTreeMap<&'static str, u64>,
    pub attempted: u64,
    pub failures: BTreeMap<&'static str, u64>,
    /// The first few error messages, for the run record.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

/// Handed to a client operation: times its calls, records their
/// outcomes and, in a traced run, their spans.
pub struct OpCtx {
    iter: u64,
    on_clock: Duration,
    log: ClientLog,
    spans: Option<SpanLog>,
}

impl OpCtx {
    fn new(spans: Option<SpanLog>) -> Self {
        Self {
            iter: 0,
            on_clock: Duration::ZERO,
            log: ClientLog::default(),
            spans,
        }
    }

    /// Index of the current operation on this client.
    pub fn iter(&self) -> u64 {
        self.iter
    }

    /// A call into the program, on the latency clock.
    pub fn clock<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.spans.as_mut().map(|l| l.begin(name));
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        if let (Some(l), Some(id)) = (self.spans.as_mut(), id) {
            l.end(id);
        }
        self.on_clock += dt;
        self.log
            .calls
            .entry(name)
            .or_default()
            .push(dt.as_secs_f64() * 1e3);
        out
    }

    /// Client think time (verification, input generation): a span in a
    /// traced run, never on the latency clock.
    pub fn aside<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.spans.as_mut().map(|l| l.begin(name));
        let out = f();
        if let (Some(l), Some(id)) = (self.spans.as_mut(), id) {
            l.end(id);
        }
        out
    }

    /// Records one attempted operation of `kind`; an `Err` (error,
    /// refusal, wrong decryption) is counted and the run continues.
    pub fn outcome(&mut self, kind: &'static str, result: Result<(), String>) {
        self.log.attempted += 1;
        if let Err(e) = result {
            *self.log.failures.entry(kind).or_default() += 1;
            if self.log.errors.len() < 5 {
                self.log.errors.push(format!("{kind}: {e}"));
            }
        }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.log.counts.entry(name).or_default() += n;
    }
}

/// When a drive stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// A fixed number of operations per client in one round (warm-up).
    Ops(u64),
    /// `rounds` equal rounds that together measure for `seconds`;
    /// `calibrate` brackets every operation with a host-speed reading.
    Timed {
        seconds: f64,
        rounds: usize,
        calibrate: bool,
    },
}

/// Runs every client's closed loop on its own thread until `stop`.
/// Rounds start together on a barrier, so each round sees all clients.
/// With `trace_epoch` set, spans are recorded against that epoch.
pub fn drive(
    clients: Vec<ClientOp<'_>>,
    stop: Stop,
    trace_epoch: Option<Instant>,
) -> Vec<ClientLog> {
    let (rounds, round_len, op_cap, calibrate) = match stop {
        Stop::Ops(n) => (1, Duration::MAX, n, false),
        Stop::Timed {
            seconds,
            rounds,
            calibrate,
        } => {
            let rounds = rounds.max(1);
            (
                rounds,
                Duration::from_secs_f64(seconds / rounds as f64),
                u64::MAX,
                calibrate,
            )
        }
    };
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(tid, mut op)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let tid = tid as u32;
                    let mut ctx = OpCtx::new(trace_epoch.map(|e| SpanLog::new(e, tid)));
                    let mut calibrator = Calibrator::new(calibrate);
                    for round in 0..rounds {
                        barrier.wait();
                        let t0 = Instant::now();
                        let mut total = Round {
                            ops: 0,
                            wall_s: 0.0,
                            ref_s: 0.0,
                        };
                        let mut before = calibrator.speed();
                        loop {
                            let cycle = Instant::now();
                            let wall_ms = run_one(&mut ctx, tid, &mut op);
                            let cycle_s = cycle.elapsed().as_secs_f64();
                            let after = calibrator.speed();
                            let speed = (before + after) / 2.0;
                            before = after;
                            ctx.log.ops.push(OpSample {
                                round: round as u8,
                                wall_ms,
                                speed,
                            });
                            total.ops += 1;
                            total.wall_s += cycle_s;
                            total.ref_s += cycle_s * speed;
                            if total.ops >= op_cap || t0.elapsed() >= round_len {
                                break;
                            }
                        }
                        ctx.log.rounds.push(total);
                    }
                    if let Some(l) = ctx.spans.take() {
                        ctx.log.spans = l.spans;
                    }
                    ctx.log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs one operation; returns its on-clock latency in ms.
fn run_one(ctx: &mut OpCtx, tid: u32, op: &mut ClientOp<'_>) -> f64 {
    ctx.on_clock = Duration::ZERO;
    // Spans of one operation share an id: client in the high half,
    // iteration (from 1) in the low half.
    let req = (u64::from(tid) << 32) | (ctx.iter + 1);
    let root = ctx.spans.as_mut().map(|l| {
        l.set_req(req);
        l.begin("op")
    });
    op(ctx);
    if let (Some(l), Some(id)) = (ctx.spans.as_mut(), root) {
        l.end(id);
    }
    ctx.iter += 1;
    ctx.on_clock.as_secs_f64() * 1e3
}

/// The end-to-end view of one drive. Times are at reference host speed
/// (wall time × the speed read around each operation; equal to wall time
/// for an uncalibrated drive) unless marked `wall_`.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Per-round p50 / p90 / throughput, summarised over the rounds.
    pub p50: RoundSummary,
    pub p90: RoundSummary,
    pub ops_per_s: RoundSummary,
    /// The same per-round statistics on the wall clock, medians only.
    pub wall_p50: f64,
    pub wall_p90: f64,
    pub wall_ops_per_s: f64,
    /// Host speed per round (mean over its operations), summarised.
    pub speed: RoundSummary,
    /// Over all samples of the drive.
    pub p99_all: f64,
    pub mean_all: f64,
    pub samples: usize,
}

pub fn summarize(logs: &[ClientLog]) -> Summary {
    let rounds = logs.iter().map(|l| l.rounds.len()).max().unwrap_or(0);
    let mut per_round: [Vec<f64>; 7] = Default::default();
    for r in 0..rounds {
        let samples: Vec<&OpSample> = logs
            .iter()
            .flat_map(|l| l.ops.iter())
            .filter(|s| usize::from(s.round) == r)
            .collect();
        let series =
            |pick: fn(&OpSample) -> f64| -> Vec<f64> { samples.iter().map(|s| pick(s)).collect() };
        let (wall, reference) = (series(|s| s.wall_ms), series(|s| s.wall_ms * s.speed));
        let in_round: Vec<&Round> = logs.iter().filter_map(|l| l.rounds.get(r)).collect();
        let stats = [
            percentile(&reference, 0.50),
            percentile(&reference, 0.90),
            in_round.iter().map(|x| x.ops as f64 / x.ref_s).sum(),
            percentile(&wall, 0.50),
            percentile(&wall, 0.90),
            in_round.iter().map(|x| x.ops as f64 / x.wall_s).sum(),
            mean(&series(|s| s.speed)),
        ];
        for (series, v) in per_round.iter_mut().zip(stats) {
            series.push(v);
        }
    }
    let all: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.ops.iter().map(|s| s.wall_ms * s.speed))
        .collect();
    Summary {
        p50: round_summary(&per_round[0]),
        p90: round_summary(&per_round[1]),
        ops_per_s: round_summary(&per_round[2]),
        wall_p50: median(&per_round[3]),
        wall_p90: median(&per_round[4]),
        wall_ops_per_s: median(&per_round[5]),
        speed: round_summary(&per_round[6]),
        p99_all: percentile(&all, 0.99),
        mean_all: mean(&all),
        samples: all.len(),
    }
}

/// All on-clock latencies of the call `name` across clients, ms.
pub fn call_ms(logs: &[ClientLog], name: &str) -> Vec<f64> {
    logs.iter()
        .filter_map(|l| l.calls.get(name))
        .flatten()
        .copied()
        .collect()
}

pub fn count(logs: &[ClientLog], name: &str) -> u64 {
    logs.iter().filter_map(|l| l.counts.get(name)).sum()
}

/// Failure accounting over any number of drives.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failures: BTreeMap<&'static str, u64>,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, logs: &[ClientLog]) {
        for l in logs {
            self.attempted += l.attempted;
            for (kind, n) in &l.failures {
                *self.failures.entry(kind).or_default() += n;
            }
            self.errors
                .extend(l.errors.iter().take(5 - self.errors.len().min(5)).cloned());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_drive_counts_latency_failures_and_spans() {
        let epoch = Instant::now();
        let op: ClientOp<'_> = Box::new(|ctx: &mut OpCtx| {
            let v = ctx.clock("call.x", || 21 * 2);
            ctx.aside("verify", || ());
            let result = if ctx.iter() == 1 {
                Err("boom".to_string())
            } else {
                Ok(())
            };
            ctx.outcome("x", result);
            ctx.count("things", v);
        });
        let logs = drive(vec![op], Stop::Ops(3), Some(epoch));
        assert_eq!(logs.len(), 1);
        let log = &logs[0];
        assert_eq!(log.ops.len(), 3);
        assert_eq!(log.rounds[0].ops, 3);
        assert!(log.ops.iter().all(|s| s.speed == 1.0));
        assert_eq!(log.calls["call.x"].len(), 3);
        assert_eq!(count(&logs, "things"), 126);
        // op + call.x + verify per iteration, nested under op, sharing req.
        assert_eq!(log.spans.len(), 9);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2].parent, Some(0));
        assert_eq!(log.spans[0].req, log.spans[2].req);
        assert_ne!(log.spans[0].req, log.spans[3].req);
        let mut tally = Tally::default();
        tally.add(&logs);
        assert_eq!((tally.attempted, tally.failed()), (3, 1));
        assert_eq!(tally.errors, vec!["x: boom".to_string()]);
    }

    #[test]
    fn timed_drive_runs_all_rounds_on_every_client() {
        let make = || -> ClientOp<'static> {
            Box::new(|ctx: &mut OpCtx| {
                ctx.clock("call.sleep", || {
                    std::thread::sleep(Duration::from_millis(2))
                });
            })
        };
        let logs = drive(
            vec![make(), make()],
            Stop::Timed {
                seconds: 0.1,
                rounds: 5,
                calibrate: false,
            },
            None,
        );
        assert_eq!(logs.len(), 2);
        for l in &logs {
            assert_eq!(l.rounds.len(), 5);
            assert!(l.spans.is_empty());
        }
        let s = summarize(&logs);
        assert!(s.p50.median >= 2.0 && s.p50.median < 50.0, "{:?}", s.p50);
        assert!(s.ops_per_s.median > 20.0, "{:?}", s.ops_per_s);
        assert_eq!(s.samples, logs.iter().map(|l| l.ops.len()).sum::<usize>());
        assert_eq!((s.wall_p50, s.speed.median), (s.p50.median, 1.0));
    }

    #[test]
    fn calibrated_drive_reports_times_at_reference_speed() {
        let op: ClientOp<'static> = Box::new(|ctx: &mut OpCtx| {
            ctx.clock("call.sleep", || {
                std::thread::sleep(Duration::from_millis(3))
            });
        });
        let logs = drive(
            vec![op],
            Stop::Timed {
                seconds: 0.2,
                rounds: 2,
                calibrate: true,
            },
            None,
        );
        let s = summarize(&logs);
        // Whatever this host's (and this build profile's) speed is, it
        // was read and applied.
        assert!(
            s.speed.median > 0.0 && s.speed.median.is_finite(),
            "{:?}",
            s.speed
        );
        let expect = s.wall_p50 * s.speed.median;
        assert!((s.p50.median / expect - 1.0).abs() < 0.5, "{s:?}");
        // Calibration time is not counted as work.
        let r = logs[0].rounds[0];
        assert!(r.wall_s < 0.2 && r.ref_s > 0.0);
    }
}
