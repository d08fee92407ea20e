//! Per-layer measurement for the traced run: a bag of named values, a
//! prober that times single calls as spans, and the replay of one
//! `multiply` as its parts on the workload's own matrix and input.

use crate::harness::Calibrator;
use crate::spec::PER_LAYER;
use crate::stats::median;
use crate::sut::{Cts, Encoded, Kernels, Plain, Res, Rng, Session};
use crate::trace::SpanLog;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Named per-layer values plus the warnings gathered while reading them.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    pub warnings: Vec<String>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// A value the program may have stopped reporting: absent reads 0
    /// and is listed, so a refactor shows up as a warning, not a crash.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) => self.set(name, v),
            None => self
                .warnings
                .push(format!("{name}: not reported by the program")),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every declared per-layer metric, in declaration order; a layer the
    /// workload does not exercise reads 0.
    pub fn complete(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, self.get(m.name).unwrap_or(0.0)))
            .collect()
    }
}

/// Times single calls into the program, one span per repetition.
pub struct Prober {
    pub log: SpanLog,
    next_req: u64,
    /// Enabled for single-threaded workloads, whose times are reported at
    /// reference host speed.
    calibrator: Calibrator,
}

impl Prober {
    /// Probe spans sit on their own track (`tid`) with ids from `1 << 48`.
    pub fn new(epoch: Instant, tid: u32, calibrate: bool) -> Self {
        Self {
            log: SpanLog::new(epoch, tid),
            next_req: 1 << 48,
            calibrator: Calibrator::new(calibrate),
        }
    }

    /// Host speed now; 1.0 for an uncalibrated workload.
    pub fn speed(&mut self) -> f64 {
        self.calibrator.speed()
    }

    /// Starts a new replay: the spans that follow share one id.
    pub fn next_request(&mut self) {
        self.next_req += 1;
        self.log.set_req(self.next_req);
    }

    /// One timed call; returns its result and duration in ms.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.log.begin(name);
        let t0 = Instant::now();
        let out = black_box(f());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.log.end(id);
        (out, ms)
    }

    /// Median per-call microseconds over `reps` batches; `batch` runs the
    /// call some number of times and returns that number.
    pub fn micro(
        &mut self,
        name: &'static str,
        reps: usize,
        mut batch: impl FnMut() -> usize,
    ) -> f64 {
        self.next_request();
        let per_call: Vec<f64> = (0..reps)
            .map(|_| {
                let (calls, ms) = self.time(name, &mut batch);
                ms * 1e3 / calls.max(1) as f64
            })
            .collect();
        median(&per_call)
    }
}

/// How long the replays of one workload may take in total.
const REPLAY_BUDGET: Duration = Duration::from_millis(2500);
const MAX_REPLAYS: usize = 7;
/// Product rows the per-row tail is replayed on before scaling to all rows.
const TAIL_ROWS: usize = 16;

/// What a workload hands to [`kernel_layers`]: its own matrix, encoded,
/// and one of its inputs in the clear and encrypted.
pub struct Replay<'a> {
    pub session: &'a Session,
    pub matrix: &'a Plain,
    pub encoded: &'a Encoded,
    pub vector: &'a [u64],
    pub cts: &'a Cts,
}

/// Replays `multiply` as its public parts and times the single kernels
/// underneath, filling the `he.*` and `math.*` values.
pub fn kernel_layers(p: &mut Prober, r: &Replay<'_>, rng: &mut Rng, m: &mut Layers) -> Res<()> {
    let Replay {
        session: s,
        matrix: a,
        encoded,
        vector: v,
        cts,
    } = *r;
    let mut k = Kernels::new(s, a)?;
    let rows = k.rows();

    // Each block of calls is bracketed by two host-speed readings and its
    // times are brought to reference speed with their mean.
    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut block: Vec<(&'static str, f64)> = Vec::new();
    let mut close = |block: &mut Vec<(&'static str, f64)>, before: f64, after: f64| {
        for (name, ms) in block.drain(..) {
            series
                .entry(name)
                .or_default()
                .push(ms * (before + after) / 2.0);
        }
    };

    p.next_request();
    let mut before = p.speed();
    for _ in 0..2 {
        block.push((
            "he.encode_matrix_ms",
            p.time("he.encode_matrix", || s.encode_matrix(a)).1,
        ));
        let (r, ms) = p.time("he.encrypt", || s.encrypt(v, rng));
        r?;
        block.push(("he.encrypt_ms", ms));
    }
    let mut after = p.speed();
    close(&mut block, before, after);

    let started = Instant::now();
    let mut last = None;
    for replay in 0..MAX_REPLAYS {
        if replay >= 2 && started.elapsed() > REPLAY_BUDGET {
            break;
        }
        p.next_request();
        before = after;
        let (out, ms) = p.time("he.multiply", || s.multiply(encoded, cts));
        block.push(("he.multiply_ms", ms));
        let (lwes, ms) = p.time("he.dot_products", || s.dot_products(encoded, cts));
        block.push(("he.dot_products_ms", ms));
        let (packed, ms) = p.time("he.pack", || s.pack(&lwes?));
        packed?;
        block.push(("he.pack_ms", ms));
        let (lifted, ms) = p.time("he.lift", || k.lift(cts));
        block.push(("he.lift_ms", ms));
        let (products, ms) = p.time("he.mac", || k.mac(&lifted));
        let products = products?;
        block.push(("he.mac_ms", ms));
        let tail_rows = rows.min(TAIL_ROWS);
        let (tail, ms) = p.time("he.row_tail", || {
            products[..tail_rows]
                .iter()
                .try_for_each(|prod| k.row_tail(prod).map(drop))
        });
        tail?;
        block.push(("he.row_tail_ms", ms * rows as f64 / tail_rows as f64));
        after = p.speed();
        close(&mut block, before, after);
        last = Some((out?, lifted, products));
    }
    let (out, lifted, products) = last.expect("at least two replays ran");

    p.next_request();
    before = after;
    for _ in 0..3 {
        let (r, ms) = p.time("he.decrypt", || s.decrypt(&out));
        r?;
        block.push(("he.decrypt_ms", ms));
    }
    after = p.speed();
    close(&mut block, before, after);
    for (name, values) in &series {
        m.set(name, median(values));
    }
    m.set("he.noise_budget_bits", s.noise_budget_bits(&out));
    let part = |name: &str| m.get(name).unwrap_or(0.0);
    let (multiply, dot) = (part("he.multiply_ms"), part("he.dot_products_ms"));
    let parts = part("he.lift_ms") + part("he.mac_ms") + part("he.row_tail_ms");
    let pack = part("he.pack_ms");
    if multiply > 0.0 && dot > 0.0 {
        m.set("he.accounted_share", (dot + pack) / multiply);
        m.set("he.dot_accounted_share", parts / dot);
    }

    // Single kernels, batched so one span is well above clock resolution.
    let rescaled = [
        k.rescale(&products[0])?,
        k.rescale(&products[rows.min(2) - 1])?,
    ];
    let coeff = k.coeff_poly(&products[0]);
    let wire = Kernels::wire_encode(&cts[0]);
    before = after;
    let mut micro: Vec<(&'static str, f64)> = Vec::new();
    let mut failed: Option<String> = None;
    let mut ok = |r: Res<()>| {
        if let Err(e) = r {
            failed.get_or_insert(e);
        }
    };
    let v = p.micro("math.ntt_fwd", 5, || {
        (0..64).for_each(|_| k.ntt_forward());
        64
    });
    micro.push(("math.ntt_fwd_us", v));
    let v = p.micro("math.ntt_inv", 5, || {
        (0..64).for_each(|_| k.ntt_inverse());
        64
    });
    micro.push(("math.ntt_inv_us", v));
    let v = p.micro("math.rescale_by_last", 5, || {
        (0..16).for_each(|_| ok(k.rescale_by_last(&coeff)));
        16
    });
    micro.push(("math.rescale_by_last_us", v));
    let v = p.micro("math.mac", 5, || {
        ok(k.mac_hot(&lifted, 64));
        64
    });
    micro.push(("math.mac_us", v));
    let v = p.micro("math.mac_stream", 5, || match k.mac_stream(&lifted) {
        Ok(calls) => calls,
        Err(e) => {
            ok(Err(e));
            1
        }
    });
    micro.push(("math.mac_stream_us", v));
    let v = p.micro("he.pack_two", 5, || {
        (0..4).for_each(|_| ok(k.pack_two(&rescaled[0], &rescaled[1]).map(drop)));
        4
    });
    micro.push(("he.pack_two_us", v));
    let v = p.micro("he.keyswitch", 5, || {
        (0..4).for_each(|_| ok(k.keyswitch(&rescaled[0])));
        4
    });
    micro.push(("he.keyswitch_us", v));
    let v = p.micro("he.wire_ct_encode", 5, || {
        (0..8).for_each(|_| drop(black_box(Kernels::wire_encode(&cts[0]))));
        8
    });
    micro.push(("he.wire_ct_encode_us", v));
    let v = p.micro("he.wire_ct_decode", 5, || {
        (0..8).for_each(|_| ok(k.wire_decode(&wire).map(drop)));
        8
    });
    micro.push(("he.wire_ct_decode_us", v));
    let speed = (before + p.speed()) / 2.0;
    for (name, us) in micro {
        m.set(name, us * speed);
    }
    match failed {
        Some(e) => Err(format!("kernel probe failed: {e}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_lists_every_declared_metric_and_defaults_to_zero() {
        let mut m = Layers::default();
        m.set("he.pack_ms", 3.5);
        m.set_opt("serve.phase.queue_ms", None);
        let all = m.complete();
        assert_eq!(all.len(), PER_LAYER.len());
        assert!(all.contains(&("he.pack_ms", "ms", 3.5)));
        assert!(all.contains(&("serve.phase.queue_ms", "ms", 0.0)));
        assert_eq!(m.warnings.len(), 1);
    }

    #[test]
    fn prober_reports_per_call_time_and_one_span_per_repetition() {
        let mut p = Prober::new(Instant::now(), 9, false);
        assert_eq!(p.speed(), 1.0);
        let us = p.micro("spin", 3, || {
            std::thread::sleep(Duration::from_millis(2));
            4
        });
        assert!((400.0..50_000.0).contains(&us), "{us}");
        assert_eq!(p.log.spans.len(), 3);
        assert!(p.log.spans.iter().all(|s| s.req == p.log.spans[0].req));
    }
}
