//! The benchmark's own spans: recorded around each call into the program,
//! kept in memory, written out as a Chrome trace when the run ends.
//!
//! The program's internal telemetry is not read here on purpose — spans
//! inside the program are a later change; these bracket its public calls.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` indexes the same span list; spans of one
/// operation (one request, one multiply with its replays) share `req`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single thread's span log with an open-span stack, so nesting is by
/// construction. Logs from several threads merge with [`merge`].
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    tid: u32,
    req: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Self {
            epoch,
            tid,
            req: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the identifier the following spans carry.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            req: self.req,
            tid: self.tid,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
    }
}

/// Concatenates per-thread logs, re-basing parent indices.
pub fn merge(logs: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    for log in logs {
        let base = all.len();
        all.extend(log.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (children are clipped to the parent and
/// overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals, for the run record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Chrome trace (`chrome://tracing`, Perfetto): complete events, one
/// track per client thread, `args.req` shared by the spans of one request.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            obj([
                ("name", s.name.into()),
                ("cat", workload.into()),
                ("ph", "X".into()),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", 1u64.into()),
                ("tid", u64::from(s.tid).into()),
                (
                    "args",
                    obj([
                        ("req", s.req.into()),
                        ("span", i.into()),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ]),
                ),
            ])
        })
        .collect();
    obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 1,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) ── a [10,40) ── a1 [15,25)
        //              ├─ b [30,60)   (overlaps a by 10)
        //              └─ c [90,120)  (overhangs root by 20)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // root covered: [10,60) ∪ [90,100) = 60 → self 40.
        assert_eq!(self_times_ns(&spans), vec![40, 20, 10, 30, 30]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 40);
        assert_eq!(totals["a"].total_ns, 30);
    }

    #[test]
    fn log_nests_by_stack_and_merge_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 0);
        a.set_req(7);
        let outer = a.begin("outer");
        let inner = a.begin("inner");
        a.end(inner);
        a.end(outer);
        let mut b = SpanLog::new(epoch, 1);
        let x = b.begin("x");
        let y = b.begin("y");
        b.end(y);
        b.end(x);
        let all = merge(vec![a.spans, b.spans]);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[3].parent, Some(2));
        assert_eq!((all[0].req, all[1].req, all[2].req), (7, 7, 0));
        assert!(all[1].start_ns >= all[0].start_ns && all[1].end_ns <= all[0].end_ns);
    }

    #[test]
    fn chrome_trace_is_loadable_json_with_shared_request_ids() {
        let spans = vec![
            span("op", 0, 2_000, None),
            span("call", 500, 1_500, Some(0)),
        ];
        let text = chrome_trace(&spans, "w").compact();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        let req = |e: &Json| {
            e.get("args")
                .and_then(|a| a.get("req"))
                .and_then(Json::as_f64)
        };
        assert_eq!(req(&events[0]), req(&events[1]));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
    }
}
