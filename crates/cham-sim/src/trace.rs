//! Pipeline event tracing: a per-row schedule of the 9-stage macro
//! pipeline, renderable as a text Gantt chart.
//!
//! The cycle model in [`crate::pipeline`] gives aggregate bounds; the
//! tracer materialises the actual schedule for a (small) workload so
//! micro-behaviour — stage overlap, reduce-buffer preemption, the packing
//! tree's tail — can be inspected and asserted on. Used by tests and the
//! `accelerator_sim` example; also a debugging aid when calibrating
//! against new hardware data.

use crate::config::ChamConfig;
use crate::pipeline::RingShape;
use crate::{Result, SimError};
use cham_telemetry::json::JsonValue;
use cham_telemetry::trace::ChromeTrace;

/// Pipeline stage identifiers (paper Fig. 1a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage 1: forward NTT of the plaintext row.
    Ntt,
    /// Stage 2: coefficient-wise multiply.
    MultPoly,
    /// Stage 3: inverse NTT.
    Intt,
    /// Stage 4: rescale + extract.
    RescaleExtract,
    /// Stages 5–9: one `PACKTWOLWES` reduction.
    Pack,
}

impl Stage {
    /// All dot-product stages in order.
    pub const DOT_STAGES: [Stage; 4] = [
        Stage::Ntt,
        Stage::MultPoly,
        Stage::Intt,
        Stage::RescaleExtract,
    ];

    /// All pipeline stages in display order.
    pub const ALL: [Stage; 5] = [
        Stage::Ntt,
        Stage::MultPoly,
        Stage::Intt,
        Stage::RescaleExtract,
        Stage::Pack,
    ];
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Ntt => "NTT",
            Stage::MultPoly => "MULT",
            Stage::Intt => "INTT",
            Stage::RescaleExtract => "RS+EX",
            Stage::Pack => "PACK",
        };
        write!(f, "{s}")
    }
}

/// One scheduled interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The stage executing.
    pub stage: Stage,
    /// Work item: row index for dot stages, reduction index for pack.
    pub item: usize,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

/// The materialised schedule of one HMVP.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    /// All events, sorted by start cycle.
    pub events: Vec<TraceEvent>,
    /// Makespan in cycles.
    pub total_cycles: u64,
}

impl PipelineTrace {
    /// Schedules `rows` matrix rows through one engine. Each dot-product
    /// stage is a unit-capacity resource with interval `ii`; `PACKTWOLWES`
    /// consumes pairs as the binary tree allows, bounded by the reduce
    /// buffer.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] for zero rows or invalid configs.
    pub fn schedule(config: &ChamConfig, shape: &RingShape, rows: usize) -> Result<Self> {
        config.validate()?;
        if rows == 0 {
            return Err(SimError::InvalidConfig("at least one row required"));
        }
        let ii = shape.ntt_cycles(config.engine.bfus_per_ntt);
        let mut events = Vec::new();
        // Dot stages: classic pipelined schedule; stage s of row r starts
        // at max(prev stage of r, stage s of r-1) — uniform ii makes this
        // (r + s) · ii.
        let mut row_done = vec![0u64; rows];
        for (r, done) in row_done.iter_mut().enumerate() {
            for (s, stage) in Stage::DOT_STAGES.iter().enumerate() {
                let start = (r as u64 + s as u64) * ii;
                events.push(TraceEvent {
                    stage: *stage,
                    item: r,
                    start,
                    end: start + ii,
                });
                *done = start + ii;
            }
        }
        // Pack tree: the single PACKTWOLWES unit greedily consumes
        // whichever reduction is ready first — level-1 pairs from the
        // extraction stream and deeper-level pairs fed back through the
        // reduce buffer interleave into the unit's idle slots.
        let pack_ii = ii / config.engine.pack_units as u64;
        let padded = rows.next_power_of_two();
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        // Reduction ids are assigned level by level: level-1 reductions are
        // 0..padded/2, level-2 follow, and so on up to the root. A child's
        // completion is "fed" to its parent; once both children report, the
        // parent enters the ready heap.
        let mut level_base = vec![0usize];
        {
            let mut width = padded / 2;
            let mut base = 0;
            while width >= 1 {
                base += width;
                level_base.push(base);
                if width == 1 {
                    break;
                }
                width /= 2;
            }
        }
        let reductions = padded - 1;
        let mut reports: Vec<(u64, u8)> = vec![(0, 0); reductions];
        let feed = |idx_in_level: usize,
                    level: usize,
                    time: u64,
                    reports: &mut Vec<(u64, u8)>,
                    heap: &mut BinaryHeap<Reverse<(u64, usize)>>| {
            // The consumer of output `idx_in_level` at `level` is reduction
            // idx_in_level/2 of the next level.
            if level + 1 > level_base.len() - 1 {
                return;
            }
            let red = level_base[level] + idx_in_level / 2;
            if red >= reductions {
                return;
            }
            let entry = &mut reports[red];
            entry.0 = entry.0.max(time);
            entry.1 += 1;
            if entry.1 == 2 {
                heap.push(Reverse((entry.0, red)));
            }
        };
        for leaf in 0..padded {
            let time = row_done.get(leaf).copied().unwrap_or(0);
            feed(leaf, 0, time, &mut reports, &mut heap);
        }
        let mut pack_free = 0u64;
        while let Some(Reverse((ready, red))) = heap.pop() {
            let start = ready.max(pack_free);
            let end = start + pack_ii;
            events.push(TraceEvent {
                stage: Stage::Pack,
                item: red,
                start,
                end,
            });
            pack_free = end;
            // Which level does `red` belong to, and what is its index?
            let level = level_base
                .windows(2)
                .position(|w| red >= w[0] && red < w[1])
                .map(|l| l + 1)
                .expect("reduction id within tree");
            let idx_in_level = red - level_base[level - 1];
            feed(idx_in_level, level, end, &mut reports, &mut heap);
        }
        events.sort_by_key(|e| (e.start, e.item));
        let total_cycles = events.iter().map(|e| e.end).max().unwrap_or(0);
        Ok(Self {
            events,
            total_cycles,
        })
    }

    /// Events for one stage.
    pub fn stage_events(&self, stage: Stage) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.stage == stage)
    }

    /// Busy cycles per stage.
    pub fn stage_busy(&self, stage: Stage) -> u64 {
        self.stage_events(stage).map(|e| e.end - e.start).sum()
    }

    /// Utilisation of a stage over the makespan.
    pub fn stage_utilization(&self, stage: Stage) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.stage_busy(stage) as f64 / self.total_cycles as f64
    }

    /// Idle ("stall") cycles of a stage between its first start and its
    /// last end — gaps where the unit sits ready but has no input.
    pub fn stage_stall(&self, stage: Stage) -> u64 {
        let mut evs: Vec<_> = self.stage_events(stage).collect();
        evs.sort_by_key(|e| e.start);
        evs.windows(2)
            .map(|w| w[1].start.saturating_sub(w[0].end))
            .sum()
    }

    /// Aggregate occupancy: busy cycles summed over all five stages,
    /// divided by `5 × makespan` (1.0 = every unit busy every cycle).
    pub fn occupancy(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        let busy: u64 = Stage::ALL.iter().map(|&s| self.stage_busy(s)).sum();
        busy as f64 / (Stage::ALL.len() as u64 * self.total_cycles) as f64
    }

    /// Per-stage busy/stall/utilisation plus makespan and occupancy, as a
    /// JSON object suitable for embedding in a benchmark run record.
    pub fn metrics_json(&self) -> JsonValue {
        let stages: Vec<(String, JsonValue)> = Stage::ALL
            .iter()
            .map(|&s| {
                (
                    s.to_string(),
                    JsonValue::Object(vec![
                        (
                            "events".into(),
                            JsonValue::from(self.stage_events(s).count()),
                        ),
                        ("busy_cycles".into(), JsonValue::UInt(self.stage_busy(s))),
                        ("stall_cycles".into(), JsonValue::UInt(self.stage_stall(s))),
                        (
                            "utilization".into(),
                            JsonValue::Float(self.stage_utilization(s)),
                        ),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("total_cycles".into(), JsonValue::UInt(self.total_cycles)),
            ("occupancy".into(), JsonValue::Float(self.occupancy())),
            ("stages".into(), JsonValue::Object(stages)),
        ])
    }

    /// Converts the schedule to a Chrome Trace Event (Perfetto) trace:
    /// one named track per pipeline stage, one complete event per
    /// scheduled interval. Cycles are mapped to microseconds at
    /// `clock_hz` so the Perfetto timeline reads in real accelerator
    /// time; event args carry the raw cycle numbers.
    pub fn to_chrome_trace(&self, clock_hz: f64) -> ChromeTrace {
        let us_per_cycle = 1e6 / clock_hz.max(1.0);
        let mut trace = ChromeTrace::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            trace.thread_name(i as u64 + 1, stage.to_string());
        }
        for e in &self.events {
            let tid = Stage::ALL
                .iter()
                .position(|&s| s == e.stage)
                .expect("stage in ALL") as u64
                + 1;
            let label = match e.stage {
                Stage::Pack => format!("pack {}", e.item),
                _ => format!("row {}", e.item),
            };
            trace.complete(
                tid,
                label,
                "stage",
                e.start as f64 * us_per_cycle,
                (e.end - e.start) as f64 * us_per_cycle,
                vec![
                    ("item".into(), JsonValue::from(e.item)),
                    ("start_cycle".into(), JsonValue::UInt(e.start)),
                    ("end_cycle".into(), JsonValue::UInt(e.end)),
                ],
            );
        }
        trace
    }

    /// Writes the schedule as Chrome Trace Event JSON (see
    /// [`Self::to_chrome_trace`]) — open the file in
    /// <https://ui.perfetto.dev> or `chrome://tracing`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_chrome_trace(
        &self,
        path: impl AsRef<std::path::Path>,
        clock_hz: f64,
    ) -> std::io::Result<()> {
        self.to_chrome_trace(clock_hz).write(path)
    }

    /// Verifies that no two events of the same stage overlap (each stage
    /// is one hardware resource).
    pub fn is_conflict_free(&self) -> bool {
        for stage in Stage::ALL {
            let mut evs: Vec<_> = self.stage_events(stage).collect();
            evs.sort_by_key(|e| e.start);
            for w in evs.windows(2) {
                if w[1].start < w[0].end {
                    return false;
                }
            }
        }
        true
    }

    /// Renders a coarse text Gantt chart (one character per `scale`
    /// cycles; rows = stages).
    pub fn render(&self, scale: u64) -> String {
        let width = self.total_cycles.div_ceil(scale.max(1)) as usize;
        let mut out = String::new();
        for stage in Stage::ALL {
            let mut lane = vec![b'.'; width];
            for e in self.stage_events(stage) {
                let a = (e.start / scale.max(1)) as usize;
                let b = (e.end.div_ceil(scale.max(1)) as usize).min(width);
                let ch = b'0' + (e.item % 10) as u8;
                for c in lane.iter_mut().take(b).skip(a) {
                    *c = ch;
                }
            }
            out.push_str(&format!(
                "{:>6} |{}|\n",
                stage.to_string(),
                String::from_utf8_lossy(&lane)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChamConfig;

    fn trace(rows: usize) -> PipelineTrace {
        PipelineTrace::schedule(&ChamConfig::cham(), &RingShape::cham(), rows).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert!(PipelineTrace::schedule(&ChamConfig::cham(), &RingShape::cham(), 0).is_err());
    }

    #[test]
    fn schedule_is_conflict_free() {
        for rows in [1usize, 2, 7, 16, 64] {
            let t = trace(rows);
            assert!(t.is_conflict_free(), "rows={rows}");
        }
    }

    #[test]
    fn event_counts() {
        let rows = 16;
        let t = trace(rows);
        // 4 dot events per row + (padded − 1) reductions.
        assert_eq!(t.stage_events(Stage::Ntt).count(), rows);
        assert_eq!(t.stage_events(Stage::Pack).count(), rows - 1);
        assert_eq!(t.events.len(), 4 * rows + rows - 1);
    }

    #[test]
    fn steady_state_matches_cycle_model() {
        // For large row counts the trace's makespan per row approaches the
        // balanced interval (6144 cycles).
        let rows = 256;
        let t = trace(rows);
        let per_row = t.total_cycles as f64 / rows as f64;
        assert!((per_row - 6144.0).abs() / 6144.0 < 0.1, "per_row {per_row}");
    }

    #[test]
    fn pack_tail_extends_makespan() {
        // The last pack reduction must finish after the last dot product.
        let t = trace(32);
        let last_dot = t
            .stage_events(Stage::RescaleExtract)
            .map(|e| e.end)
            .max()
            .unwrap();
        let last_pack = t.stage_events(Stage::Pack).map(|e| e.end).max().unwrap();
        assert!(last_pack > last_dot);
        assert_eq!(t.total_cycles, last_pack);
    }

    #[test]
    fn utilization_and_render() {
        let t = trace(32);
        // In steady state, every dot stage is busy most of the time.
        for s in Stage::DOT_STAGES {
            let u = t.stage_utilization(s);
            assert!(u > 0.6, "{s} utilization {u}");
        }
        let chart = t.render(6144);
        assert!(chart.contains("NTT"));
        assert!(chart.contains("PACK"));
        assert_eq!(chart.lines().count(), 5);
    }

    #[test]
    fn stall_and_occupancy_metrics() {
        let t = trace(8);
        // Dot stages run back-to-back: zero internal stalls.
        for s in Stage::DOT_STAGES {
            assert_eq!(t.stage_stall(s), 0, "{s}");
        }
        // The pack unit waits on tree dependencies, so it does stall.
        assert!(t.stage_stall(Stage::Pack) > 0);
        let occ = t.occupancy();
        assert!(occ > 0.0 && occ < 1.0, "occupancy {occ}");
        // Busy + stall never exceeds the makespan for any stage.
        for s in Stage::ALL {
            assert!(t.stage_busy(s) + t.stage_stall(s) <= t.total_cycles, "{s}");
        }
    }

    #[test]
    fn metrics_json_shape() {
        let t = trace(4);
        let json = t.metrics_json().to_string();
        assert!(json.contains("\"total_cycles\""));
        assert!(json.contains("\"occupancy\""));
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{s}\"")), "{s} missing");
        }
        assert!(json.contains("\"busy_cycles\""));
        assert!(json.contains("\"stall_cycles\""));
        assert!(json.contains("\"utilization\""));
    }

    #[test]
    fn chrome_trace_has_one_track_per_stage() {
        let t = trace(4);
        let ct = t.to_chrome_trace(300e6);
        // 5 thread_name metadata events + one complete event each.
        assert_eq!(ct.len(), 5 + t.events.len());
        let json = ct.to_json();
        assert!(json.contains("\"traceEvents\""));
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{s}\"")), "{s} track missing");
        }
        assert!(json.contains("\"pack 0\""));
        assert!(json.contains("\"row 3\""));
        assert!(json.contains("\"start_cycle\""));
        // 6144 cycles at 300 MHz = 20.48 µs.
        assert!(json.contains("20.48"));
    }

    #[test]
    fn single_row_needs_no_packing() {
        let t = trace(1);
        assert_eq!(t.stage_events(Stage::Pack).count(), 0);
        assert_eq!(t.total_cycles, 4 * 6144);
    }
}
