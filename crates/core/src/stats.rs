//! Per-query execution statistics, the per-morsel query trace, and the
//! EXPLAIN ANALYZE rendering.
//!
//! # The metrics/trace contract
//!
//! Three layers of measurement, from widest to narrowest scope:
//!
//! 1. **`EngineMetrics`** (`raw_trace`) — engine-lifetime atomic counters,
//!    shared by the file pool, chunk streams, and the executor. Monotonic;
//!    never reset by a query. [`crate::RawEngine::metrics`] exposes it.
//! 2. **[`QueryStats`]** — one query's deltas: everything below is charged
//!    between the query's first and last instruction, by subtracting
//!    engine-state snapshots (template/shred cache stats, pool disk bytes)
//!    or by summing per-morsel scan counters.
//! 3. **[`QueryTrace`]** — the per-morsel breakdown of a parallel run: for
//!    each morsel, which worker drained it, how long it waited in its
//!    availability gate, its drain wall time, and its own scan
//!    profile/metrics. Whole-file runs carry no trace (`None`).
//!
//! ## When each counter is charged
//!
//! - `scan` / `metrics` — summed over every scan operator the query ran
//!   (all morsels, plus a join's plan-time build-side drain). Parallel
//!   counters **tile** the whole-file run's exactly: the morsel grid partitions
//!   the file, so `rows_scanned`, `rows_pruned`, `fields_tokenized`,
//!   `values_converted`, and `values_materialized` sum to the same totals
//!   for any worker count (the `stats_equivalence` suite pins this).
//! - `io_bytes` — the file pool's `bytes_from_disk` delta across the query:
//!   whole files on blocking cold reads, per completed chunk on streamed
//!   ones; `0` warm. Identical across blocking and streamed cold paths.
//! - `template_*` / `shred_*` / `compile_time` — cache-stat deltas across
//!   the query (planning-time traffic included).
//! - `workers` / `morsels` / `gate_wait` — the parallel run shape; whole-file
//!   runs report `workers == 1`, `morsels == 0`, zero gate-wait. Gate-wait
//!   (like the engine registry's `chunk_waits`) is *scheduling-dependent*:
//!   it measures real overlap stalls and legitimately differs between
//!   identical runs, so equivalence tests must not assert exact values.
//!
//! ## The single-writer merge rule
//!
//! Morsel traces are recorded by the pool worker that drained the morsel,
//! into that worker's **private** sink (one `Vec` per worker — no lock, no
//! sharing on the hot path), and merged into morsel order only after the
//! pool barrier. One trace record per morsel, never per row: tracing adds
//! no work inside scan loops, and trace volume is O(morsels).

use std::time::Duration;

use raw_columnar::profile::{PhaseProfile, ScanMetrics};
use raw_trace::{Json, MorselTrace};

/// Static, per-morsel plan metadata: what the planner decided a morsel
/// covers, zipped with the runtime [`MorselTrace`] by index.
#[derive(Debug, Clone, Default)]
pub struct MorselMeta {
    /// Driving-table format (`csv`, `fbin`, `ibin`, `root-events`,
    /// `root-collection`).
    pub format: &'static str,
    /// Byte range of the driving file this morsel covers (row-derived for
    /// binary formats).
    pub byte_start: usize,
    /// End of the morsel's byte range (exclusive).
    pub byte_end: usize,
    /// First driving-table row of the morsel.
    pub first_row: u64,
    /// End row (exclusive).
    pub end_row: u64,
}

/// The per-morsel record of one parallel run: runtime traces (in morsel
/// order) zipped with the planner's morsel metadata.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Runtime per-morsel records, in morsel order.
    pub morsels: Vec<MorselTrace>,
    /// Planner metadata, aligned with the morsel grid (index = morsel).
    pub meta: Vec<MorselMeta>,
}

impl QueryTrace {
    /// Total time workers spent blocked in availability gates.
    pub fn total_gate_wait(&self) -> Duration {
        self.morsels.iter().map(|t| t.gate_wait).sum()
    }

    /// Distinct workers that actually drained at least one morsel.
    pub fn workers_used(&self) -> usize {
        let mut seen: Vec<usize> = self.morsels.iter().map(|t| t.worker).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// The per-morsel table: one line per morsel with worker, gate-wait,
    /// drain time, rows, and scan volume.
    pub fn morsel_table(&self) -> String {
        let mut out = String::from(
            "morsel  worker  format  rows            gate_wait    exec         rows_out  scanned  pruned\n",
        );
        for t in &self.morsels {
            let meta = self.meta.get(t.morsel);
            let format = meta.map_or("?", |m| m.format);
            let rows =
                meta.map_or_else(|| "?".to_owned(), |m| format!("{}..{}", m.first_row, m.end_row));
            out.push_str(&format!(
                "{:<6}  {:<6}  {:<6}  {:<14}  {:<11}  {:<11}  {:<8}  {:<7}  {}\n",
                t.morsel,
                t.worker,
                format,
                rows,
                format!("{:.3?}", t.gate_wait),
                format!("{:.3?}", t.exec),
                t.rows_out,
                t.metrics.rows_scanned,
                t.metrics.rows_pruned,
            ));
        }
        out
    }

    /// Serialize: worker count plus the zipped morsel records.
    pub fn to_json(&self) -> Json {
        let morsels = self
            .morsels
            .iter()
            .map(|t| {
                let mut obj = match t.to_json() {
                    Json::Obj(fields) => fields,
                    _ => unreachable!("MorselTrace::to_json returns an object"),
                };
                if let Some(m) = self.meta.get(t.morsel) {
                    obj.push(("format".to_owned(), Json::Str(m.format.to_owned())));
                    obj.push(("byte_start".to_owned(), Json::UInt(m.byte_start as u64)));
                    obj.push(("byte_end".to_owned(), Json::UInt(m.byte_end as u64)));
                    obj.push(("first_row".to_owned(), Json::UInt(m.first_row)));
                    obj.push(("end_row".to_owned(), Json::UInt(m.end_row)));
                }
                Json::Obj(obj)
            })
            .collect();
        Json::obj(vec![
            ("workers", Json::UInt(self.workers as u64)),
            ("workers_used", Json::UInt(self.workers_used() as u64)),
            ("gate_wait_s", Json::Float(self.total_gate_wait().as_secs_f64())),
            ("morsels", Json::Arr(morsels)),
        ])
    }
}

/// Everything the engine measured while answering one query.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// End-to-end wall time (parse + plan + execute + cache recording).
    pub wall: Duration,
    /// Aggregated raw-data-access phase profile (Figure-3 categories).
    pub scan: PhaseProfile,
    /// Aggregated scan volume counters.
    pub metrics: ScanMetrics,
    /// Bytes read from disk during this query (0 on a fully warm run).
    pub io_bytes: u64,
    /// Time spent compiling access paths (template-cache misses).
    pub compile_time: Duration,
    /// Template-cache hits during planning.
    pub template_hits: u64,
    /// Template-cache misses (compilations) during planning.
    pub template_misses: u64,
    /// Shred-pool hits during planning.
    pub shred_hits: u64,
    /// Shred-pool misses during planning.
    pub shred_misses: u64,
    /// Positional maps built (or extended) as a side effect.
    pub posmaps_built: usize,
    /// Shreds recorded into the pool as a side effect.
    pub shreds_recorded: usize,
    /// Rows in the result.
    pub rows_out: u64,
    /// Worker threads used (1 for whole-file runs).
    pub workers: usize,
    /// Morsels executed (0 for whole-file runs).
    pub morsels: usize,
    /// Total worker time blocked in availability gates (cold streamed runs;
    /// scheduling-dependent — advisory, never asserted exactly).
    pub gate_wait: Duration,
    /// Plan description, one line per step.
    pub explain: Vec<String>,
    /// Per-morsel trace of a morsel run (`None` for a whole-file run).
    pub trace: Option<QueryTrace>,
}

impl QueryStats {
    /// Wall time in seconds (convenience for reports).
    pub fn wall_secs(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Fraction of wall time spent in scan CPU work (can exceed 1.0 under
    /// parallelism: scan time is summed across workers).
    pub fn scan_fraction(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.scan.total.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// Render a compact one-line summary: wall time with scan/compile
    /// fractions, I/O, cache traffic, the parallel-run shape, and row
    /// volumes (out and pruned) — the numbers parallel-path triage needs.
    pub fn summary(&self) -> String {
        format!(
            "wall={:?} (scan {:.0}% compile {:.0}%) io={}B compile={:?} tmpl={}H/{}M \
             shreds={}H/{}M workers={} morsels={} gate_wait={:?} rows={} pruned={}",
            self.wall,
            self.scan_fraction() * 100.0,
            if self.wall.is_zero() {
                0.0
            } else {
                self.compile_time.as_secs_f64() / self.wall.as_secs_f64() * 100.0
            },
            self.io_bytes,
            self.compile_time,
            self.template_hits,
            self.template_misses,
            self.shred_hits,
            self.shred_misses,
            self.workers.max(1),
            self.morsels,
            self.gate_wait,
            self.rows_out,
            self.metrics.rows_pruned,
        )
    }

    /// EXPLAIN ANALYZE rendering: every plan line annotated with the
    /// actuals the engine measured for that operator class, followed by the
    /// totals block and (for parallel runs, when `per_morsel`) the
    /// per-morsel worker/gate-wait table.
    ///
    /// Annotation is by plan-line class — scan lines carry scan actuals,
    /// aggregate/project lines carry output rows, the `parallel:` line
    /// carries the run shape — because the planner emits free-form notes,
    /// not an operator tree.
    pub fn explain_analyze(&self, per_morsel: bool) -> String {
        let mut out = String::new();
        for line in &self.explain {
            out.push_str(line);
            if line.starts_with("scan ") || line.contains(" scan ") || line.starts_with("fetch ") {
                out.push_str(&format!(
                    "  (actual: rows_scanned={} rows_pruned={} fields_tokenized={} time={:.3?})",
                    self.metrics.rows_scanned,
                    self.metrics.rows_pruned,
                    self.metrics.fields_tokenized,
                    self.scan.total,
                ));
            } else if line.starts_with("aggregate ")
                || line.starts_with("project ")
                || line.starts_with("hash join ")
            {
                out.push_str(&format!("  (actual: rows_out={})", self.rows_out));
            } else if line.starts_with("parallel:") {
                out.push_str(&format!(
                    "  (actual: workers={} morsels={} gate_wait={:.3?})",
                    self.trace.as_ref().map_or(self.workers, |t| t.workers_used()),
                    self.morsels,
                    self.gate_wait,
                ));
            } else if line.starts_with("filter ") {
                out.push_str(&format!(
                    "  (actual: rows_in={})",
                    self.metrics.rows_scanned.saturating_sub(self.metrics.rows_pruned)
                ));
            }
            out.push('\n');
        }
        out.push_str(&format!("totals: {}\n", self.summary()));
        if per_morsel {
            if let Some(trace) = &self.trace {
                out.push_str(&trace.morsel_table());
            }
        }
        out
    }

    /// Serialize the full stats record (trace included when present).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("wall_s", Json::Float(self.wall.as_secs_f64())),
            ("scan_s", Json::Float(self.scan.total.as_secs_f64())),
            ("parsing_s", Json::Float(self.scan.parsing.as_secs_f64())),
            ("conversion_s", Json::Float(self.scan.conversion.as_secs_f64())),
            ("build_columns_s", Json::Float(self.scan.build_columns.as_secs_f64())),
            ("rows_scanned", Json::UInt(self.metrics.rows_scanned)),
            ("rows_pruned", Json::UInt(self.metrics.rows_pruned)),
            ("fields_tokenized", Json::UInt(self.metrics.fields_tokenized)),
            ("values_converted", Json::UInt(self.metrics.values_converted)),
            ("values_materialized", Json::UInt(self.metrics.values_materialized)),
            ("io_bytes", Json::UInt(self.io_bytes)),
            ("compile_s", Json::Float(self.compile_time.as_secs_f64())),
            ("template_hits", Json::UInt(self.template_hits)),
            ("template_misses", Json::UInt(self.template_misses)),
            ("shred_hits", Json::UInt(self.shred_hits)),
            ("shred_misses", Json::UInt(self.shred_misses)),
            ("posmaps_built", Json::UInt(self.posmaps_built as u64)),
            ("shreds_recorded", Json::UInt(self.shreds_recorded as u64)),
            ("rows_out", Json::UInt(self.rows_out)),
            ("workers", Json::UInt(self.workers.max(1) as u64)),
            ("morsels", Json::UInt(self.morsels as u64)),
            ("gate_wait_s", Json::Float(self.gate_wait.as_secs_f64())),
        ];
        if let Some(trace) = &self.trace {
            fields.push(("trace", trace.to_json()));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders() {
        let s = QueryStats { rows_out: 3, io_bytes: 42, ..Default::default() };
        let line = s.summary();
        assert!(line.contains("io=42B"));
        assert!(line.contains("rows=3"));
        assert!(line.contains("workers=1"));
        assert!(line.contains("pruned=0"));
        assert_eq!(s.wall_secs(), 0.0);
    }

    fn parallel_stats() -> QueryStats {
        let metrics = ScanMetrics { rows_scanned: 100, rows_pruned: 40, ..Default::default() };
        let trace = QueryTrace {
            workers: 4,
            morsels: vec![
                MorselTrace { morsel: 0, worker: 1, rows_out: 30, ..Default::default() },
                MorselTrace { morsel: 1, worker: 0, rows_out: 30, ..Default::default() },
            ],
            meta: vec![
                MorselMeta {
                    format: "csv",
                    byte_start: 0,
                    byte_end: 512,
                    first_row: 0,
                    end_row: 50,
                },
                MorselMeta {
                    format: "csv",
                    byte_start: 512,
                    byte_end: 1024,
                    first_row: 50,
                    end_row: 100,
                },
            ],
        };
        QueryStats {
            metrics,
            rows_out: 60,
            workers: 4,
            morsels: 2,
            explain: vec![
                "scan t_csv [jit]".to_owned(),
                "project a, b".to_owned(),
                "parallel: 2 morsels x 4 threads [concat in morsel order]".to_owned(),
            ],
            trace: Some(trace),
            ..Default::default()
        }
    }

    #[test]
    fn explain_analyze_annotates_operators_and_lists_morsels() {
        let s = parallel_stats();
        let text = s.explain_analyze(true);
        assert!(text.contains("scan t_csv [jit]  (actual: rows_scanned=100 rows_pruned=40"));
        assert!(text.contains("project a, b  (actual: rows_out=60)"));
        assert!(text.contains("(actual: workers=2 morsels=2"));
        assert!(text.contains("totals:"));
        // Per-morsel table: worker + format + row range columns present.
        assert!(text.contains("morsel  worker  format"));
        assert!(text.contains("0..50"));
        assert!(text.contains("50..100"));
        // Without the flag the table is omitted but annotations stay.
        let brief = s.explain_analyze(false);
        assert!(!brief.contains("morsel  worker"));
        assert!(brief.contains("(actual: rows_scanned=100"));
    }

    #[test]
    fn stats_serialize_with_trace() {
        let s = parallel_stats();
        let json = s.to_json();
        assert_eq!(json.get("rows_scanned").and_then(Json::as_u64), Some(100));
        assert_eq!(json.get("morsels").and_then(Json::as_u64), Some(2));
        let trace = json.get("trace").expect("trace present");
        assert_eq!(trace.get("workers").and_then(Json::as_u64), Some(4));
        assert_eq!(trace.get("workers_used").and_then(Json::as_u64), Some(2));
        let morsels = trace.get("morsels").and_then(Json::as_arr).expect("morsel array");
        assert_eq!(morsels.len(), 2);
        assert_eq!(morsels[0].get("format").and_then(Json::as_str), Some("csv"));
        assert_eq!(morsels[1].get("first_row").and_then(Json::as_u64), Some(50));
        // Round-trips through the hand-rolled parser.
        let parsed = raw_trace::json::parse(&json.render()).unwrap();
        assert_eq!(parsed.get("rows_out").and_then(Json::as_u64), Some(60));
    }

    #[test]
    fn trace_totals() {
        let t = QueryTrace {
            workers: 8,
            morsels: vec![
                MorselTrace {
                    morsel: 0,
                    worker: 3,
                    gate_wait: Duration::from_millis(5),
                    ..Default::default()
                },
                MorselTrace {
                    morsel: 1,
                    worker: 3,
                    gate_wait: Duration::from_millis(7),
                    ..Default::default()
                },
            ],
            meta: Vec::new(),
        };
        assert_eq!(t.total_gate_wait(), Duration::from_millis(12));
        assert_eq!(t.workers_used(), 1);
    }
}
