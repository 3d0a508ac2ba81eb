//! One workload in this process: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer ones.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use raw_trace::Json;

use crate::layers;
use crate::report::{self, Metric};
use crate::spans::{self, Recorder};
use crate::stats::{median, tail_percentile};
use crate::workloads::{self, ClientLog, Measured, Scale, Workload, COUNT_NAMES};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where the benchmark writes: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The run's scratch directory, deleted when the run ends — however it ends.
struct DataDir(PathBuf);

impl DataDir {
    fn new(w: Workload, seed: u64) -> DataDir {
        DataDir(out_dir().join(format!("data_{}_{seed}_{}", w.name(), std::process::id())))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a finished run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every answer matched the oracle and every design invariant held.
    pub correct: bool,
    /// The metrics of the contract line.
    pub metrics: Vec<Metric>,
    /// The full result document.
    pub report: Json,
}

/// One of [`COUNT_NAMES`], summed over the timed queries.
fn count_total(log: &ClientLog, name: &str) -> u64 {
    let i = COUNT_NAMES.iter().position(|&n| n == name).expect("a declared count");
    log.queries.iter().map(|q| q.counts[i]).sum()
}

/// Invariants of the workload's design, checked on every run.
fn design_violations(w: Workload, log: &ClientLog) -> Vec<String> {
    let mut out = Vec::new();
    if w.clients() == 1 {
        out.extend(log.count_mismatches.iter().map(|m| format!("counts not exact: {m}")));
    }
    if w == Workload::WarmOps {
        for name in ["fields_tokenized", "io_bytes"] {
            let total = count_total(log, name);
            if total != 0 {
                out.push(format!("warm_ops must not touch raw bytes, but {name} = {total}"));
            }
        }
    }
    out
}

/// `{count: total}` — exact on a single client — plus, where sessions race,
/// `[min, median, max]` per query.
fn counts_json(w: Workload, log: &ClientLog) -> Vec<(&'static str, Json)> {
    let totals = COUNT_NAMES.iter().map(|&n| (n, Json::UInt(count_total(log, n)))).collect();
    let mut out = vec![
        ("counts_exact", Json::Bool(w.clients() == 1 && log.count_mismatches.is_empty())),
        ("counts_total", Json::obj(totals)),
    ];
    if w.clients() > 1 {
        let spread = COUNT_NAMES
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut v: Vec<f64> = log.queries.iter().map(|q| q.counts[i] as f64).collect();
                v.sort_by(f64::total_cmp);
                let cell = [v[0], median(&v), v[v.len() - 1]].map(Json::Float).to_vec();
                (n, Json::Arr(cell))
            })
            .collect();
        out.push(("counts_per_query_min_median_max", Json::obj(spread)));
    }
    out
}

fn op_latencies(w: Workload, log: &ClientLog) -> (f64, Option<f64>) {
    let p50 = median(&log.op_ms);
    // A whole exploration is the operation; its tail is taken over the
    // queries inside, the only population with ten samples beyond p90.
    let p90 = if w == Workload::AdaptiveSeq {
        let query_ms: Vec<f64> = log.queries.iter().map(|q| q.ms).collect();
        tail_percentile(&query_ms, 0.9)
    } else {
        tail_percentile(&log.op_ms, 0.9)
    };
    (p50, p90)
}

/// Judge the run and assemble its result document; `extra` is appended.
fn finish(
    w: Workload,
    mode: &str,
    env: Json,
    log: &ClientLog,
    metrics: Vec<Metric>,
    extra: Vec<(&'static str, Json)>,
) -> Outcome {
    let violations = design_violations(w, log);
    let correct = log.failed == 0 && violations.is_empty();
    let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
    let mut doc = vec![
        ("workload", Json::Str(w.name().into())),
        ("mode", Json::Str(mode.into())),
        ("claim", Json::Null),
        ("env", env),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(log.attempted)),
        ("failed", Json::UInt(log.failed)),
        ("failed_share", Json::Float(log.failed as f64 / log.attempted as f64)),
        ("samples_ops", Json::UInt(log.op_ms.len() as u64)),
        ("samples_queries", Json::UInt(log.queries.len() as u64)),
        ("metrics", report::metrics_json(&metrics)),
        ("failures", strings(&log.failures)),
        ("design_violations", strings(&violations)),
    ];
    doc.extend(counts_json(w, log));
    doc.extend(extra);
    Outcome {
        attempted: log.attempted,
        failed: log.failed,
        correct,
        metrics,
        report: Json::obj(doc),
    }
}

/// The untraced run: set up, measure, then set up twice more for a steady
/// `setup_s`.
pub fn untraced(
    w: Workload,
    seed: u64,
    seconds: u64,
    smoke: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let scale = Scale::new(w, seconds, smoke, false);
    let dir = DataDir::new(w, seed);
    let ready = workloads::setup(w, seed, scale, &dir.0, false)?;
    let mut setup_s = vec![process_start.elapsed().as_secs_f64()];
    let Measured { log, wall_s, .. } = workloads::measure(&ready, false, Instant::now());
    // Read before the extra set-ups below, so it is what a process that sets
    // up once and runs would show.
    let rss = report::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let env = report::environment(w, seed, scale, &ready);
    drop(ready);
    while setup_s.len() < SETUPS {
        let start = Instant::now();
        let again = workloads::setup(w, seed, scale, &dir.0, false)?;
        setup_s.push(start.elapsed().as_secs_f64());
        drop(again);
    }

    let (p50, p90) = op_latencies(w, &log);
    let mut metrics = vec![Metric::new("op_ms_p50", p50, "ms")];
    metrics.extend(p90.map(|v| Metric::new("op_ms_p90", v, "ms")));
    metrics.push(Metric::new("ops_per_s", (log.attempted - log.failed) as f64 / wall_s, "1/s"));
    metrics.push(Metric::new("peak_rss_mb", rss, "MB"));
    metrics.push(Metric::new("setup_s", median(&setup_s), "s"));

    let extra = vec![
        ("measured_wall_s", Json::Float(wall_s)),
        ("setup_s_each", Json::Arr(setup_s.into_iter().map(Json::Float).collect())),
    ];
    Ok(finish(w, "run", env, &log, metrics, extra))
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Median query latency per key, as `{key: {"count": n, "p50_ms": x}}`.
fn latency_breakdown<K: Ord + ToString>(samples: impl Iterator<Item = (K, f64)>) -> Json {
    let mut groups: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (k, ms) in samples {
        groups.entry(k).or_default().push(ms);
    }
    Json::Obj(
        groups
            .into_iter()
            .map(|(k, ms)| {
                let cell = Json::obj(vec![
                    ("count", Json::UInt(ms.len() as u64)),
                    ("p50_ms", Json::Float(median(&ms))),
                ]);
                (k.to_string(), cell)
            })
            .collect(),
    )
}

/// The traced run: a third of the ops replayed untraced, then again with
/// spans and counts recorded, then the layer probes.
pub fn traced(w: Workload, seed: u64, seconds: u64, smoke: bool) -> Result<Outcome, String> {
    let scale = Scale::new(w, seconds, smoke, true);
    let dir = DataDir::new(w, seed);
    let ready = workloads::setup(w, seed, scale, &dir.0, true)?;
    let untraced_p50 = median(&workloads::measure(&ready, false, Instant::now()).log.op_ms);
    drop(ready);

    let ready = workloads::setup(w, seed, scale, &dir.0, true)?;
    let epoch = Instant::now();
    let Measured { log, mut spans, .. } = workloads::measure(&ready, true, epoch);
    let mut rec = Recorder::new(true, epoch, 900_000_000_000);
    let mut metrics = layers::run(&ready, &mut rec);
    let plan = layers::plan_probe(&ready, &mut rec);
    spans.extend(rec.into_spans());

    let engine = |name: &str| log.engine_counters.get(name).copied().unwrap_or(0);
    let total = |name: &str| count_total(&log, name);
    let rows = ready.data.events.rows() as f64;
    let accounted_ns =
        log.queries.len() as f64 * plan.value * 1e3 + (log.compile_ns + log.blocking_ns) as f64;
    let query_ms: Vec<f64> = log.queries.iter().map(|q| q.ms).collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    metrics.push(plan);
    metrics.extend([
        Metric::new(
            "file_pool_hit_ratio",
            ratio(engine("file_pool_hits"), engine("file_pool_misses")),
            "ratio",
        ),
        Metric::new("file_pool_evictions", engine("file_pool_evictions") as f64, "count"),
        Metric::new("chunk_wait_ms", ms(engine("chunk_wait_nanos")), "ms"),
        Metric::new("rzb_decode_busy_ms", ms(engine("rzb_decode_nanos")), "ms"),
        Metric::new("rzb_blocks_decoded", engine("rzb_blocks_decoded") as f64, "count"),
        Metric::new("fields_tokenized", total("fields_tokenized") as f64, "count"),
        Metric::new("values_converted", total("values_converted") as f64, "count"),
        Metric::new("posmap_bytes_per_row", engine("posmap_bytes") as f64 / rows, "B"),
        Metric::new(
            "template_hit_ratio",
            ratio(total("template_hits"), total("template_misses")),
            "ratio",
        ),
        Metric::new("compile_ms", ms(log.compile_ns), "ms"),
        Metric::new("morsels", total("morsels") as f64, "count"),
        Metric::new("gate_wait_ms", ms(log.gate_wait_ns), "ms"),
        Metric::new("shred_hit_ratio", ratio(total("shred_hits"), total("shred_misses")), "ratio"),
        Metric::new("shred_evictions", engine("shred_evictions") as f64, "count"),
        Metric::new("shreds_recorded", log.shreds_recorded as f64, "count"),
        Metric::new("query_ms_p50", median(&query_ms), "ms"),
        Metric::new("engine_residual_share", 1.0 - accounted_ns / log.query_ns as f64, "ratio"),
        Metric::new("trace_overhead_share", median(&log.op_ms) / untraced_p50 - 1.0, "ratio"),
    ]);
    // The contract wants the declared order.
    metrics.sort_by_key(|m| report::PER_LAYER.iter().position(|d| d.name == m.name));

    let table = spans::self_times(&spans);
    println!("per-layer table for {} (self = span minus its children)", w.name());
    println!("  {:<36} {:>7} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for row in &table {
        println!(
            "  {:<36} {:>7} {:>12.3} {:>12.3}",
            row.name, row.count, row.total_ms, row.self_ms
        );
    }

    let table_json = table
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("span", Json::Str(r.name.clone())),
                ("count", Json::UInt(r.count)),
                ("total_ms", Json::Float(r.total_ms)),
                ("self_ms", Json::Float(r.self_ms)),
            ])
        })
        .collect();
    let extra = vec![
        ("query_ms_by_shape", latency_breakdown(log.queries.iter().map(|q| (q.shape, q.ms)))),
        ("query_ms_by_position", latency_breakdown(log.queries.iter().map(|q| (q.pos + 1, q.ms)))),
        ("self_time", Json::Arr(table_json)),
    ];
    let env = report::environment(w, seed, scale, &ready);
    let outcome = finish(w, "trace", env, &log, metrics, extra);

    // The trace document is the report plus the raw spans.
    let mut with_spans = outcome.report.as_obj().expect("the report is an object").to_vec();
    with_spans.push(("spans".to_owned(), spans::spans_json(&spans)));
    let path = out_dir().join(format!("trace_{}.json", w.name()));
    std::fs::write(&path, Json::Obj(with_spans).render_pretty(1))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(outcome)
}
