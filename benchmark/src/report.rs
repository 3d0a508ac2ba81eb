//! Metric definitions, the environment record, and the result documents.

use std::process::Command;

use raw::engine::EngineConfig;
use raw_trace::Json;

use crate::workloads::{Ready, Scale, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric as `BENCHMARK.json` declares it (a test keeps the two in step).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the engine sees. `failed_share` is the sixth: it is
/// always 0 on a correct engine, so it travels as `failed ÷ attempted`
/// instead of a bounded metric.
pub const END_TO_END: [MetricDef; 5] = [
    lower("op_ms_p50", "ms"),
    lower("op_ms_p90", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// One number per layer property; the traced run reports all of them.
pub const PER_LAYER: [MetricDef; 34] = [
    higher("file_read_mb_per_s", "MB/s"),
    higher("file_pool_hit_ratio", "ratio"),
    lower("file_pool_evictions", "count"),
    lower("chunk_wait_ms", "ms"),
    higher("rzb_decode_mb_per_s", "MB/s"),
    lower("rzb_ratio", "ratio"),
    lower("rzb_decode_busy_ms", "ms"),
    lower("rzb_blocks_decoded", "count"),
    higher("tokenize_mb_per_s", "MB/s"),
    higher("convert_values_per_s", "1/s"),
    lower("fields_tokenized", "count"),
    lower("values_converted", "count"),
    lower("posmap_build_ns_per_entry", "ns"),
    lower("posmap_lookup_ns", "ns"),
    lower("posmap_bytes_per_row", "B"),
    higher("scan_rows_per_s_cold", "1/s"),
    higher("scan_rows_per_s_posmap", "1/s"),
    higher("template_hit_ratio", "ratio"),
    lower("compile_ms", "ms"),
    higher("filter_agg_rows_per_s", "1/s"),
    higher("group_rows_per_s", "1/s"),
    higher("join_probe_rows_per_s", "1/s"),
    lower("partition_ms", "ms"),
    lower("dispatch_us_per_morsel", "us"),
    lower("batch_wake_us", "us"),
    lower("morsels", "count"),
    lower("gate_wait_ms", "ms"),
    lower("plan_us", "us"),
    higher("shred_hit_ratio", "ratio"),
    lower("shred_evictions", "count"),
    higher("shreds_recorded", "count"),
    lower("query_ms_p50", "ms"),
    lower("engine_residual_share", "ratio"),
    lower("trace_overhead_share", "ratio"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// `{"name": {"value": v, "unit": u}, …}` — the contract's metrics object.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let cell = Json::obj(vec![
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.to_owned())),
                ]);
                (m.name.to_owned(), cell)
            })
            .collect(),
    )
}

/// The last line of a contract run: exactly these four keys.
pub fn contract_line(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn config_json(c: &EngineConfig) -> Json {
    let n = |v: usize| Json::UInt(v as u64);
    Json::obj(vec![
        ("mode", Json::Str(format!("{:?}", c.mode))),
        ("shreds", Json::Str(format!("{:?}", c.shreds))),
        ("join_placement", Json::Str(format!("{:?}", c.join_placement))),
        ("posmap_policy", Json::Str(format!("{:?}", c.posmap_policy))),
        ("batch_size", n(c.batch_size)),
        ("cache_shreds", Json::Bool(c.cache_shreds)),
        ("parallelism", n(c.parallelism)),
        ("admission_queries", n(c.admission_queries)),
        ("morsel_bytes", n(c.morsel_bytes)),
        ("read_chunk_bytes", n(c.read_chunk_bytes)),
        ("skew_split", n(c.skew_split)),
        ("rzb_block_bytes", n(c.rzb_block_bytes)),
        ("file_pool_bytes", n(c.file_pool_bytes)),
        ("shred_pool_bytes", n(c.shred_pool_bytes)),
    ])
}

/// The machine and input facts every output carries.
pub fn environment(w: Workload, seed: u64, scale: Scale, ready: &Ready) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let files =
        ready.files.sizes.iter().map(|(name, bytes)| (name.as_str(), Json::UInt(*bytes))).collect();
    Json::obj(vec![
        ("nproc", Json::UInt(nproc as u64)),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("git_commit", Json::Str(command_line("git", &["-C", manifest_dir, "rev-parse", "HEAD"]))),
        ("seed", Json::UInt(seed)),
        ("events_rows", Json::UInt(ready.data.events.rows() as u64)),
        ("dim_rows", Json::UInt(ready.data.dim.rows() as u64)),
        ("file_bytes", Json::obj(files)),
        ("clients", Json::UInt(w.clients() as u64)),
        ("ops_per_client", Json::UInt(scale.ops as u64)),
        ("engine_config", config_json(&ready.config)),
    ])
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's schema: key set, value types, and agreement between
    /// this file's tables and the committed `BENCHMARK.json`.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = raw_trace::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = if d.better == Better::Lower { "lower" } else { "higher" };
                    (d.name.to_owned(), d.unit.to_owned(), better.to_owned())
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(100, 0, true, &[Metric::new("op_ms_p50", 1.25, "ms")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":100,"failed":0,"metrics":{"op_ms_p50":{"value":1.25,"unit":"ms"}}}"#
        );
        let parsed = raw_trace::json::parse(&line).unwrap();
        assert_eq!(parsed.as_obj().unwrap().len(), 4);
    }
}
