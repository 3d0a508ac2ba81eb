//! Ablation experiments for the engine's main design choices.
//!
//! The paper's figures compare whole systems; these ablations isolate one
//! mechanism each, answering "how much does this specific design decision
//! buy, and where does it stop paying?":
//!
//! - [`ablation_index`] — the §4.1 claim that generated access paths can
//!   exploit format-embedded indexes: index-aware JIT vs. index-blind
//!   general-purpose scans over the same `ibin` file.
//! - [`ablation_adaptive`] — the §8 future-work cost model: does the
//!   `Adaptive` strategy track the best fixed strategy across the
//!   selectivity sweep?
//! - [`ablation_posmap`] — the positional-map granularity trade-off §2.3
//!   describes ("number of positions to track vs. future benefits"),
//!   swept over tracking strides.
//! - [`ablation_compile`] — the §4.2 compilation-overhead discussion: how
//!   a template cache amortizes (simulated) compile latency across query
//!   resubmissions.
//! - [`ablation_batch`] — the vectorization granularity the columnar
//!   substrate (Supersonic stand-in) rests on: batch-size sweep.

use std::time::Duration;

use raw_engine::{AccessMode, EngineConfig, RawEngine, ShredStrategy};
use raw_formats::datagen::literal_for_selectivity;
use raw_posmap::TrackingPolicy;

use crate::experiments::{q1, q2, system_config};
use crate::report::ExpTable;
use crate::{datasets, fmt_duration, time_once, Scale, SELECTIVITIES};

fn run(engine: &mut RawEngine, sql: &str) -> raw_engine::QueryResult {
    engine.query(sql).unwrap_or_else(|e| panic!("query failed: {e}\n  {sql}"))
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}

/// Ablation: index-aware JIT scans vs. index-blind access over `ibin`.
pub fn ablation_index(scale: &Scale) -> ExpTable {
    let s = *scale;
    let mut table = ExpTable::new(
        "Ablation — format-embedded index (ibin, sorted by col1): \
         SELECT MAX(col11) WHERE col1 < X",
        std::iter::once("system".to_owned())
            .chain(SELECTIVITIES.iter().map(|s| format!("{:.0}%", s * 100.0)))
            .collect(),
    );
    table.note(format!(
        "dataset: {} rows x 30 int columns (ibin, 4096-row pages, sorted key)",
        s.narrow_rows
    ));
    table.note(
        "expect: JIT time grows with selectivity (pruning shrinks the scan); \
         in-situ flat (index-blind); DBMS flat after load",
    );

    let systems: Vec<(&str, AccessMode)> = vec![
        ("JIT (index)", AccessMode::Jit),
        ("In Situ (blind)", AccessMode::InSitu),
        ("DBMS", AccessMode::Dbms),
    ];
    for (name, mode) in systems {
        let mut cells = vec![name.to_owned()];
        for &sel in SELECTIVITIES {
            let x = literal_for_selectivity(sel);
            let mut times = Vec::new();
            for _ in 0..s.repeats.max(1) {
                let mut engine = datasets::engine_narrow_ibin(
                    &s,
                    system_config(mode, ShredStrategy::FullColumns, 10),
                );
                run(&mut engine, &q1("file1", x)); // warm buffers / DBMS load
                let (_, d) = time_once(|| run(&mut engine, &q2("file1", x)));
                times.push(d);
            }
            cells.push(fmt_duration(median(times)));
        }
        table.row(cells);
    }

    // One more row: the fraction of rows the JIT scan skipped per point.
    let mut cells = vec!["JIT rows pruned".to_owned()];
    for &sel in SELECTIVITIES {
        let x = literal_for_selectivity(sel);
        let mut engine = datasets::engine_narrow_ibin(
            &s,
            system_config(AccessMode::Jit, ShredStrategy::FullColumns, 10),
        );
        let r = run(&mut engine, &q2("file1", x));
        cells.push(format!(
            "{:.0}%",
            100.0 * r.stats.metrics.rows_pruned as f64 / s.narrow_rows as f64
        ));
    }
    table.row(cells);
    table
}

/// Ablation: cost-model-driven `Adaptive` strategy vs. every fixed one.
pub fn ablation_adaptive(scale: &Scale) -> ExpTable {
    let s = *scale;
    let mut table = ExpTable::new(
        "Ablation — adaptive strategy selection (CSV): SELECT MAX(col11) WHERE col1 < X",
        std::iter::once("strategy".to_owned())
            .chain(SELECTIVITIES.iter().map(|s| format!("{:.0}%", s * 100.0)))
            .collect(),
    );
    table.note(format!(
        "dataset: {} rows x 30 int columns (CSV); Q1 builds posmap + histogram",
        s.narrow_rows
    ));
    table.note(
        "expect: Adaptive tracks min(Full, Shreds) — shreds at low selectivity, \
         full at 100%; annotation = chosen plan (F/S/M)",
    );

    let strategies: Vec<(&str, ShredStrategy)> = vec![
        ("Full (fixed)", ShredStrategy::FullColumns),
        ("Shreds (fixed)", ShredStrategy::ColumnShreds),
        ("Adaptive", ShredStrategy::Adaptive),
    ];
    for (name, strat) in strategies {
        let mut cells = vec![name.to_owned()];
        for &sel in SELECTIVITIES {
            let x = literal_for_selectivity(sel);
            let mut times = Vec::new();
            let mut chosen = String::new();
            for _ in 0..s.repeats.max(1) {
                let mut engine =
                    datasets::engine_narrow_csv(&s, system_config(AccessMode::Jit, strat, 10));
                run(&mut engine, &q1("file1", x));
                let (r, d) = time_once(|| run(&mut engine, &q2("file1", x)));
                times.push(d);
                if strat == ShredStrategy::Adaptive {
                    chosen = r
                        .stats
                        .explain
                        .iter()
                        .find(|l| l.contains("adaptive strategy"))
                        .map(|l| {
                            if l.contains("MultiColumnShreds") {
                                " (M)"
                            } else if l.contains("ColumnShreds") {
                                " (S)"
                            } else {
                                " (F)"
                            }
                        })
                        .unwrap_or("")
                        .to_owned();
                }
            }
            cells.push(format!("{}{}", fmt_duration(median(times)), chosen));
        }
        table.row(cells);
    }
    table
}

/// Ablation: positional-map tracking stride (§2.3's trade-off).
pub fn ablation_posmap(scale: &Scale) -> ExpTable {
    let s = *scale;
    let x = literal_for_selectivity(0.4);
    let mut table = ExpTable::new(
        "Ablation — positional-map granularity (CSV): Q2 warm, 40% selectivity",
        vec![
            "tracking stride".into(),
            "Q2 time".into(),
            "fields skipped to col11".into(),
            "posmap entries/row".into(),
        ],
    );
    table.note(format!("dataset: {} rows x 30 int columns (CSV)", s.narrow_rows));
    table.note(
        "expect: stride 1 fastest (every column exact) but 30 entries/row of \
         memory; cost rises with fields to parse past the nearest tracked column",
    );

    for stride in [1usize, 2, 5, 7, 10, 15, 30] {
        // col11 = source ordinal 10; nearest tracked ordinal at or below.
        let skip = 10 % stride;
        let entries_per_row = 30usize.div_ceil(stride);
        let mut times = Vec::new();
        for _ in 0..s.repeats.max(1) {
            let mut engine = datasets::engine_narrow_csv(
                &s,
                EngineConfig {
                    mode: AccessMode::Jit,
                    shreds: ShredStrategy::FullColumns,
                    posmap_policy: TrackingPolicy::EveryK { stride },
                    ..EngineConfig::default()
                },
            );
            run(&mut engine, &q1("file1", x));
            let (_, d) = time_once(|| run(&mut engine, &q2("file1", x)));
            times.push(d);
        }
        table.row(vec![
            stride.to_string(),
            fmt_duration(median(times)),
            skip.to_string(),
            entries_per_row.to_string(),
        ]);
    }
    table
}

/// Ablation: template cache amortization of compile latency (§4.2).
pub fn ablation_compile(scale: &Scale) -> ExpTable {
    let s = *scale;
    let x = literal_for_selectivity(0.4);
    let simulated = Duration::from_millis(50);
    let mut table = ExpTable::new(
        "Ablation — template cache vs. per-query compilation (CSV, 50 ms simulated \
         compile latency)",
        vec![
            "configuration".into(),
            "query 1".into(),
            "query 2".into(),
            "query 3".into(),
            "query 4".into(),
        ],
    );
    table.note(format!("dataset: {} rows x 30 int columns (CSV)", s.narrow_rows));
    table.note(
        "expect: with the cache, compiles happen only while access paths still \
         change (query 1 has no posmap, query 2 gains one → two compiles), then \
         resubmissions hit; clearing the cache re-pays the compile every query \
         — the paper's library-cache amortization",
    );

    let configs: Vec<(&str, Duration, bool)> = vec![
        ("cache on, no latency", Duration::ZERO, false),
        ("cache on, 50 ms compile", simulated, false),
        ("cache cleared each query", simulated, true),
    ];
    for (name, latency, clear) in configs {
        let mut engine = datasets::engine_narrow_csv(
            &s,
            EngineConfig {
                mode: AccessMode::Jit,
                shreds: ShredStrategy::FullColumns,
                simulated_compile_latency: latency,
                // Keep the shred pool out of the picture: with it on,
                // repeats are answered from cached columns and never reach
                // the scan whose compilation we are ablating.
                cache_shreds: false,
                ..EngineConfig::default()
            },
        );
        let mut cells = vec![name.to_owned()];
        for _ in 0..4 {
            if clear {
                engine.clear_template_cache();
            }
            let (_, d) = time_once(|| run(&mut engine, &q2("file1", x)));
            cells.push(fmt_duration(d));
        }
        table.row(cells);
    }
    table
}

/// Ablation: vector (batch) size of the columnar substrate.
pub fn ablation_batch(scale: &Scale) -> ExpTable {
    let s = *scale;
    let x = literal_for_selectivity(0.4);
    let mut table = ExpTable::new(
        "Ablation — vector size (CSV Q2 warm, JIT full columns)",
        vec!["batch rows".into(), "Q2 time".into()],
    );
    table.note(format!("dataset: {} rows x 30 int columns (CSV)", s.narrow_rows));
    table.note(
        "expect: a sweet spot around 1k-4k rows — small batches pay per-batch \
         overhead, huge batches spill the CPU caches (MonetDB/X100 lesson)",
    );

    for batch in [64usize, 256, 1024, 4096, 16384, 65536] {
        let mut times = Vec::new();
        for _ in 0..s.repeats.max(1) {
            let mut engine = datasets::engine_narrow_csv(
                &s,
                EngineConfig {
                    mode: AccessMode::Jit,
                    shreds: ShredStrategy::FullColumns,
                    batch_size: batch,
                    ..EngineConfig::default()
                },
            );
            run(&mut engine, &q1("file1", x));
            let (_, d) = time_once(|| run(&mut engine, &q2("file1", x)));
            times.push(d);
        }
        table.row(vec![batch.to_string(), fmt_duration(median(times))]);
    }
    table
}

/// All ablations, in presentation order.
pub fn all(scale: &Scale) -> Vec<ExpTable> {
    vec![
        ablation_index(scale),
        ablation_adaptive(scale),
        ablation_posmap(scale),
        ablation_compile(scale),
        ablation_batch(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale { narrow_rows: 2_000, wide_rows: 500, join_rows: 800, higgs_events: 500, repeats: 1 }
    }

    #[test]
    fn index_ablation_runs_and_prunes() {
        let t = ablation_index(&tiny());
        let rendered = t.render();
        assert!(rendered.contains("JIT (index)"), "{rendered}");
        assert!(rendered.contains("JIT rows pruned"), "{rendered}");
    }

    #[test]
    fn adaptive_ablation_annotates_choices() {
        let t = ablation_adaptive(&tiny());
        let rendered = t.render();
        assert!(rendered.contains("Adaptive"), "{rendered}");
        assert!(
            rendered.contains("(S)") || rendered.contains("(F)") || rendered.contains("(M)"),
            "chosen-plan annotation expected: {rendered}"
        );
    }

    #[test]
    fn posmap_ablation_covers_strides() {
        let t = ablation_posmap(&tiny());
        let rendered = t.render();
        for stride in ["1", "7", "30"] {
            assert!(rendered.lines().any(|l| l.trim_start().starts_with(stride)), "{rendered}");
        }
    }

    #[test]
    fn compile_ablation_shows_amortization() {
        let t = ablation_compile(&tiny());
        let rendered = t.render();
        assert!(rendered.contains("cache cleared"), "{rendered}");
    }

    #[test]
    fn batch_ablation_runs() {
        let t = ablation_batch(&tiny());
        assert!(t.render().contains("65536"));
    }
}
