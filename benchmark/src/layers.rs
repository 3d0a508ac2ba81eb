//! Layer probes for the traced run: `Instant` spans around calls into each
//! layer's *public* functions, on the run's own generated data.
//!
//! The probes pin only API the ROADMAP keeps: `RawEngine`/`Session`,
//! `GlobalPool::run_on`, `partition_csv`, `rzb::{compress, decompress_all}`,
//! the CSV tokenizer/parse functions, `PosMapBuilder`/`PositionalMap` and the
//! `columnar::ops` operators — nothing from `exec::pool` or the
//! `execute_morsels*` wrappers. Every probe runs serially on the calling
//! thread unless it names the pool, and reports the median of its
//! repetitions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use raw::columnar::ops::{
    drain, AggExpr, AggKind, AggregateOp, FilterOp, HashAggregateOp, HashJoinOp, JoinBuildSide,
    MemScanOp, Operator,
};
use raw::columnar::{Batch, CmpOp, Predicate, TableTag};
use raw::engine::{RawEngine, TableDef, TableSource};
// `JobCtx` is named only because `GlobalPool::run_on`'s signature demands it.
use raw::exec::pool::JobCtx;
use raw::exec::{partition_csv, GlobalPool};
use raw::formats::csv::{parse::parse_i64, tokenizer};
use raw::formats::rzb;
use raw::posmap::PosMapBuilder;

use crate::data::COLS;
use crate::report::Metric;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::Ready;

const REPS: usize = 5;
/// 0-based columns the posmap probe tracks, and the one it looks up.
const TRACKED: [usize; 3] = [0, 10, 20];

/// Time `reps` runs of `run`, each under a span; median seconds.
fn probe<T>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut run: impl FnMut() -> T,
) -> f64 {
    probe_with(rec, name, reps, || (), |()| run())
}

/// [`probe`] with an untimed `setup` before every run.
fn probe_with<S, T>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> T,
) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let input = setup();
            let id = rec.reserve();
            let start = Instant::now();
            let out = black_box(run(black_box(input)));
            let end = Instant::now();
            rec.record(id, None, id, || format!("probe:{name}"), start, end, Vec::new());
            drop(out);
            (end - start).as_secs_f64()
        })
        .collect();
    median(&secs)
}

fn must<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| panic!("layer probe `{what}` failed: {e}"))
}

/// Run every probe. `ready` must have been set up with all four files.
pub fn run(ready: &Ready, rec: &mut Recorder) -> Vec<Metric> {
    let mut out = Vec::new();
    let files = &ready.files;
    let rows = ready.data.events.rows();
    let text = must("read events.csv", std::fs::read(files.csv()));
    let mb = |bytes: usize| bytes as f64 / 1e6;
    let engine_over_csv = || {
        let engine = RawEngine::new(ready.config.clone());
        engine.register_table(TableDef {
            name: "events".into(),
            schema: ready.tables[0].schema.clone(),
            source: TableSource::Csv { path: files.csv() },
        });
        engine
    };

    // formats::file_buffer — a cold pool read of the plain CSV.
    let engine = engine_over_csv();
    let s = probe_with(
        rec,
        "formats::file_buffer.read",
        REPS,
        || engine.drop_file_caches(),
        |()| must("pool read", engine.files().read(&files.csv())),
    );
    out.push(Metric::new("file_read_mb_per_s", mb(text.len()) / s, "MB/s"));

    // formats::rzb — whole-container decode, no pool, no gates.
    let container = must("read events.csv.rzb", std::fs::read(files.rzb()));
    let index = must("rzb index", rzb::parse_index(&container));
    let s = probe(rec, "formats::rzb.decompress_all", REPS, || {
        must("decode", rzb::decompress_all(&container, &index, None))
    });
    out.push(Metric::new("rzb_decode_mb_per_s", mb(text.len()) / s, "MB/s"));
    out.push(Metric::new("rzb_ratio", container.len() as f64 / text.len() as f64, "ratio"));

    // formats::csv — tokenize every byte (skip 10 fields, take the 11th,
    // skip the rest), then convert the taken fields.
    let mut taken = Vec::new();
    let s = probe(rec, "formats::csv.tokenize", REPS, || {
        let mut fields = Vec::with_capacity(rows);
        let mut pos = 0;
        while pos < text.len() {
            let (at, _) = tokenizer::skip_fields_in_row(&text, pos, 10);
            let (field, next, last) = tokenizer::next_field_in_row(&text, at);
            fields.push(field);
            pos = if last { next } else { tokenizer::skip_fields_in_row(&text, next, COLS).0 };
        }
        taken = fields;
    });
    out.push(Metric::new("tokenize_mb_per_s", mb(text.len()) / s, "MB/s"));
    assert_eq!(taken.len(), rows, "tokenizer probe saw every row");
    let s = probe(rec, "formats::csv.parse_i64", REPS, || {
        taken.iter().map(|f| must("parse", parse_i64(f.bytes(&text)))).sum::<i64>()
    });
    out.push(Metric::new("convert_values_per_s", rows as f64 / s, "1/s"));

    // posmap — build from pre-tokenized positions, then look every row up.
    let mut entries: Vec<[(u64, u32); TRACKED.len()]> = Vec::with_capacity(rows);
    let mut pos = 0;
    while pos < text.len() {
        let mut row = [(0, 0); TRACKED.len()];
        for col in 0..COLS {
            let (field, next, _) = tokenizer::next_field_in_row(&text, pos);
            if let Some(slot) = TRACKED.iter().position(|&t| t == col) {
                row[slot] = (field.start as u64, field.len() as u32);
            }
            pos = next;
        }
        entries.push(row);
    }
    let mut built = None;
    let s = probe_with(
        rec,
        "posmap.build",
        REPS,
        || {
            let mut b = PosMapBuilder::new(TRACKED.to_vec());
            b.reserve(rows);
            b
        },
        |mut b| {
            for row in &entries {
                for (slot, &(pos, len)) in row.iter().enumerate() {
                    b.record(slot, pos, len);
                }
            }
            built = Some(must("finish", b.finish()));
        },
    );
    out.push(Metric::new(
        "posmap_build_ns_per_entry",
        s * 1e9 / (rows * TRACKED.len()) as f64,
        "ns",
    ));
    let map = built.expect("built at least once");
    let s = probe(rec, "posmap.position", REPS, || {
        (0..rows as u64).map(|r| map.position(TRACKED[1], r).expect("tracked")).sum::<u64>()
    });
    out.push(Metric::new("posmap_lookup_ns", s * 1e9 / rows as f64, "ns"));

    // access — a planned scan drained serially: first with nothing known
    // about the (resident) file, then with the positional map it left behind.
    let scan = |engine: &RawEngine, cols: &[&str]| {
        let mut planned = must("plan_scan", engine.plan_scan("events", cols, 0));
        let batches = must("drain", drain(planned.op.as_mut()));
        assert_eq!(batches.iter().map(Batch::rows).sum::<usize>(), rows);
        planned.harvests
    };
    let mut warm_engine = None;
    let s = probe_with(
        rec,
        "access.scan_cold",
        REPS,
        || {
            let engine = engine_over_csv();
            must("pool read", engine.files().read(&files.csv()));
            engine
        },
        |engine| {
            let harvests = scan(&engine, &["col1", "col11"]);
            warm_engine = Some((engine, harvests));
        },
    );
    out.push(Metric::new("scan_rows_per_s_cold", rows as f64 / s, "1/s"));
    let (engine, harvests) = warm_engine.expect("scanned at least once");
    must("absorb", engine.absorb_side_effects(harvests));
    assert!(engine.posmap("events").is_some(), "the cold scan left a positional map");
    let s = probe(rec, "access.scan_posmap", REPS, || scan(&engine, &["col12"]));
    out.push(Metric::new("scan_rows_per_s_posmap", rows as f64 / s, "1/s"));

    // columnar — interpreted operators over the in-memory table.
    let events = &ready.data.events;
    let mem = |cols: &[usize]| -> Box<dyn Operator> {
        Box::new(MemScanOp::new(Arc::clone(events), TableTag(0), cols.to_vec()))
    };
    let max_of = |col| vec![AggExpr { kind: AggKind::Max, col }];
    let s = probe(rec, "columnar.filter_agg", REPS, || {
        let filter = FilterOp::new(mem(&[0, 10]), Predicate::cmp(0, CmpOp::Lt, 400_000_000i64));
        must("drain", drain(&mut AggregateOp::new(Box::new(filter), max_of(1))))
    });
    out.push(Metric::new("filter_agg_rows_per_s", rows as f64 / s, "1/s"));
    let s = probe(rec, "columnar.hash_aggregate", REPS, || {
        must("drain", drain(&mut HashAggregateOp::new(mem(&[1, 5]), 0, max_of(1))))
    });
    out.push(Metric::new("group_rows_per_s", rows as f64 / s, "1/s"));
    let mut dim_keys = MemScanOp::new(Arc::clone(&ready.data.dim), TableTag(1), vec![0]);
    let dim_keys = must("concat", Batch::concat(&must("drain", drain(&mut dim_keys))));
    let build = Arc::new(must("build side", JoinBuildSide::build(dim_keys, 0)));
    let s = probe(rec, "columnar.hash_join", REPS, || {
        let join = HashJoinOp::with_shared(mem(&[0, 9]), Arc::clone(&build), 0);
        must("drain", drain(&mut AggregateOp::new(Box::new(join), max_of(1))))
    });
    out.push(Metric::new("join_probe_rows_per_s", rows as f64 / s, "1/s"));

    // exec — the partition probe, and the pool's fixed costs with no-op jobs.
    let target = (text.len() / ready.config.morsel_bytes).max(1);
    let s = probe(rec, "exec.partition_csv", REPS, || partition_csv(&text, target));
    out.push(Metric::new("partition_ms", s * 1e3, "ms"));
    let pool = GlobalPool::new(ready.config.parallelism, 0);
    let noop_batch = |jobs: usize| {
        let job = |_: JobCtx<'_, ()>| ();
        let jobs: Vec<_> = (0..jobs).map(|_| (|| Ok::<(), ()>(()), job)).collect();
        pool.run_on(jobs, None)
    };
    let s = probe(rec, "exec.run_on_128", 4 * REPS, || noop_batch(128));
    out.push(Metric::new("dispatch_us_per_morsel", s * 1e6 / 128.0, "us"));
    let s = probe(rec, "exec.run_on_1", 40 * REPS, || noop_batch(1));
    out.push(Metric::new("batch_wake_us", s * 1e6, "us"));

    out
}

/// `plan_us`: median `Session::explain` time over the workload's distinct
/// queries, on an engine that has already answered each of them once.
pub fn plan_probe(ready: &Ready, rec: &mut Recorder) -> Metric {
    let fresh = ready.engine.is_none().then(|| ready.build_engine());
    let engine = ready.engine.as_ref().or(fresh.as_ref()).expect("one of the two");
    let session = engine.session();
    let mut sqls: Vec<&str> = Vec::new();
    for pq in ready.clients.iter().flatten().flat_map(|op| &op.queries) {
        if sqls.len() < 16 && !sqls.contains(&pq.sql.as_str()) {
            sqls.push(&pq.sql);
        }
    }
    if fresh.is_some() {
        for sql in &sqls {
            must("plan probe warm-up", session.query(sql));
        }
    }
    let secs: Vec<f64> = sqls
        .iter()
        .map(|sql| probe(rec, "core::plan.explain", 3, || must("explain", session.explain(sql))))
        .collect();
    Metric::new("plan_us", median(&secs) * 1e6, "us")
}
