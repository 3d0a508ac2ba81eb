//! Cold-path equivalence: the overlapped (chunk-streamed) cold read must be
//! observationally identical to the blocking cold read and to warm runs —
//! bitwise-identical results and identical I/O accounting — for every
//! format and every worker count. Streaming changes *when* bytes arrive
//! relative to scanning, never *what* is scanned or *how much* is charged.
//!
//! Matrix per (format, query): parallelism 1/2/4/8 ×
//! { cold-streaming (tiny chunks, many availability waits),
//!   cold-streaming (default 4 MiB chunks),
//!   cold-blocking (`read_chunk_bytes = 0`) },
//! each followed by a warm re-run on the same engine.

use raw::columnar::{Batch, DataType, Schema, Value};
use raw::engine::{AccessMode, EngineConfig, RawEngine, TableDef, TableSource};
use raw::formats::datagen;
use raw::formats::rootsim::{RootSchema, RootSimWriter};

/// A scratch directory with automatic cleanup.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("raw_coldeq_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

const ROWS: usize = 4_000;
const COLS: usize = 6;

/// Small morsels and (for the streaming regimes) small chunks, so test-sized
/// files split into many morsels spanning many chunks.
fn config(parallelism: usize, mode: AccessMode, read_chunk_bytes: usize) -> EngineConfig {
    EngineConfig {
        parallelism,
        mode,
        morsel_bytes: 2 << 10,
        read_chunk_bytes,
        ..EngineConfig::from_env()
    }
}

fn write_rootsim(dir: &TempDir) {
    let schema = RootSchema {
        scalars: vec![("id".into(), DataType::Int64), ("run".into(), DataType::Int64)],
        collections: vec![raw::formats::rootsim::RootCollection {
            name: "muons".into(),
            fields: vec![("pt".into(), DataType::Float32)],
        }],
    };
    let mut w = RootSimWriter::new(schema).unwrap();
    for i in 0..ROWS as i64 {
        let id = (i * 7919 + 13) % 1_000_000;
        let run = (i * 104_729) % 9_973;
        let muons = (i % 5) as usize;
        let items: Vec<Vec<Value>> = (0..muons)
            .map(|j| vec![Value::Float32(((i * 13 + j as i64 * 5) % 1000) as f32 / 10.0)])
            .collect();
        w.add_event(&[Value::Int64(id), Value::Int64(run)], &[items]).unwrap();
    }
    w.write_file(&dir.path("t.root")).unwrap();
}

fn write_dataset(dir: &TempDir) {
    let table = datagen::int_table(97, ROWS, COLS);
    raw::formats::csv::writer::write_file(&table, &dir.path("t.csv")).unwrap();
    raw::formats::fbin::write_file(&table, &dir.path("t.fbin")).unwrap();
    let sorted = datagen::sorted_copy(&table, 0);
    raw::formats::ibin::write_file(&sorted, &dir.path("t.ibin"), 64, Some(0)).unwrap();
    write_rootsim(dir);
}

fn engine_over(dir: &TempDir, config: EngineConfig) -> RawEngine {
    let engine = RawEngine::new(config);
    engine.register_table(TableDef {
        name: "t_csv".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Csv { path: dir.path("t.csv") },
    });
    engine.register_table(TableDef {
        name: "t_fbin".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Fbin { path: dir.path("t.fbin") },
    });
    engine.register_table(TableDef {
        name: "t_ibin".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Ibin { path: dir.path("t.ibin") },
    });
    engine.register_table(TableDef {
        name: "t_root".into(),
        schema: Schema::new(vec![
            raw::columnar::Field::new("id", DataType::Int64),
            raw::columnar::Field::new("run", DataType::Int64),
        ]),
        source: TableSource::RootEvents { path: dir.path("t.root") },
    });
    engine.register_table(TableDef {
        name: "muons".into(),
        schema: Schema::new(vec![
            raw::columnar::Field::new("id", DataType::Int64),
            raw::columnar::Field::new("pt", DataType::Float32),
        ]),
        source: TableSource::RootCollection {
            path: dir.path("t.root"),
            collection: "muons".into(),
            parent_scalar: Some("id".into()),
        },
    });
    engine
}

/// Everything we compare across regimes for one cold query + warm re-run.
#[derive(Debug)]
struct Observation {
    names: Vec<String>,
    cold_batch: Batch,
    warm_batch: Batch,
    cold_io_bytes: u64,
    warm_io_bytes: u64,
    cold_hit_miss: (u64, u64),
}

fn observe(dir: &TempDir, config: EngineConfig, sql: &str) -> Observation {
    let engine = engine_over(dir, config);
    let cold = engine.query(sql).unwrap();
    let cold_hit_miss = engine.files().hit_miss();
    let warm = engine.query(sql).unwrap();
    Observation {
        names: cold.column_names,
        cold_batch: cold.batch,
        warm_batch: warm.batch,
        cold_io_bytes: cold.stats.io_bytes,
        warm_io_bytes: warm.stats.io_bytes,
        cold_hit_miss,
    }
}

fn queries() -> Vec<(&'static str, String)> {
    let x = datagen::literal_for_selectivity(0.4);
    let small = datagen::literal_for_selectivity(0.05);
    let mut qs = Vec::new();
    for table in ["t_csv", "t_fbin", "t_ibin"] {
        qs.push((table, format!("SELECT MAX(col3), COUNT(col2) FROM {table} WHERE col1 < {x}")));
        // Selection shape: row order and provenance must survive streaming.
        qs.push((table, format!("SELECT col2, col5 FROM {table} WHERE col1 < {small}")));
    }
    qs.push(("t_root", "SELECT MAX(id), COUNT(run) FROM t_root WHERE id < 500000".into()));
    qs.push(("muons", "SELECT MAX(pt), COUNT(pt) FROM muons WHERE pt > 30.0".into()));
    qs.push(("muons", "SELECT id, pt FROM muons WHERE pt < 5.0".into()));
    qs
}

/// Every format, every worker count: cold-streaming (tiny and default
/// chunks) is bitwise-identical to cold-blocking, with identical
/// `bytes_from_disk` and hit/miss counters; warm re-runs are identical too
/// and charge zero disk bytes.
#[test]
fn streaming_blocking_and_warm_runs_are_equivalent() {
    let dir = TempDir::new("matrix");
    write_dataset(&dir);

    for (_table, sql) in queries() {
        // Reference: the serial engine with blocking cold reads — the
        // pre-streaming behavior.
        let reference = observe(&dir, config(1, AccessMode::Jit, 0), &sql);
        assert_eq!(reference.cold_batch, reference.warm_batch, "serial cold == warm: {sql}");
        assert_eq!(reference.warm_io_bytes, 0, "warm run reads nothing: {sql}");

        for parallelism in [1usize, 2, 4, 8] {
            // Blocking cold at this worker count: the counters baseline.
            let blocking = observe(&dir, config(parallelism, AccessMode::Jit, 0), &sql);
            for (chunk, label) in [(4096usize, "tiny chunks"), (4 << 20, "default chunks")] {
                let streaming = observe(&dir, config(parallelism, AccessMode::Jit, chunk), &sql);
                assert_eq!(
                    streaming.cold_batch, blocking.cold_batch,
                    "cold streaming ({label}) != cold blocking at parallelism {parallelism}: {sql}"
                );
                assert_eq!(streaming.names, blocking.names, "{sql}");
                assert_eq!(
                    streaming.cold_io_bytes, blocking.cold_io_bytes,
                    "bytes_from_disk diverges ({label}) at parallelism {parallelism}: {sql}"
                );
                assert_eq!(
                    streaming.cold_hit_miss, blocking.cold_hit_miss,
                    "hit/miss counters diverge ({label}) at parallelism {parallelism}: {sql}"
                );
                assert_eq!(
                    streaming.warm_batch, blocking.warm_batch,
                    "warm runs diverge ({label}) at parallelism {parallelism}: {sql}"
                );
                assert_eq!(streaming.warm_io_bytes, 0, "warm charges no disk bytes: {sql}");
            }
            assert_eq!(
                blocking.cold_batch, reference.cold_batch,
                "parallelism {parallelism} diverges from serial: {sql}"
            );
            assert_eq!(
                blocking.warm_batch, reference.warm_batch,
                "warm at parallelism {parallelism} diverges from serial: {sql}"
            );
        }
    }
}

/// The in-situ mode twin: the quote-aware streamed probe and the
/// index-blind (availability-gated) ibin scan run under `AccessMode::InSitu`
/// — including a quote-bearing CSV whose records hide newlines in quoted
/// fields, the hardest splitting case. Both CSVs also run from `.rzb`
/// twins with tiny 512-byte blocks, so the quote-aware probe decodes blocks
/// as it reaches them; every run must equal the plain file's answer
/// bitwise.
#[test]
fn insitu_streaming_matches_blocking_including_quoted_csv() {
    let dir = TempDir::new("insitu");
    write_dataset(&dir);
    let quoted = dir.path("q.csv");
    let mut data = Vec::new();
    for i in 0..400 {
        if i % 3 == 0 {
            data.extend_from_slice(format!("{i},\"x\ny{i}\"\n").as_bytes());
        } else {
            data.extend_from_slice(format!("{i},\"z{i}\"\n").as_bytes());
        }
    }
    std::fs::write(&quoted, &data).unwrap();
    for name in ["t.csv", "q.csv"] {
        raw::formats::rzb::write_file(&dir.path(name), &dir.path(&format!("{name}.rzb")), 512)
            .unwrap();
    }

    let register_extra = |engine: &mut RawEngine| {
        for (name, file) in [("q", "q.csv"), ("q_rzb", "q.csv.rzb")] {
            engine.register_table(TableDef {
                name: name.into(),
                schema: Schema::new(vec![
                    raw::columnar::Field::new("col1", DataType::Int64),
                    raw::columnar::Field::new("col2", DataType::Utf8),
                ]),
                source: TableSource::Csv { path: dir.path(file) },
            });
        }
        engine.register_table(TableDef {
            name: "t_csv_rzb".into(),
            schema: Schema::uniform(COLS, DataType::Int64),
            source: TableSource::Csv { path: dir.path("t.csv.rzb") },
        });
    };

    let x = datagen::literal_for_selectivity(0.4);
    // Each query with the table of its compressed twin, if it has one.
    let queries = [
        (format!("SELECT MAX(col3), COUNT(col2) FROM t_csv WHERE col1 < {x}"), Some("t_csv")),
        (format!("SELECT SUM(col4) FROM t_ibin WHERE col1 < {x}"), None),
        ("SELECT COUNT(col2) FROM q WHERE col1 < 1000".into(), Some("q")),
        ("SELECT col1 FROM q WHERE col1 < 100".into(), Some("q")),
    ];
    for (sql, twin) in &queries {
        let twin_sql = twin.map(|t| sql.replace(&format!("FROM {t} "), &format!("FROM {t}_rzb ")));
        let mut reference: Option<Batch> = None;
        for parallelism in [1usize, 2, 4, 8] {
            for chunk in [0usize, 512, 4096] {
                let mut engine = engine_over(&dir, config(parallelism, AccessMode::InSitu, chunk));
                register_extra(&mut engine);
                let cold = engine.query(sql).unwrap();
                let warm = engine.query(sql).unwrap();
                assert_eq!(
                    cold.batch, warm.batch,
                    "cold/warm disagree (parallelism {parallelism}, chunk {chunk}): {sql}"
                );
                let reference = reference.get_or_insert_with(|| cold.batch.clone());
                assert_eq!(
                    reference, &cold.batch,
                    "divergence at parallelism {parallelism}, chunk {chunk}: {sql}"
                );
                if let Some(twin_sql) = &twin_sql {
                    for run in ["cold", "warm"] {
                        let out = engine.query(twin_sql).unwrap();
                        assert_eq!(
                            reference, &out.batch,
                            "{run} rzb twin != plain at parallelism {parallelism}, chunk {chunk}: {twin_sql}"
                        );
                        if run == "cold" && parallelism > 1 && chunk > 0 {
                            assert!(
                                out.stats.explain.iter().any(|l| l.starts_with("cold rzb stream")),
                                "the twin must take the streamed decode path: {:?}",
                                out.stats.explain
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Blocked-compressed twins of the flat fixtures: `t.csv.rzb` etc., written
/// with deliberately small blocks so test-sized files span many blocks
/// (multi-block decode, morsels straddling block boundaries).
fn write_rzb_twins(dir: &TempDir) {
    for name in ["t.csv", "t.fbin", "t.ibin"] {
        raw::formats::rzb::write_file(&dir.path(name), &dir.path(&format!("{name}.rzb")), 2048)
            .unwrap();
    }
}

/// The same logical tables as [`engine_over`], sourced from the `.rzb`
/// twins — `SELECT ... FROM t_csv` must behave identically either way.
fn engine_over_rzb(dir: &TempDir, config: EngineConfig) -> RawEngine {
    let engine = RawEngine::new(config);
    engine.register_table(TableDef {
        name: "t_csv".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Csv { path: dir.path("t.csv.rzb") },
    });
    engine.register_table(TableDef {
        name: "t_fbin".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Fbin { path: dir.path("t.fbin.rzb") },
    });
    engine.register_table(TableDef {
        name: "t_ibin".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Ibin { path: dir.path("t.ibin.rzb") },
    });
    engine
}

fn observe_rzb(dir: &TempDir, config: EngineConfig, sql: &str) -> Observation {
    let engine = engine_over_rzb(dir, config);
    let cold = engine.query(sql).unwrap();
    let cold_hit_miss = engine.files().hit_miss();
    let warm = engine.query(sql).unwrap();
    Observation {
        names: cold.column_names,
        cold_batch: cold.batch,
        warm_batch: warm.batch,
        cold_io_bytes: cold.stats.io_bytes,
        warm_io_bytes: warm.stats.io_bytes,
        cold_hit_miss,
    }
}

/// The compressed regime of the equivalence matrix: every flat-format query
/// over the `.rzb` twin is bitwise-identical to the plain file — at every
/// worker count, streamed (per-morsel block decode) and blocking (whole-file
/// decompress), cold and warm. Within the compressed format, the streamed
/// and blocking paths charge identical `bytes_from_disk` (the *compressed*
/// length) and identical hit/miss counters.
#[test]
fn rzb_matches_plain_across_parallelism_and_paths() {
    let dir = TempDir::new("rzb_matrix");
    write_dataset(&dir);
    write_rzb_twins(&dir);

    for (table, sql) in queries() {
        if table == "t_root" || table == "muons" {
            continue; // rootsim has no flat-file byte image to compress
        }
        let reference = observe(&dir, config(1, AccessMode::Jit, 0), &sql);

        for parallelism in [1usize, 2, 4, 8] {
            let blocking = observe_rzb(&dir, config(parallelism, AccessMode::Jit, 0), &sql);
            assert_eq!(
                blocking.cold_batch, reference.cold_batch,
                "rzb blocking diverges from plain at parallelism {parallelism}: {sql}"
            );
            assert_eq!(blocking.names, reference.names, "{sql}");
            assert_eq!(
                blocking.warm_batch, reference.warm_batch,
                "rzb warm diverges from plain at parallelism {parallelism}: {sql}"
            );
            assert_eq!(blocking.warm_io_bytes, 0, "rzb warm run reads nothing: {sql}");

            for chunk in [4096usize, 4 << 20] {
                let streamed = observe_rzb(&dir, config(parallelism, AccessMode::Jit, chunk), &sql);
                assert_eq!(
                    streamed.cold_batch, blocking.cold_batch,
                    "rzb streamed != rzb blocking at parallelism {parallelism}, chunk {chunk}: {sql}"
                );
                assert_eq!(
                    streamed.cold_io_bytes, blocking.cold_io_bytes,
                    "rzb bytes_from_disk diverges at parallelism {parallelism}, chunk {chunk}: {sql}"
                );
                assert_eq!(
                    streamed.cold_hit_miss, blocking.cold_hit_miss,
                    "rzb hit/miss counters diverge at parallelism {parallelism}, chunk {chunk}: {sql}"
                );
                assert_eq!(streamed.warm_batch, blocking.warm_batch, "{sql}");
                assert_eq!(streamed.warm_io_bytes, 0, "{sql}");
            }
        }
    }
}

/// Compression is observable where it should be (decode counters, disk
/// bytes = compressed length) and invisible where it must be (results,
/// positional maps, shred-pool reuse).
#[test]
fn rzb_side_effects_and_counters_match_plain() {
    let dir = TempDir::new("rzb_sidefx");
    write_dataset(&dir);
    write_rzb_twins(&dir);

    let x = datagen::literal_for_selectivity(0.4);
    let sql = format!("SELECT MAX(col3) FROM t_csv WHERE col1 < {x}");

    let plain = engine_over(&dir, config(4, AccessMode::Jit, 0));
    let rzb = engine_over_rzb(&dir, config(4, AccessMode::Jit, 4096));
    let a = plain.query(&sql).unwrap();
    let b = rzb.query(&sql).unwrap();
    assert_eq!(a.batch, b.batch);

    // The positional map records *uncompressed* coordinates: identical to
    // the one built over the plain file.
    let map_plain = plain.posmap("t_csv").expect("plain builds a posmap");
    let map_rzb = rzb.posmap("t_csv").expect("rzb builds a posmap");
    assert_eq!(map_plain.as_ref(), map_rzb.as_ref(), "identical positional maps");
    assert_eq!(plain.table_stats().table_rows("t_csv"), rzb.table_stats().table_rows("t_csv"));

    // Decode observability: blocks decoded, compressed < uncompressed for
    // this compressible fixture, and disk bytes = the compressed file.
    let snap: std::collections::HashMap<_, _> = rzb.metrics().snapshot().into_iter().collect();
    assert!(snap["rzb_blocks_decoded"] > 0, "decode counters recorded");
    assert!(snap["rzb_compressed_bytes"] < snap["rzb_uncompressed_bytes"]);
    let comp_len = std::fs::metadata(dir.path("t.csv.rzb")).unwrap().len();
    assert_eq!(b.stats.io_bytes, comp_len, "cold rzb read charges the compressed length");

    // Follow-ups served from the rzb run's shred pool agree with plain.
    let follow = format!("SELECT MAX(col3) FROM t_csv WHERE col1 < {}", x / 2);
    assert_eq!(plain.query(&follow).unwrap().batch, rzb.query(&follow).unwrap().batch);
    assert!(rzb.shred_pool_stats().hits > 0, "warm follow-up hits the rzb-built shreds");
}

/// Positional maps and shred pools built under cold streaming equal those
/// built under cold blocking — the adaptive side effects are path-invariant
/// too, so a streamed first query leaves the engine in the identical state.
#[test]
fn streaming_side_effects_equal_blocking() {
    let dir = TempDir::new("sidefx");
    write_dataset(&dir);

    let x = datagen::literal_for_selectivity(0.4);
    let sql = format!("SELECT MAX(col3) FROM t_csv WHERE col1 < {x}");

    let blocking = engine_over(&dir, config(4, AccessMode::Jit, 0));
    let streaming = engine_over(&dir, config(4, AccessMode::Jit, 4096));
    let a = blocking.query(&sql).unwrap();
    let b = streaming.query(&sql).unwrap();
    assert_eq!(a.batch, b.batch);

    let map_blocking = blocking.posmap("t_csv").expect("blocking builds a posmap");
    let map_streaming = streaming.posmap("t_csv").expect("streaming builds a posmap");
    assert_eq!(map_blocking.as_ref(), map_streaming.as_ref(), "identical positional maps");
    assert_eq!(
        blocking.table_stats().table_rows("t_csv"),
        streaming.table_stats().table_rows("t_csv")
    );

    // Follow-ups served from the streamed-run shred pool agree.
    let follow = format!("SELECT MAX(col3) FROM t_csv WHERE col1 < {}", x / 2);
    assert_eq!(blocking.query(&follow).unwrap().batch, streaming.query(&follow).unwrap().batch);
    assert!(streaming.shred_pool_stats().hits > 0, "warm follow-up hits the streamed shreds");
}

/// Cold warm-structure runs (positional map exists, file caches dropped):
/// the map-hinted partitioner needs no probe, so a streamed cold run waits
/// for nothing at plan time — and still matches blocking exactly.
#[test]
fn streamed_cold_rerun_with_posmap_matches_blocking() {
    let dir = TempDir::new("warmstruct");
    write_dataset(&dir);
    let x = datagen::literal_for_selectivity(0.4);
    let sql = format!("SELECT MAX(col3) FROM t_csv WHERE col1 < {x}");

    let run = |chunk: usize| -> (Batch, u64) {
        let engine = engine_over(
            &dir,
            EngineConfig {
                cache_shreds: false, // keep re-runs on the file path
                ..config(4, AccessMode::Jit, chunk)
            },
        );
        engine.query(&sql).unwrap(); // builds the positional map
        engine.drop_file_caches(); // cold data, warm structure
        let r = engine.query(&sql).unwrap();
        (r.batch, r.stats.io_bytes)
    };
    let (streamed, streamed_io) = run(4096);
    let (blocked, blocked_io) = run(0);
    assert_eq!(streamed, blocked);
    assert_eq!(streamed_io, blocked_io, "second cold read charged identically");
    assert!(streamed_io > 0, "the re-run really was cold");
}
