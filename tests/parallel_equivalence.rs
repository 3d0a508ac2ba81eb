//! Parallel-correctness integration tests: morsel-parallel execution must be
//! observationally identical to the serial engine — same results for every
//! worker count, same positional maps, and a shred pool that serves the same
//! lookups.

use raw::columnar::{DataType, Schema, Value};
use raw::engine::{EngineConfig, RawEngine, ShredStrategy, TableDef, TableSource};
use raw::formats::datagen;
use raw::formats::rootsim::{RootSchema, RootSimWriter};

/// A scratch directory with automatic cleanup.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("raw_par_{tag}_{}", std::process::id()));
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

const ROWS: usize = 6_000;
const COLS: usize = 8;

/// Small morsels so even test-sized files split into many.
fn config(parallelism: usize) -> EngineConfig {
    EngineConfig { parallelism, morsel_bytes: 2 << 10, ..EngineConfig::from_env() }
}

fn write_rootsim_events(path: &std::path::Path, events: usize, seed: i64) {
    let schema = RootSchema {
        scalars: vec![("id".into(), DataType::Int64), ("run".into(), DataType::Int64)],
        collections: vec![],
    };
    let mut w = RootSimWriter::new(schema).unwrap();
    for i in 0..events as i64 {
        // Deterministic but non-monotonic values.
        let id = (i * 7919 + seed) % 1_000_000;
        let run = (i * 104_729) % 9_973;
        w.add_event(&[Value::Int64(id), Value::Int64(run)], &[]).unwrap();
    }
    w.write_file(path).unwrap();
}

/// Register the same three tables (CSV, fbin, rootsim events) in a fresh
/// engine.
fn engine_over(dir: &TempDir, parallelism: usize) -> RawEngine {
    let engine = RawEngine::new(config(parallelism));
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
        name: "t_root".into(),
        schema: Schema::new(vec![
            raw::columnar::Field::new("id", DataType::Int64),
            raw::columnar::Field::new("run", DataType::Int64),
        ]),
        source: TableSource::RootEvents { path: dir.path("t.root") },
    });
    engine
}

fn write_dataset(dir: &TempDir) {
    let table = datagen::int_table(97, ROWS, COLS);
    raw::formats::csv::writer::write_file(&table, &dir.path("t.csv")).unwrap();
    raw::formats::fbin::write_file(&table, &dir.path("t.fbin")).unwrap();
    write_rootsim_events(&dir.path("t.root"), ROWS, 13);
}

fn flat_queries() -> Vec<(&'static str, String)> {
    let x = datagen::literal_for_selectivity(0.4);
    let y = datagen::literal_for_selectivity(0.85);
    let mut qs = Vec::new();
    for table in ["t_csv", "t_fbin"] {
        qs.push((table, format!("SELECT MAX(col3) FROM {table} WHERE col1 < {x}")));
        qs.push((table, format!("SELECT MIN(col2), COUNT(col2) FROM {table} WHERE col1 < {x}")));
        qs.push((table, format!("SELECT SUM(col5), AVG(col5) FROM {table} WHERE col1 < {x}")));
        // Multi-filter (exercises staged column shreds under parallelism).
        qs.push((table, format!("SELECT MAX(col7) FROM {table} WHERE col1 < {y} AND col2 < {x}")));
        // Selection shape: row order must match serial exactly.
        qs.push((table, format!("SELECT col2, col6 FROM {table} WHERE col1 < {}", x / 20)));
        // Empty result across every worker count.
        qs.push((table, format!("SELECT COUNT(col4) FROM {table} WHERE col1 < 0")));
    }
    qs.push(("t_root", "SELECT MAX(id), COUNT(run) FROM t_root WHERE id < 500000".into()));
    qs.push(("t_root", "SELECT id, run FROM t_root WHERE id < 20000".into()));
    qs
}

/// The join/group-by dataset: the base table with `col2` re-keyed to a
/// bounded cardinality (23 groups), plus a shuffled 1/4 subset of the base
/// table as the join's build side.
fn write_join_group_dataset(dir: &TempDir) {
    let table = datagen::int_table(97, ROWS, COLS);

    let mut grouped_cols = table.columns().to_vec();
    grouped_cols[1] =
        raw::columnar::Column::Int64((0..ROWS as i64).map(|i| (i * 37 + 11) % 23).collect());
    let grouped = raw::columnar::MemTable::new(table.schema().clone(), grouped_cols).unwrap();
    raw::formats::csv::writer::write_file(&grouped, &dir.path("g.csv")).unwrap();
    raw::formats::fbin::write_file(&grouped, &dir.path("g.fbin")).unwrap();

    let shuffled = datagen::shuffled_copy(&table, 5);
    let dim_cols: Vec<raw::columnar::Column> =
        shuffled.columns().iter().map(|c| c.slice(0, ROWS / 4).unwrap()).collect();
    let dim = raw::columnar::MemTable::new(table.schema().clone(), dim_cols).unwrap();
    raw::formats::csv::writer::write_file(&dim, &dir.path("d.csv")).unwrap();
    raw::formats::fbin::write_file(&dim, &dir.path("d.fbin")).unwrap();
}

/// Register the join/group-by tables (on top of the flat-test tables).
fn engine_with_join_tables(dir: &TempDir, config: EngineConfig) -> RawEngine {
    let engine = RawEngine::new(config);
    for (name, file) in [("t_csv", "t.csv"), ("g_csv", "g.csv"), ("d_csv", "d.csv")] {
        engine.register_table(TableDef {
            name: name.into(),
            schema: Schema::uniform(COLS, DataType::Int64),
            source: TableSource::Csv { path: dir.path(file) },
        });
    }
    for (name, file) in [("t_fbin", "t.fbin"), ("g_fbin", "g.fbin"), ("d_fbin", "d.fbin")] {
        engine.register_table(TableDef {
            name: name.into(),
            schema: Schema::uniform(COLS, DataType::Int64),
            source: TableSource::Fbin { path: dir.path(file) },
        });
    }
    engine.register_table(TableDef {
        name: "t_root".into(),
        schema: Schema::new(vec![
            raw::columnar::Field::new("id", DataType::Int64),
            raw::columnar::Field::new("run", DataType::Int64),
        ]),
        source: TableSource::RootEvents { path: dir.path("t.root") },
    });
    engine
}

/// parallelism 1/2/4/8 produce identical results over CSV, fbin, and
/// rootsim — cold and warm.
#[test]
fn parallelism_levels_agree_across_formats() {
    let dir = TempDir::new("levels");
    write_dataset(&dir);

    for (table, sql) in flat_queries() {
        let mut reference: Option<(Vec<String>, raw::columnar::Batch)> = None;
        for parallelism in [1usize, 2, 4, 8] {
            let engine = engine_over(&dir, parallelism);
            let cold = engine.query(&sql).unwrap();
            let warm = engine.query(&sql).unwrap();
            assert_eq!(
                cold.batch, warm.batch,
                "cold/warm disagree at parallelism {parallelism}: {sql}"
            );
            if parallelism > 1 && table != "t_root" {
                // The parallel path must actually engage (not fall back):
                // cold CSV/fbin runs have no cached full shreds.
                assert!(
                    cold.stats.explain.iter().any(|l| l.contains("parallel:")),
                    "parallel path did not engage at parallelism {parallelism}: {sql}\n{:#?}",
                    cold.stats.explain
                );
            }
            match &reference {
                None => reference = Some((cold.column_names.clone(), cold.batch)),
                Some((names, batch)) => {
                    assert_eq!(names, &cold.column_names, "{sql}");
                    assert_eq!(
                        batch, &cold.batch,
                        "parallelism {parallelism} diverges from serial: {sql}"
                    );
                }
            }
        }
    }
}

/// Spot-check the parallel path against independently computed ground truth.
#[test]
fn parallel_aggregates_match_ground_truth() {
    let dir = TempDir::new("truth");
    let table = datagen::int_table(97, ROWS, COLS);
    raw::formats::csv::writer::write_file(&table, &dir.path("t.csv")).unwrap();
    raw::formats::fbin::write_file(&table, &dir.path("t.fbin")).unwrap();
    write_rootsim_events(&dir.path("t.root"), ROWS, 13);

    let x = datagen::literal_for_selectivity(0.4);
    let pred = table.column(0).unwrap().as_i64().unwrap();
    let vals = table.column(2).unwrap().as_i64().unwrap();
    let want = vals.iter().zip(pred).filter(|&(_, &p)| p < x).map(|(&v, _)| v).max().unwrap();

    let engine = engine_over(&dir, 4);
    for table_name in ["t_csv", "t_fbin"] {
        let sql = format!("SELECT MAX(col3) FROM {table_name} WHERE col1 < {x}");
        let r = engine.query(&sql).unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int64(want), "{table_name}");
        assert_eq!(r.stats.rows_out, 1);
    }

    // Rootsim ground truth from the generator formula.
    let ids: Vec<i64> = (0..ROWS as i64).map(|i| (i * 7919 + 13) % 1_000_000).collect();
    let want_max = ids.iter().filter(|&&v| v < 500_000).max().copied().unwrap();
    let want_n = ids.iter().filter(|&&v| v < 500_000).count() as i64;
    let r = engine.query("SELECT MAX(id), COUNT(run) FROM t_root WHERE id < 500000").unwrap();
    assert_eq!(r.value(0, 0).unwrap(), Value::Int64(want_max));
    assert_eq!(r.value(0, 1).unwrap(), Value::Int64(want_n));
}

/// Positional maps built under parallel execution equal the serially-built
/// map, and the shred pool serves the same follow-up lookups.
#[test]
fn parallel_side_effects_equal_serial() {
    let dir = TempDir::new("sidefx");
    write_dataset(&dir);

    let x = datagen::literal_for_selectivity(0.4);
    let sql = format!("SELECT MAX(col3) FROM t_csv WHERE col1 < {x}");

    let serial = engine_over(&dir, 1);
    let parallel = engine_over(&dir, 4);
    let a = serial.query(&sql).unwrap();
    let b = parallel.query(&sql).unwrap();
    assert_eq!(a.batch, b.batch);
    assert!(b.stats.explain.iter().any(|l| l.contains("parallel:")), "must engage");

    // The positional maps must be *equal* — same tracked columns, same
    // positions, same lengths, same rows (PositionalMap: PartialEq).
    let map_serial = serial.posmap("t_csv").expect("serial builds a posmap");
    let map_parallel = parallel.posmap("t_csv").expect("parallel builds a posmap");
    assert_eq!(map_serial.as_ref(), map_parallel.as_ref());
    assert!(b.stats.posmaps_built >= 1);

    // Shreds recorded under parallelism serve the same follow-up queries.
    assert!(b.stats.shreds_recorded >= 1, "parallel scan records shreds");
    let follow = format!("SELECT MAX(col3) FROM t_csv WHERE col1 < {}", x / 2);
    let fa = serial.query(&follow).unwrap();
    let fb = parallel.query(&follow).unwrap();
    assert_eq!(fa.batch, fb.batch);
    assert!(
        parallel.shred_pool_stats().hits > 0,
        "follow-up is served from the parallel-populated shred pool"
    );

    // Harvested row counts agree too.
    assert_eq!(
        serial.table_stats().table_rows("t_csv"),
        parallel.table_stats().table_rows("t_csv")
    );
}

/// A second query over columns the first did not touch navigates via the
/// parallel-built positional map (exact + nearest modes) correctly.
#[test]
fn parallel_posmap_serves_later_navigation() {
    let dir = TempDir::new("posmapnav");
    write_dataset(&dir);
    let table = datagen::int_table(97, ROWS, COLS);

    let x = datagen::literal_for_selectivity(0.3);
    let engine = engine_over(&dir, 4);
    engine.query(&format!("SELECT MAX(col3) FROM t_csv WHERE col1 < {x}")).unwrap();
    assert!(engine.posmap("t_csv").is_some());

    // col8 is tracked by no-one (EveryK stride 10 tracks col 0 only here);
    // reaching it exercises nearest-mode navigation over the merged map.
    let r = engine.query(&format!("SELECT MAX(col8) FROM t_csv WHERE col1 < {x}")).unwrap();
    let pred = table.column(0).unwrap().as_i64().unwrap();
    let vals = table.column(7).unwrap().as_i64().unwrap();
    let want = vals.iter().zip(pred).filter(|&(_, &p)| p < x).map(|(&v, _)| v).max().unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int64(want));
}

/// Newlines hidden inside quoted fields: the quote-aware probe splits on
/// the general dialect's record boundaries, so quote-bearing files take the
/// parallel path under in-situ mode and still agree with the serial
/// quote-aware parse.
#[test]
fn insitu_quoted_newlines_split_and_agree_with_serial() {
    use raw::engine::AccessMode;
    let dir = TempDir::new("quoted");
    let csv = dir.path("q.csv");
    // Enough quote-bearing records (some with embedded newlines) to split.
    let mut data = Vec::new();
    for i in 0..200 {
        if i % 3 == 0 {
            data.extend_from_slice(format!("{i},\"x\ny{i}\"\n").as_bytes());
        } else {
            data.extend_from_slice(format!("{i},\"z{i}\"\n").as_bytes());
        }
    }
    std::fs::write(&csv, &data).unwrap();

    let make = |parallelism: usize| {
        let e = RawEngine::new(EngineConfig {
            mode: AccessMode::InSitu,
            parallelism,
            morsel_bytes: 128,
            ..EngineConfig::from_env()
        });
        e.register_table(TableDef {
            name: "q".into(),
            schema: Schema::new(vec![
                raw::columnar::Field::new("col1", DataType::Int64),
                raw::columnar::Field::new("col2", DataType::Utf8),
            ]),
            source: TableSource::Csv { path: csv.clone() },
        });
        e
    };

    let serial = make(1).query("SELECT COUNT(col2) FROM q WHERE col1 < 1000").unwrap();
    assert_eq!(serial.scalar().unwrap(), Value::Int64(200), "quote-aware parse: 200 records");

    for parallelism in [2usize, 4, 8] {
        let engine = make(parallelism);
        let r = engine.query("SELECT COUNT(col2) FROM q WHERE col1 < 1000").unwrap();
        assert_eq!(r.batch, serial.batch, "parallelism {parallelism} must match serial");
        assert!(
            r.stats.explain.iter().any(|l| l.contains("parallel:")),
            "quote-aware probe must split quote-bearing files under in-situ: {:#?}",
            r.stats.explain
        );
        // Selection shape too: rows in serial order despite quoted newlines.
        let sel = engine.query("SELECT col1 FROM q WHERE col1 < 50").unwrap();
        let want = make(1).query("SELECT col1 FROM q WHERE col1 < 50").unwrap();
        assert_eq!(sel.batch, want.batch);
    }
}

/// Write the ibin twins: `s.ibin` sorted by col1 with a declared sort key
/// (the B-tree regime: candidate pages come from binary search) and
/// `z.ibin` unsorted (the zone-map regime: every page's zones are tested
/// independently). Small pages so test-sized files have many.
fn write_ibin_dataset(dir: &TempDir) {
    let table = datagen::int_table(97, ROWS, COLS);
    let sorted = datagen::sorted_copy(&table, 0);
    raw::formats::ibin::write_file(&sorted, &dir.path("s.ibin"), 64, Some(0)).unwrap();
    raw::formats::ibin::write_file(&table, &dir.path("z.ibin"), 64, None).unwrap();
}

fn engine_with_ibin_tables(dir: &TempDir, parallelism: usize) -> RawEngine {
    let engine = RawEngine::new(config(parallelism));
    for (name, file) in [("s_ibin", "s.ibin"), ("z_ibin", "z.ibin")] {
        engine.register_table(TableDef {
            name: name.into(),
            schema: Schema::uniform(COLS, DataType::Int64),
            source: TableSource::Ibin { path: dir.path(file) },
        });
    }
    engine
}

/// ibin queries under both index regimes: every worker count produces
/// results bitwise-equal to serial with **identical zone-pruning counters**
/// (page-aligned morsels tile the candidate set exactly), including the
/// pruned-to-empty case where whole morsels become no-ops.
#[test]
fn parallel_ibin_agrees_and_prunes_identically() {
    let dir = TempDir::new("ibin");
    write_ibin_dataset(&dir);

    let x = datagen::literal_for_selectivity(0.15);
    let y = datagen::literal_for_selectivity(0.7);
    let mut queries = Vec::new();
    for table in ["s_ibin", "z_ibin"] {
        // Selective filter on the (sort-key) column: the B-tree regime
        // prunes most pages, so trailing morsels are entirely no-ops.
        queries.push(format!("SELECT MAX(col5) FROM {table} WHERE col1 < {x}"));
        queries.push(format!("SELECT SUM(col3), COUNT(col3) FROM {table} WHERE col1 < {y}"));
        // Selection shape: row order must match serial exactly.
        queries.push(format!("SELECT col2, col6 FROM {table} WHERE col1 < {}", x / 8));
        // Contradiction: every page pruned, every morsel a no-op.
        queries.push(format!("SELECT COUNT(col4) FROM {table} WHERE col1 < -1"));
        // Conjunctive predicates prune on both columns' zones.
        queries.push(format!("SELECT MAX(col6) FROM {table} WHERE col1 < {y} AND col3 < {y}"));
    }

    for sql in &queries {
        let mut reference: Option<(raw::columnar::Batch, u64, u64)> = None;
        for parallelism in [1usize, 2, 4, 8] {
            let engine = engine_with_ibin_tables(&dir, parallelism);
            let cold = engine.query(sql).unwrap();
            let warm = engine.query(sql).unwrap();
            assert_eq!(
                cold.batch, warm.batch,
                "cold/warm disagree at parallelism {parallelism}: {sql}"
            );
            if parallelism > 1 {
                assert!(
                    cold.stats.explain.iter().any(|l| l.contains("parallel:")),
                    "parallel path did not engage at parallelism {parallelism}: {sql}\n{:#?}",
                    cold.stats.explain
                );
            }
            let pruned = cold.stats.metrics.rows_pruned;
            let scanned = cold.stats.metrics.rows_scanned;
            match &reference {
                None => reference = Some((cold.batch, pruned, scanned)),
                Some((batch, ref_pruned, ref_scanned)) => {
                    assert_eq!(
                        batch, &cold.batch,
                        "parallelism {parallelism} diverges from serial: {sql}"
                    );
                    assert_eq!(
                        pruned, *ref_pruned,
                        "zone-pruning counters diverge at parallelism {parallelism}: {sql}"
                    );
                    assert_eq!(
                        scanned, *ref_scanned,
                        "scanned-row counters diverge at parallelism {parallelism}: {sql}"
                    );
                }
            }
        }
    }
}

/// Canary for the CI parallel job: an ibin driving table must actually take
/// the parallel path (not fall back to serial) — and on the sorted regime
/// the index must still prune under it.
#[test]
fn parallel_path_engages_for_ibin_driving_table() {
    let dir = TempDir::new("ibincanary");
    write_ibin_dataset(&dir);
    let x = datagen::literal_for_selectivity(0.15);
    let engine = engine_with_ibin_tables(&dir, 4);
    let r = engine.query(&format!("SELECT MAX(col5) FROM s_ibin WHERE col1 < {x}")).unwrap();
    assert!(
        r.stats.explain.iter().any(|l| l.contains("parallel:")),
        "ibin must take the parallel path: {:#?}",
        r.stats.explain
    );
    assert!(r.stats.metrics.rows_pruned > 0, "index pruning must survive parallelism");
}

/// Write a rootsim file with a muon collection whose per-event item counts
/// vary (including zero-muon events and item-heavy events), register the
/// satellite table, and return an engine.
fn write_collection_dataset(path: &std::path::Path, events: usize) {
    let schema = RootSchema {
        scalars: vec![("eventID".into(), DataType::Int64), ("run".into(), DataType::Int32)],
        collections: vec![raw::formats::rootsim::RootCollection {
            name: "muons".into(),
            fields: vec![("pt".into(), DataType::Float32), ("eta".into(), DataType::Float32)],
        }],
    };
    let mut w = RootSimWriter::new(schema).unwrap();
    for i in 0..events as i64 {
        // Deterministic but lumpy: stretches of empty events next to
        // item-heavy ones, so item-sized partitioning actually matters.
        let muons = match i % 11 {
            0..=4 => 0,
            5..=8 => (i % 3 + 1) as usize,
            _ => 9,
        };
        let items: Vec<Vec<Value>> = (0..muons)
            .map(|j| {
                let pt = ((i * 13 + j as i64 * 5) % 1000) as f32 / 10.0;
                let eta = ((i * 7 + j as i64 * 3) % 600) as f32 / 100.0 - 3.0;
                vec![Value::Float32(pt), Value::Float32(eta)]
            })
            .collect();
        w.add_event(&[Value::Int64(1000 + i), Value::Int32((i % 9) as i32)], &[items]).unwrap();
    }
    w.write_file(path).unwrap();
}

fn engine_with_collection(dir: &TempDir, parallelism: usize) -> RawEngine {
    let engine = RawEngine::new(config(parallelism));
    engine.register_table(TableDef {
        name: "muons".into(),
        schema: Schema::new(vec![
            raw::columnar::Field::new("eventID", DataType::Int64),
            raw::columnar::Field::new("pt", DataType::Float32),
            raw::columnar::Field::new("eta", DataType::Float32),
        ]),
        source: TableSource::RootCollection {
            path: dir.path("m.root"),
            collection: "muons".into(),
            parent_scalar: Some("eventID".into()),
        },
    });
    engine
}

/// Root-collection queries: every worker count produces results
/// bitwise-equal to serial — exploded item rows concatenate in morsel
/// order, parent scalars replicate correctly across event-aligned morsel
/// boundaries — and the parallel path actually engages.
#[test]
fn parallel_collection_agrees_across_worker_counts() {
    let dir = TempDir::new("collection");
    write_collection_dataset(&dir.path("m.root"), 4_000);

    let queries = [
        "SELECT MAX(pt), COUNT(pt) FROM muons WHERE pt > 50.0".to_owned(),
        // Selection shape: item rows (with replicated parents) must come
        // back in serial item order.
        "SELECT eventID, pt FROM muons WHERE pt < 3.0".to_owned(),
        // Empty result across every worker count.
        "SELECT COUNT(eta) FROM muons WHERE pt < -1.0".to_owned(),
        // Grouped aggregation keyed on the replicated parent scalar.
        "SELECT eventID, COUNT(pt), MAX(pt) FROM muons WHERE pt > 80.0 GROUP BY eventID".to_owned(),
    ];

    for sql in &queries {
        let mut reference: Option<raw::columnar::Batch> = None;
        for parallelism in [1usize, 2, 4, 8] {
            let engine = engine_with_collection(&dir, parallelism);
            let cold = engine.query(sql).unwrap();
            let warm = engine.query(sql).unwrap();
            assert_eq!(
                cold.batch, warm.batch,
                "cold/warm disagree at parallelism {parallelism}: {sql}"
            );
            if parallelism > 1 {
                assert!(
                    cold.stats.explain.iter().any(|l| l.contains("parallel:")),
                    "parallel path did not engage at parallelism {parallelism}: {sql}\n{:#?}",
                    cold.stats.explain
                );
            }
            match &reference {
                None => reference = Some(cold.batch),
                Some(batch) => assert_eq!(
                    batch, &cold.batch,
                    "parallelism {parallelism} diverges from serial: {sql}"
                ),
            }
        }
    }
}

/// Spot-check the parallel collection path against ground truth computed
/// from the generator formula.
#[test]
fn parallel_collection_matches_ground_truth() {
    let dir = TempDir::new("colltruth");
    let events = 4_000usize;
    write_collection_dataset(&dir.path("m.root"), events);

    // Replay the generator.
    let mut want_count = 0i64;
    let mut want_max = f32::MIN;
    for i in 0..events as i64 {
        let muons = match i % 11 {
            0..=4 => 0,
            5..=8 => (i % 3 + 1) as usize,
            _ => 9,
        };
        for j in 0..muons {
            let pt = ((i * 13 + j as i64 * 5) % 1000) as f32 / 10.0;
            if pt > 50.0 {
                want_count += 1;
                want_max = want_max.max(pt);
            }
        }
    }

    let engine = engine_with_collection(&dir, 4);
    let r = engine.query("SELECT MAX(pt), COUNT(pt) FROM muons WHERE pt > 50.0").unwrap();
    // Aggregates over f32 columns widen to f64.
    assert_eq!(r.value(0, 0).unwrap(), Value::Float64(f64::from(want_max)));
    assert_eq!(r.value(0, 1).unwrap(), Value::Int64(want_count));
}

/// Join queries under all three placement points: every worker count
/// produces results bitwise-equal to serial, cold and warm, and the
/// parallel path actually engages on cold runs.
#[test]
fn parallel_joins_agree_across_placements_and_worker_counts() {
    use raw::engine::JoinPlacement;
    let dir = TempDir::new("joins");
    write_dataset(&dir);
    write_join_group_dataset(&dir);

    let x = datagen::literal_for_selectivity(0.4);
    let small = datagen::literal_for_selectivity(0.02);
    let queries = [
        // Aggregate over the build side, probe-side filter.
        format!(
            "SELECT MAX(d_csv.col3), COUNT(d_csv.col3) FROM t_csv \
             JOIN d_csv ON t_csv.col1 = d_csv.col1 WHERE t_csv.col2 < {x}"
        ),
        // Filters on both sides, fbin probe.
        format!(
            "SELECT SUM(d_fbin.col5) FROM t_fbin \
             JOIN d_fbin ON t_fbin.col1 = d_fbin.col1 \
             WHERE t_fbin.col2 < {x} AND d_fbin.col3 < {x}"
        ),
        // Selection shape: joined rows must come back in serial probe order.
        format!(
            "SELECT t_csv.col2, d_csv.col5 FROM t_csv \
             JOIN d_csv ON t_csv.col1 = d_csv.col1 WHERE t_csv.col1 < {small}"
        ),
        // Grouped aggregation above the join.
        format!(
            "SELECT g_csv.col2, COUNT(d_csv.col3), MAX(d_csv.col4) FROM g_csv \
             JOIN d_csv ON g_csv.col1 = d_csv.col1 WHERE g_csv.col3 < {x} \
             GROUP BY g_csv.col2"
        ),
    ];

    for placement in [JoinPlacement::Early, JoinPlacement::Intermediate, JoinPlacement::Late] {
        for sql in &queries {
            let mut reference: Option<raw::columnar::Batch> = None;
            for parallelism in [1usize, 2, 4, 8] {
                let config = EngineConfig { join_placement: placement, ..config(parallelism) };
                let engine = engine_with_join_tables(&dir, config);
                // Late attaches over CSV need a positional map; warm one up
                // per table first, as the paper's two-query protocol does.
                for t in ["t_csv", "d_csv", "g_csv"] {
                    engine.query(&format!("SELECT MAX(col1) FROM {t} WHERE col1 < {x}")).unwrap();
                }
                let cold = engine.query(sql).unwrap();
                let warm = engine.query(sql).unwrap();
                assert_eq!(
                    cold.batch, warm.batch,
                    "cold/warm disagree ({placement:?}, parallelism {parallelism}): {sql}"
                );
                if parallelism > 1 {
                    assert!(
                        cold.stats.explain.iter().any(|l| l.contains("parallel:")),
                        "parallel path did not engage ({placement:?}, parallelism \
                         {parallelism}): {sql}\n{:#?}",
                        cold.stats.explain
                    );
                    assert!(
                        cold.stats.explain.iter().any(|l| l.contains("shared across")),
                        "join must probe a shared build side: {:#?}",
                        cold.stats.explain
                    );
                }
                match &reference {
                    None => reference = Some(cold.batch),
                    Some(batch) => assert_eq!(
                        batch, &cold.batch,
                        "parallelism {parallelism} diverges from serial \
                         ({placement:?}): {sql}"
                    ),
                }
            }
        }
    }
}

/// GROUP BY queries across formats: identical results for every worker
/// count, cold and warm, with the parallel path engaging on cold runs.
#[test]
fn parallel_group_by_agrees_across_formats_and_worker_counts() {
    let dir = TempDir::new("groupby");
    write_dataset(&dir);
    write_join_group_dataset(&dir);

    let x = datagen::literal_for_selectivity(0.4);
    let mut queries = Vec::new();
    for table in ["g_csv", "g_fbin"] {
        queries.push(format!(
            "SELECT col2, COUNT(col1), SUM(col3), MIN(col3), MAX(col3), AVG(col3) \
             FROM {table} WHERE col1 < {x} GROUP BY col2"
        ));
        // Aggregate-only select list (key materialized for grouping only).
        queries.push(format!("SELECT COUNT(col1) FROM {table} GROUP BY col2"));
        // Empty result across every worker count.
        queries.push(format!("SELECT col2, COUNT(col1) FROM {table} WHERE col1 < 0 GROUP BY col2"));
    }
    queries
        .push("SELECT run, COUNT(id), MAX(id) FROM t_root WHERE id < 500000 GROUP BY run".into());

    for sql in &queries {
        let mut reference: Option<raw::columnar::Batch> = None;
        for parallelism in [1usize, 2, 4, 8] {
            let engine = engine_with_join_tables(&dir, config(parallelism));
            let cold = engine.query(sql).unwrap();
            let warm = engine.query(sql).unwrap();
            assert_eq!(
                cold.batch, warm.batch,
                "cold/warm disagree at parallelism {parallelism}: {sql}"
            );
            if parallelism > 1 && !sql.contains("t_root") {
                assert!(
                    cold.stats.explain.iter().any(|l| l.contains("parallel:")),
                    "parallel path did not engage at parallelism {parallelism}: {sql}\n{:#?}",
                    cold.stats.explain
                );
            }
            match &reference {
                None => reference = Some(cold.batch),
                Some(batch) => assert_eq!(
                    batch, &cold.batch,
                    "parallelism {parallelism} diverges from serial: {sql}"
                ),
            }
        }
    }
}

/// Side effects of the join and GROUP BY parallel paths equal serial: the
/// positional maps built under parallelism match the serially-built maps
/// (probe fragments appended in morsel order; the build side's whole-file
/// map), harvested row counts agree, and shreds recorded under parallelism
/// serve the same follow-up queries.
#[test]
fn parallel_join_and_group_side_effects_equal_serial() {
    let dir = TempDir::new("joinsidefx");
    write_dataset(&dir);
    write_join_group_dataset(&dir);

    let x = datagen::literal_for_selectivity(0.4);
    let join_sql = format!(
        "SELECT MAX(d_csv.col3) FROM t_csv JOIN d_csv ON t_csv.col1 = d_csv.col1 \
         WHERE t_csv.col2 < {x}"
    );
    let group_sql =
        format!("SELECT col2, COUNT(col1), MAX(col3) FROM g_csv WHERE col1 < {x} GROUP BY col2");

    let serial = engine_with_join_tables(&dir, config(1));
    let parallel = engine_with_join_tables(&dir, config(4));
    for sql in [&join_sql, &group_sql] {
        let a = serial.query(sql).unwrap();
        let b = parallel.query(sql).unwrap();
        assert_eq!(a.batch, b.batch, "{sql}");
    }

    for table in ["t_csv", "d_csv", "g_csv"] {
        let map_serial = serial.posmap(table).unwrap_or_else(|| panic!("serial map for {table}"));
        let map_parallel =
            parallel.posmap(table).unwrap_or_else(|| panic!("parallel map for {table}"));
        assert_eq!(map_serial.as_ref(), map_parallel.as_ref(), "posmap for {table}");
        assert_eq!(
            serial.table_stats().table_rows(table),
            parallel.table_stats().table_rows(table),
            "row stats for {table}"
        );
    }

    // Follow-ups served from the parallel-populated shred pool agree too.
    let hits_before = parallel.shred_pool_stats().hits;
    for sql in [&join_sql, &group_sql] {
        let a = serial.query(sql).unwrap();
        let b = parallel.query(sql).unwrap();
        assert_eq!(a.batch, b.batch, "warm {sql}");
    }
    assert!(parallel.shred_pool_stats().hits > hits_before, "warm runs consult the pool");
}

/// Spot-check parallel GROUP BY against independently computed ground truth.
#[test]
fn parallel_group_by_matches_ground_truth() {
    use std::collections::BTreeMap;
    let dir = TempDir::new("grouptruth");
    write_dataset(&dir);
    write_join_group_dataset(&dir);

    let table = datagen::int_table(97, ROWS, COLS);
    let keys: Vec<i64> = (0..ROWS as i64).map(|i| (i * 37 + 11) % 23).collect();
    let pred = table.column(0).unwrap().as_i64().unwrap();
    let vals = table.column(2).unwrap().as_i64().unwrap();
    let x = datagen::literal_for_selectivity(0.4);

    let mut expect: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for ((&k, &p), &v) in keys.iter().zip(pred).zip(vals) {
        if p < x {
            let e = expect.entry(k).or_insert((0, i64::MIN));
            e.0 += 1;
            e.1 = e.1.max(v);
        }
    }

    let engine = engine_with_join_tables(&dir, config(4));
    for table_name in ["g_csv", "g_fbin"] {
        let sql = format!(
            "SELECT col2, COUNT(col1), MAX(col3) FROM {table_name} \
             WHERE col1 < {x} GROUP BY col2"
        );
        let r = engine.query(&sql).unwrap();
        assert_eq!(r.stats.rows_out as usize, expect.len(), "{table_name}");
        for (i, (&k, &(cnt, max))) in expect.iter().enumerate() {
            assert_eq!(r.value(i, 0).unwrap(), Value::Int64(k), "{table_name} key row {i}");
            assert_eq!(r.value(i, 1).unwrap(), Value::Int64(cnt), "{table_name} count({k})");
            assert_eq!(r.value(i, 2).unwrap(), Value::Int64(max), "{table_name} max({k})");
        }
    }
}

/// Float aggregates are identical cold vs warm at the same parallelism:
/// the warm (posmap-hinted) partitioner replays the cold probe's grid, so
/// the partial-sum merge tree never changes between runs. Shred caching is
/// off so the warm run stays on the parallel path — a pool-served warm run
/// is a different (serial) access path and may legitimately reassociate.
#[test]
fn float_aggregates_stable_across_cold_and_warm_runs() {
    let dir = TempDir::new("floatstable");
    let csv = dir.path("f.csv");
    let table = raw::formats::datagen::mixed_table(23, 4_000, 4);
    raw::formats::csv::writer::write_file(&table, &csv).unwrap();

    let engine = RawEngine::new(EngineConfig {
        parallelism: 4,
        morsel_bytes: 2 << 10,
        cache_shreds: false,
        ..EngineConfig::from_env()
    });
    engine.register_table(TableDef {
        name: "f".into(),
        schema: table.schema().clone(),
        source: TableSource::Csv { path: csv },
    });
    let sql = "SELECT SUM(col3), AVG(col3) FROM f WHERE col1 < 500000000";
    let cold = engine.query(sql).unwrap();
    assert!(cold.stats.explain.iter().any(|l| l.contains("parallel:")));
    let warm = engine.query(sql).unwrap();
    assert!(warm.stats.explain.iter().any(|l| l.contains("parallel:")));
    assert_eq!(cold.batch, warm.batch, "same morsel grid => bitwise-stable floats");
}

/// The flat CSV table, its blocked-compressed `.rzb` twin and the fbin
/// table, with shred caching on whatever the environment says.
fn engine_over_csv_twins(dir: &TempDir, config: EngineConfig) -> RawEngine {
    let engine = RawEngine::new(EngineConfig { cache_shreds: true, ..config });
    for (name, file) in [("t_csv", "t.csv"), ("t_csv_rzb", "t.csv.rzb")] {
        engine.register_table(TableDef {
            name: name.into(),
            schema: Schema::uniform(COLS, DataType::Int64),
            source: TableSource::Csv { path: dir.path(file) },
        });
    }
    engine.register_table(TableDef {
        name: "t_fbin".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Fbin { path: dir.path("t.fbin") },
    });
    engine
}

fn write_csv_twins(dir: &TempDir) {
    write_dataset(dir);
    raw::formats::rzb::write_file(&dir.path("t.csv"), &dir.path("t.csv.rzb"), 2048).unwrap();
}

/// A morsel-parallel query records each column it reads into one shred,
/// exactly like the serial plan: a cold query finds nothing in the pool
/// and records one shred per column, and its warm repeat looks each column
/// up once — at parallelism 1 and 4 alike.
#[test]
fn parallel_query_counts_and_records_each_column_once() {
    let dir = TempDir::new("countonce");
    write_csv_twins(&dir);
    let x = datagen::literal_for_selectivity(0.4);

    // (query, strategy, columns it reads, warm pool hits at p = 1 and 4).
    // The CSV queries read every column whole, so their warm repeat is
    // served from the pool alone: one hit per column. The fbin query
    // fetches `col3` late for the selected rows, so the pool holds only a
    // partial `col3` and the warm repeat runs per morsel again: its
    // segmented scans reread `col1` from the file, and `col3` counts one
    // hit for the whole query, not one per morsel.
    let mut cases = Vec::new();
    for table in ["t_csv", "t_csv_rzb"] {
        cases.push((
            format!("SELECT SUM(col5), MAX(col6) FROM {table}"),
            ShredStrategy::ColumnShreds,
            2,
            [2, 2],
        ));
        cases.push((
            format!("SELECT MAX(col3), COUNT(col2) FROM {table} WHERE col1 < {x}"),
            ShredStrategy::FullColumns,
            3,
            [3, 3],
        ));
    }
    cases.push((
        format!("SELECT MAX(col3) FROM t_fbin WHERE col1 < {x}"),
        ShredStrategy::ColumnShreds,
        2,
        [2, 1],
    ));
    for (sql, shreds, columns, warm_hits) in &cases {
        let mut recorded = Vec::new();
        for (parallelism, warm_hits) in [1usize, 4].into_iter().zip(warm_hits) {
            let engine = engine_over_csv_twins(
                &dir,
                EngineConfig { shreds: *shreds, ..config(parallelism) },
            );
            let cold = engine.query(sql).unwrap();
            if parallelism > 1 {
                assert!(
                    cold.stats.explain.iter().any(|l| l.contains("parallel:")),
                    "parallel path did not engage: {sql}"
                );
            }
            assert_eq!(cold.stats.shred_hits, 0, "cold at parallelism {parallelism}: {sql}");
            assert_eq!(
                cold.stats.shreds_recorded, *columns,
                "cold at parallelism {parallelism} records one shred per column: {sql}"
            );
            recorded.push(cold.stats.shreds_recorded);

            let warm = engine.query(sql).unwrap();
            assert_eq!(warm.batch, cold.batch, "{sql}");
            assert_eq!(
                (warm.stats.shred_hits, warm.stats.shred_misses),
                (*warm_hits, 0),
                "warm at parallelism {parallelism}: one hit per pooled column: {sql}"
            );
        }
        assert_eq!(recorded[0], recorded[1], "shreds recorded, p = 1 vs p = 4: {sql}");
    }
}

/// After one cold query, a parallel engine's shred pool and harvested
/// statistics equal a serial engine's: the same shreds (full columns and
/// the partial, selection-driven ones), the same row counts and the same
/// histograms, column by column.
#[test]
fn parallel_cold_query_pools_and_counts_like_serial() {
    let dir = TempDir::new("poolstats");
    write_csv_twins(&dir);
    let x = datagen::literal_for_selectivity(0.4);

    for table in ["t_csv", "t_csv_rzb", "t_fbin"] {
        for sql in [
            format!("SELECT SUM(col5), MAX(col6) FROM {table}"),
            format!("SELECT MAX(col3), MIN(col7) FROM {table} WHERE col1 < {x}"),
            format!("SELECT col2, COUNT(col4) FROM {table} WHERE col1 < {x} GROUP BY col2"),
        ] {
            let serial = engine_over_csv_twins(&dir, config(1));
            let parallel = engine_over_csv_twins(&dir, config(4));
            let a = serial.query(&sql).unwrap();
            let b = parallel.query(&sql).unwrap();
            assert_eq!(a.batch, b.batch, "{sql}");
            assert!(b.stats.explain.iter().any(|l| l.contains("parallel:")), "must engage: {sql}");

            let (sa, sb) = (serial.table_stats(), parallel.table_stats());
            assert_eq!(sa.table_rows(table), sb.table_rows(table), "row count: {sql}");
            assert_eq!(sa.len(), sb.len(), "histogram count: {sql}");
            for c in 1..=COLS {
                let col = format!("col{c}");
                assert_eq!(serial.shred(table, &col), parallel.shred(table, &col), "{col}: {sql}");
                assert_eq!(
                    format!("{:?}", sa.histogram(table, &col)),
                    format!("{:?}", sb.histogram(table, &col)),
                    "{col} histogram: {sql}"
                );
            }
        }
    }
}

/// A rootsim collection field (or replicated parent scalar) whose file type
/// differs from the catalog's declared type fails the query at plan time —
/// `explain` rejects it too — instead of mid-scan in the shred store.
#[test]
fn rootsim_collection_type_mismatch_fails_at_plan_time() {
    let dir = TempDir::new("colltype");
    write_collection_dataset(&dir.path("m.root"), 4_000);
    // The file has eventID: Int64 (parent scalar) and pt: Float32 (item).
    for (field, declared) in [("pt", DataType::Float64), ("eventID", DataType::Int32)] {
        for parallelism in [1usize, 2] {
            let engine = RawEngine::new(config(parallelism));
            let schema: Vec<raw::columnar::Field> = [
                ("eventID", DataType::Int64),
                ("pt", DataType::Float32),
                ("eta", DataType::Float32),
            ]
            .into_iter()
            .map(|(name, dt)| {
                raw::columnar::Field::new(name, if name == field { declared } else { dt })
            })
            .collect();
            engine.register_table(TableDef {
                name: "muons".into(),
                schema: Schema::new(schema),
                source: TableSource::RootCollection {
                    path: dir.path("m.root"),
                    collection: "muons".into(),
                    parent_scalar: Some("eventID".into()),
                },
            });
            let sql = format!("SELECT MAX({field}), COUNT(eta) FROM muons WHERE eta < 1.0");
            let err = engine.session().query(&sql).expect_err("type mismatch must fail");
            let msg = err.to_string();
            assert!(
                msg.starts_with("planning error") && msg.contains("schema declares"),
                "{field} at parallelism {parallelism}: {msg}"
            );
            assert!(engine.explain(&sql).is_err(), "{field}: the plan itself is rejected");
        }
    }
}
