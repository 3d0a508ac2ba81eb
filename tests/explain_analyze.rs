//! EXPLAIN ANALYZE end-to-end: a parallel cold CSV query renders its plan
//! annotated with measured actuals — per-operator rows/prune counts, the
//! parallel run shape, the totals line, and the per-morsel worker/gate-wait
//! table — and the engine-lifetime metrics registry reflects the run.

use raw::columnar::{DataType, Schema};
use raw::engine::{AccessMode, EngineConfig, RawEngine, TableDef, TableSource};
use raw::formats::datagen;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("raw_expan_{tag}_{}", std::process::id()));
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

fn engine_over(dir: &TempDir) -> RawEngine {
    let table = datagen::int_table(97, ROWS, COLS);
    raw::formats::csv::writer::write_file(&table, &dir.path("t.csv")).unwrap();
    let engine = RawEngine::new(EngineConfig {
        parallelism: 4,
        mode: AccessMode::Jit,
        morsel_bytes: 2 << 10,
        read_chunk_bytes: 4096, // cold streamed: morsels dispatch availability-gated
        cache_shreds: false,    // keep warm re-runs on the parallel file path
        ..EngineConfig::from_env()
    });
    engine.register_table(TableDef {
        name: "t_csv".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Csv { path: dir.path("t.csv") },
    });
    engine
}

/// The acceptance shape: per-operator actual rows/time annotations, the
/// parallel line's worker/morsel actuals, and one per-morsel row per morsel
/// with its worker and gate-wait.
#[test]
fn parallel_cold_csv_explain_analyze_shows_actuals_and_morsel_table() {
    let dir = TempDir::new("csv");
    let engine = engine_over(&dir);
    let x = datagen::literal_for_selectivity(0.4);
    let sql = format!("SELECT col2, col5 FROM t_csv WHERE col1 < {x}");

    let text = engine.explain_analyze(&sql).unwrap();

    // Per-operator actuals on the plan lines.
    assert!(text.contains("(actual: rows_scanned="), "scan line annotated:\n{text}");
    assert!(text.contains("(actual: rows_out="), "projection line annotated:\n{text}");
    assert!(text.contains("(actual: workers="), "parallel line annotated:\n{text}");
    assert!(text.contains("totals: wall="), "totals line present:\n{text}");

    // The per-morsel table: header plus one line per morsel, each carrying a
    // worker id and the csv format label.
    assert!(text.contains("morsel  worker  format"), "morsel table header:\n{text}");
    let morsel_lines = text.lines().filter(|l| l.split_whitespace().nth(2) == Some("csv")).count();
    assert!(morsel_lines >= 2, "expected >=2 csv morsel rows:\n{text}");

    // The same query through `query()` exposes the structured trace, and
    // the run shows up in the engine-lifetime registry.
    let result = engine.query(&sql).unwrap();
    let trace = result.stats.trace.as_ref().expect("parallel trace");
    assert_eq!(trace.morsels.len(), result.stats.morsels);
    assert!(trace.workers_used() >= 1);

    let metric = |name: &str| {
        engine
            .metrics()
            .snapshot()
            .into_iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("metric {name} missing from snapshot"))
    };
    assert_eq!(metric("queries"), 2, "explain_analyze + query both counted");
    assert_eq!(metric("parallel_queries"), 2);
    assert!(metric("morsels_dispatched") >= 4, "both runs dispatched morsels");
    assert!(metric("bytes_from_disk") > 0, "cold run charged disk bytes");
    assert_eq!(metric("morsels_failed"), 0);
}

/// Serial runs (parallelism 1) render annotations without a morsel table
/// and count as non-parallel queries in the registry.
#[test]
fn serial_explain_analyze_has_no_morsel_table() {
    let dir = TempDir::new("serial");
    let table = datagen::int_table(97, ROWS, COLS);
    raw::formats::csv::writer::write_file(&table, &dir.path("t.csv")).unwrap();
    let engine = RawEngine::new(EngineConfig { parallelism: 1, ..EngineConfig::from_env() });
    engine.register_table(TableDef {
        name: "t_csv".into(),
        schema: Schema::uniform(COLS, DataType::Int64),
        source: TableSource::Csv { path: dir.path("t.csv") },
    });

    let text = engine.explain_analyze("SELECT MAX(col3) FROM t_csv WHERE col1 < 100").unwrap();
    assert!(text.contains("(actual: rows_scanned="), "scan annotated:\n{text}");
    assert!(text.contains("totals: wall="), "totals present:\n{text}");
    assert!(!text.contains("morsel  worker"), "no morsel table on serial runs:\n{text}");

    let snapshot = engine.metrics().snapshot();
    let queries = snapshot.iter().find(|(k, _)| *k == "queries").unwrap().1;
    let parallel = snapshot.iter().find(|(k, _)| *k == "parallel_queries").unwrap().1;
    assert_eq!(queries, 1);
    assert_eq!(parallel, 0);
}

/// A selection table, a grouped table (`col2` has 23 distinct keys) and a
/// join dimension (a shuffled quarter of `t`), all CSV.
fn plan_engine(dir: &TempDir, parallelism: usize) -> RawEngine {
    let table = datagen::int_table(97, ROWS, COLS);
    let mut grouped = table.columns().to_vec();
    grouped[1] =
        raw::columnar::Column::Int64((0..ROWS as i64).map(|i| (i * 37 + 11) % 23).collect());
    let grouped = raw::columnar::MemTable::new(table.schema().clone(), grouped).unwrap();
    let shuffled = datagen::shuffled_copy(&table, 5);
    let dim: Vec<raw::columnar::Column> =
        shuffled.columns().iter().map(|c| c.slice(0, ROWS / 4).unwrap()).collect();
    let dim = raw::columnar::MemTable::new(table.schema().clone(), dim).unwrap();
    let engine = RawEngine::new(EngineConfig {
        parallelism,
        mode: AccessMode::Jit,
        morsel_bytes: 2 << 10,
        cache_shreds: false, // keep warm re-runs on the file path
        ..EngineConfig::default()
    });
    for (name, t) in [("t_csv", &table), ("g_csv", &grouped), ("d_csv", &dim)] {
        let path = dir.path(&format!("{name}.csv"));
        raw::formats::csv::writer::write_file(t, &path).unwrap();
        engine.register_table(TableDef {
            name: name.into(),
            schema: Schema::uniform(COLS, DataType::Int64),
            source: TableSource::Csv { path },
        });
    }
    engine
}

/// A selection, a grouped aggregate and a join.
fn plan_queries() -> [String; 3] {
    let x = datagen::literal_for_selectivity(0.4);
    [
        format!("SELECT col2, col5 FROM t_csv WHERE col1 < {x}"),
        format!("SELECT col2, COUNT(col3), SUM(col4) FROM g_csv WHERE col1 < {x} GROUP BY col2"),
        format!(
            "SELECT MAX(d_csv.col3), COUNT(d_csv.col3) FROM t_csv \
             JOIN d_csv ON t_csv.col1 = d_csv.col1 WHERE t_csv.col2 < {x}"
        ),
    ]
}

/// `sql`'s `explain` lines and the lines of the query that then runs, on
/// an engine warmed by two earlier runs: the first builds the positional
/// map, the second compiles the access paths that use it, so planning and
/// running see the same state.
fn planned_and_ran(engine: &RawEngine, sql: &str) -> (Vec<String>, Vec<String>) {
    engine.query(sql).unwrap();
    engine.query(sql).unwrap();
    let planned = engine.explain(sql).unwrap();
    (planned, engine.query(sql).unwrap().stats.explain)
}

/// EXPLAIN describes the plan that runs: at parallelism 4 over files that
/// split, its lines are the executed morsel plan's, `parallel:` line
/// included.
#[test]
fn explain_is_the_morsel_plan_that_runs() {
    let dir = TempDir::new("plan4");
    let engine = plan_engine(&dir, 4);
    for sql in plan_queries() {
        let (planned, ran) = planned_and_ran(&engine, &sql);
        assert!(
            planned.iter().any(|l| l.starts_with("parallel: ")),
            "{sql}: expected a morsel plan: {planned:#?}"
        );
        assert_eq!(planned, ran, "{sql}");
    }
}

/// At parallelism 1 the plan of each query — what `explain` prints and what
/// the query reports — is the whole-file plan, line for line.
#[test]
fn serial_explain_lines_are_the_whole_file_plan() {
    let dir = TempDir::new("plan1");
    let engine = plan_engine(&dir, 1);
    for (sql, want) in plan_queries().iter().zip(SERIAL_PLANS) {
        let (planned, ran) = planned_and_ran(&engine, sql);
        assert_eq!(planned, ran, "{sql}");
        assert_eq!(planned, want, "{sql}");
    }
}

/// The whole-file plans of [`plan_queries`] on the warmed engine.
const SERIAL_PLANS: [&[&str]; 3] = [
    &[
        "scan t_csv [csv jit, template cache hit] cols [\"col1\"]",
        "filter t_csv.col1 < 400000000",
        "attach t_csv cols [\"col2\", \"col5\"] [column shred]",
        "project col2, col5",
    ],
    &[
        "scan g_csv [csv jit, template cache hit] cols [\"col1\"]",
        "filter g_csv.col1 < 400000000",
        "attach g_csv cols [\"col2\", \"col3\", \"col4\"] [column shred]",
        "hash aggregate col2, COUNT(col3), SUM(col4) GROUP BY g_csv.col2",
    ],
    &[
        "scan t_csv [csv jit, template cache hit] cols [\"col2\", \"col1\"]",
        "filter t_csv.col2 < 400000000",
        "scan d_csv [csv jit, template cache hit] cols [\"col1\"]",
        "hash join t_csv.col1 = d_csv.col1 (probe left, build right)",
        "attach d_csv cols [\"col3\"] [late (above join)]",
        "aggregate MAX(col3), COUNT(col3)",
    ],
];
