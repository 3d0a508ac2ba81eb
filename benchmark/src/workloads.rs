//! The five workloads: what one operation is, how each is set up, and the
//! closed-loop clients that drive the engine through `RawEngine::session()`.
//!
//! All load is closed-loop: a client sends its next query only after the
//! previous answer arrived (an analyst at a REPL, a `raw-serve` connection).
//! Op counts are fixed by `(workload, --seconds)`, never by elapsed time, so
//! a faster engine answers the same questions sooner instead of more of them
//! and single-client counters repeat exactly.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use raw::columnar::{DataType, Schema};
use raw::engine::{EngineConfig, QueryStats, RawEngine, Session, TableDef, TableSource};

use crate::data::{self, Dataset, FileSet, Files, COLS};
use crate::oracle::{self, Answer, Oracle};
use crate::queries::{self, Query, SEQ_LEN, SESSION_TABLES};
use crate::spans::{Recorder, Span};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdCsv,
    ColdRzb,
    AdaptiveSeq,
    WarmOps,
    SessionsMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdCsv,
        Workload::ColdRzb,
        Workload::AdaptiveSeq,
        Workload::WarmOps,
        Workload::SessionsMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCsv => "cold_csv",
            Workload::ColdRzb => "cold_rzb",
            Workload::AdaptiveSeq => "adaptive_seq",
            Workload::WarmOps => "warm_ops",
            Workload::SessionsMixed => "sessions_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        if self == Workload::SessionsMixed {
            2
        } else {
            1
        }
    }

    /// Whether every operation starts from a cold engine (empty file pool,
    /// posmaps, shreds, templates, stats). The files themselves sit in the
    /// OS page cache after the warm-up ops.
    pub fn fresh_engine_per_op(self) -> bool {
        matches!(self, Workload::ColdCsv | Workload::ColdRzb | Workload::AdaptiveSeq)
    }

    fn files(self) -> FileSet {
        match self {
            Workload::ColdCsv | Workload::AdaptiveSeq => {
                FileSet { csv: true, ..FileSet::default() }
            }
            Workload::ColdRzb => FileSet { rzb: true, ..FileSet::default() },
            Workload::WarmOps => FileSet { fbin: true, dim: true, ..FileSet::default() },
            Workload::SessionsMixed => {
                FileSet { csv: true, rzb: true, fbin: true, ..FileSet::default() }
            }
        }
    }

    /// Ops per client in a 10-second run, sized on the 2-core reference box.
    fn base_ops(self) -> usize {
        match self {
            Workload::ColdCsv => 140,
            // The 100-op floor of `op_ms_p90`; about 14 s on that box.
            Workload::ColdRzb => 100,
            Workload::AdaptiveSeq => 16,
            Workload::WarmOps => 160,
            Workload::SessionsMixed => 100,
        }
    }

    /// Fewest ops per client that still give `op_ms_p90` its 100 samples
    /// (`adaptive_seq` takes it over the queries inside its sequences).
    fn min_ops(self) -> usize {
        match self {
            Workload::AdaptiveSeq => 100usize.div_ceil(SEQ_LEN),
            Workload::SessionsMixed => 50,
            _ => 100,
        }
    }
}

/// Rows of `events` in a full run. The issue drafted 200 000, where 100 cold
/// `.rzb` operations alone take 28 s; the driver's cap (114 runs in 3 420 s)
/// leaves about ten measured seconds per run, which this size fits.
pub const FULL_ROWS: usize = 100_000;
pub const SMOKE_ROWS: usize = 20_000;
/// Rows the `sessions_mixed` budgets in the issue were drafted for.
const BUDGET_REFERENCE_ROWS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub rows: usize,
    /// Timed operations per client.
    pub ops: usize,
}

impl Scale {
    /// `--seconds` scales the op count linearly from the 10-second base; the
    /// traced run replays a third of it; `--smoke` a tenth, on a small table.
    pub fn new(w: Workload, seconds: u64, smoke: bool, traced: bool) -> Scale {
        let mut ops = w.base_ops() * seconds as usize / 10;
        if smoke {
            ops = (w.base_ops() / 10).max(2);
        } else {
            ops = ops.max(w.min_ops());
        }
        if traced {
            ops = (ops / 3).max(2);
        }
        if w == Workload::WarmOps {
            ops = ops.min(queries::WARM_MAX_OPS);
        }
        Scale { rows: if smoke { SMOKE_ROWS } else { FULL_ROWS }, ops }
    }
}

/// The pinned engine configuration: `parallelism = 2`, everything else the
/// compiled-in default — never `from_env()` — except the two budgets
/// `sessions_mixed` shrinks so its working set overflows both pools.
pub fn pinned_config(w: Workload, rows: usize) -> EngineConfig {
    let mut config = EngineConfig { parallelism: 2, ..EngineConfig::default() };
    if w == Workload::SessionsMixed {
        config.file_pool_bytes = (64 << 20) * rows / BUDGET_REFERENCE_ROWS;
        config.shred_pool_bytes = (12 << 20) * rows / BUDGET_REFERENCE_ROWS;
    }
    config
}

/// The counts a query reports that repeat exactly on a single client.
pub const COUNT_NAMES: [&str; 9] = [
    "rows_scanned",
    "fields_tokenized",
    "values_converted",
    "io_bytes",
    "morsels",
    "template_hits",
    "template_misses",
    "shred_hits",
    "shred_misses",
];
pub type Counts = [u64; COUNT_NAMES.len()];

fn counts_of(stats: &QueryStats) -> Counts {
    [
        stats.metrics.rows_scanned,
        stats.metrics.fields_tokenized,
        stats.metrics.values_converted,
        stats.io_bytes,
        stats.morsels as u64,
        stats.template_hits,
        stats.template_misses,
        stats.shred_hits,
        stats.shred_misses,
    ]
}

pub struct PreparedQuery {
    pub query: Query,
    pub sql: String,
    pub expected: Answer,
    /// Queries with the same key run against the same engine state, so their
    /// counts must be identical; `None` where sessions race.
    exact_key: Option<String>,
}

/// One operation: a single query, or the 12 of an `adaptive_seq` exploration.
pub struct Op {
    pub queries: Vec<PreparedQuery>,
}

/// A workload ready to be measured.
pub struct Ready {
    pub workload: Workload,
    pub data: Dataset,
    pub files: Files,
    pub config: EngineConfig,
    pub tables: Vec<TableDef>,
    /// The shared, pre-warmed engine (`warm_ops`, `sessions_mixed`).
    pub engine: Option<RawEngine>,
    /// One op list per client.
    pub clients: Vec<Vec<Op>>,
}

impl Ready {
    pub fn build_engine(&self) -> RawEngine {
        let engine = RawEngine::new(self.config.clone());
        for def in &self.tables {
            engine.register_table(def.clone());
        }
        engine
    }

    /// Registered names of the tables that encode `events`.
    pub fn event_tables(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|t| t.name.as_str()).filter(|&n| n != "dim")
    }
}

fn table(name: &str, source: TableSource) -> TableDef {
    TableDef { name: name.to_owned(), schema: Schema::uniform(COLS, DataType::Int64), source }
}

/// Generate the data, write the files, build and warm the engine state the
/// workload starts from. Everything here is `setup_s`.
pub fn setup(
    w: Workload,
    seed: u64,
    scale: Scale,
    dir: &Path,
    all_files: bool,
) -> Result<Ready, String> {
    let data = Dataset::generate(seed, scale.rows);
    let config = pinned_config(w, scale.rows);
    let want = if all_files { FileSet::ALL } else { w.files() };
    let files = data::write_files(&data, dir, want, config.rzb_block_bytes)?;
    let csv = |path| TableSource::Csv { path };
    let tables = match w {
        Workload::ColdCsv | Workload::AdaptiveSeq => vec![table("events", csv(files.csv()))],
        Workload::ColdRzb => vec![table("events", csv(files.rzb()))],
        Workload::WarmOps => vec![
            table("events", TableSource::Fbin { path: files.fbin() }),
            table("dim", csv(files.dim())),
        ],
        Workload::SessionsMixed => vec![
            table(SESSION_TABLES[0], csv(files.csv())),
            table(SESSION_TABLES[1], TableSource::Fbin { path: files.fbin() }),
            table(SESSION_TABLES[2], csv(files.rzb())),
        ],
    };

    let (warmup, clients) = {
        let oracle = Oracle::new(&data);
        let mut answers: HashMap<String, Answer> = HashMap::new();
        let mut prepare = |query: Query, pos: usize| {
            let sql = query.sql();
            let expected =
                answers.entry(sql.clone()).or_insert_with(|| oracle.answer(&query)).clone();
            let exact_key = (w.clients() == 1).then(|| format!("{pos}:{sql}"));
            PreparedQuery { query, sql, expected, exact_key }
        };
        // One inner list per operation; a query's position is its index in it.
        let mut make_ops = |ops: Vec<Vec<Query>>| -> Vec<Op> {
            ops.into_iter()
                .map(|queries| Op {
                    queries: queries
                        .into_iter()
                        .enumerate()
                        .map(|(pos, q)| prepare(q, pos))
                        .collect(),
                })
                .collect()
        };
        let singles = |queries: Vec<Query>| -> Vec<Vec<Query>> {
            queries.into_iter().map(|q| vec![q]).collect()
        };
        let mut rng = data::stream(seed, 1);
        match w {
            Workload::ColdCsv | Workload::ColdRzb => {
                let q = queries::cold_query(&mut rng);
                (make_ops(singles(vec![q.clone(); 3])), vec![make_ops(singles(vec![q; scale.ops]))])
            }
            Workload::AdaptiveSeq => {
                let seq = queries::adaptive_sequence(&mut rng);
                (make_ops(vec![seq.clone()]), vec![make_ops(vec![seq; scale.ops])])
            }
            Workload::WarmOps => {
                let (steady, ops) = queries::warm_mix(&mut rng, scale.ops);
                (make_ops(singles(steady)), vec![make_ops(singles(ops))])
            }
            Workload::SessionsMixed => {
                // One read of each file, so the OS page cache is warm.
                let warmup = SESSION_TABLES.iter().map(|t| queries::q1(t, 1 << 29)).collect();
                let clients = (0..w.clients() as u64)
                    .map(|c| queries::session_stream(&mut data::stream(seed, 1 + c), scale.ops))
                    .map(|stream| make_ops(singles(stream)))
                    .collect();
                (make_ops(singles(warmup)), clients)
            }
        }
    };

    let mut ready = Ready { workload: w, data, files, config, tables, engine: None, clients };
    if !w.fresh_engine_per_op() {
        ready.engine = Some(ready.build_engine());
    }
    let mut log = ClientLog::new(Recorder::new(false, Instant::now(), 0));
    log.run_ops(&ready, &warmup, 0);
    if log.failed > 0 {
        return Err(format!("warm-up failed: {}", log.failures.join("; ")));
    }
    Ok(ready)
}

/// One timed query.
#[derive(Debug, Clone)]
pub struct QuerySample {
    pub shape: &'static str,
    /// Position inside its operation (0 except in `adaptive_seq`).
    pub pos: usize,
    pub ms: f64,
    pub counts: Counts,
}

/// Everything one client observed.
pub struct ClientLog {
    rec: Recorder,
    pub op_ms: Vec<f64>,
    pub queries: Vec<QuerySample>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    exact: HashMap<String, Counts>,
    /// Repetitions whose counts differed from the first sighting.
    pub count_mismatches: Vec<String>,
    /// Sums over the timed queries, for the per-layer accounting.
    pub query_ns: u64,
    pub compile_ns: u64,
    pub gate_wait_ns: u64,
    /// Σ (morsel exec + gate wait) ÷ workers: the share of scan work on the
    /// query's blocking path.
    pub blocking_ns: u64,
    pub shreds_recorded: u64,
    /// Engine-lifetime counters of the engines this client built and dropped.
    pub engine_counters: BTreeMap<&'static str, u64>,
}

const MAX_MESSAGES: usize = 5;

impl ClientLog {
    pub fn new(rec: Recorder) -> ClientLog {
        ClientLog {
            rec,
            op_ms: Vec::new(),
            queries: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            exact: HashMap::new(),
            count_mismatches: Vec::new(),
            query_ns: 0,
            compile_ns: 0,
            gate_wait_ns: 0,
            blocking_ns: 0,
            shreds_recorded: 0,
            engine_counters: BTreeMap::new(),
        }
    }

    /// Fold another client's observations into this one.
    fn absorb(&mut self, other: ClientLog) {
        self.op_ms.extend(other.op_ms);
        self.queries.extend(other.queries);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.count_mismatches.extend(other.count_mismatches);
        self.query_ns += other.query_ns;
        self.compile_ns += other.compile_ns;
        self.gate_wait_ns += other.gate_wait_ns;
        self.blocking_ns += other.blocking_ns;
        self.shreds_recorded += other.shreds_recorded;
        add_counters(&mut self.engine_counters, &other.engine_counters);
        self.rec.extend(other.rec.into_spans());
    }

    fn note_failure(&mut self, mut message: String) {
        if self.failures.len() < MAX_MESSAGES {
            if message.len() > 300 {
                message = message.chars().take(300).collect::<String>() + "…";
            }
            self.failures.push(message);
        }
    }

    /// Send one query, wait for the answer, check it against the oracle.
    fn run_query(
        &mut self,
        session: &Session,
        pq: &PreparedQuery,
        parent: u64,
        op_id: u64,
        pos: usize,
    ) -> bool {
        let span = self.rec.reserve();
        let start = Instant::now();
        let result = session.query(&pq.sql);
        let end = Instant::now();

        let mut counts = Counts::default();
        let ok = match &result {
            Ok(r) => {
                counts = counts_of(&r.stats);
                self.account(&r.stats);
                match oracle::canonical(&pq.query, &r.batch) {
                    Ok(got) if got == pq.expected => true,
                    Ok(got) => {
                        let want = &pq.expected;
                        self.note_failure(format!("`{}`: got {got:?}, expected {want:?}", pq.sql));
                        false
                    }
                    Err(e) => {
                        self.note_failure(format!("`{}`: {e}", pq.sql));
                        false
                    }
                }
            }
            Err(e) => {
                self.note_failure(format!("`{}` failed: {e}", pq.sql));
                false
            }
        };
        if let (true, Some(key)) = (ok, &pq.exact_key) {
            match self.exact.get(key) {
                None => {
                    self.exact.insert(key.clone(), counts);
                }
                Some(first) if *first != counts => {
                    if self.count_mismatches.len() < MAX_MESSAGES {
                        self.count_mismatches
                            .push(format!("`{key}`: counts {counts:?} after {first:?}"));
                    }
                }
                Some(_) => {}
            }
        }
        let elapsed = end - start;
        self.query_ns += elapsed.as_nanos() as u64;
        self.queries.push(QuerySample {
            shape: pq.query.shape,
            pos,
            ms: elapsed.as_secs_f64() * 1e3,
            counts,
        });
        let shape = pq.query.shape;
        let span_counts = if self.rec.enabled() {
            COUNT_NAMES.iter().copied().zip(counts).collect()
        } else {
            Vec::new()
        };
        let name = || format!("query:{shape}");
        self.rec.record(span, Some(parent), op_id, name, start, end, span_counts);
        ok
    }

    fn account(&mut self, stats: &QueryStats) {
        self.compile_ns += stats.compile_time.as_nanos() as u64;
        self.shreds_recorded += stats.shreds_recorded as u64;
        let (busy, workers) = match &stats.trace {
            Some(t) => {
                let exec: std::time::Duration = t.morsels.iter().map(|m| m.exec).sum();
                self.gate_wait_ns += t.total_gate_wait().as_nanos() as u64;
                (exec + t.total_gate_wait(), t.workers.max(1))
            }
            None => (stats.scan.total, 1),
        };
        self.blocking_ns += busy.as_nanos() as u64 / workers as u64;
    }

    /// Run `ops` back to back: on the shared engine when the workload has
    /// one, else each on an engine built for it.
    pub fn run_ops(&mut self, ready: &Ready, ops: &[Op], first_op_id: u64) {
        let name = ready.workload.name();
        let shared = ready.engine.as_ref().map(RawEngine::session);
        for (i, op) in ops.iter().enumerate() {
            let op_id = first_op_id + i as u64;
            let span = self.rec.reserve();
            let start = Instant::now();
            let fresh = shared.is_none().then(|| ready.build_engine());
            let fresh_session = fresh.as_ref().map(RawEngine::session);
            let session = shared.as_ref().or(fresh_session.as_ref()).expect("one of the two");
            let mut ok = true;
            for (pos, pq) in op.queries.iter().enumerate() {
                ok &= self.run_query(session, pq, span, op_id, pos);
            }
            let end = Instant::now();
            self.attempted += 1;
            self.failed += u64::from(!ok);
            self.op_ms.push((end - start).as_secs_f64() * 1e3);
            self.rec.record(span, None, op_id, || format!("op:{name}"), start, end, Vec::new());
            if let (true, Some(engine)) = (self.rec.enabled(), &fresh) {
                add_counters(&mut self.engine_counters, &engine_counters(engine, ready));
            }
        }
    }
}

/// The engine's lifetime counters plus the two that live elsewhere.
pub fn engine_counters(engine: &RawEngine, ready: &Ready) -> BTreeMap<&'static str, u64> {
    let mut counters: BTreeMap<&'static str, u64> =
        engine.metrics().snapshot().into_iter().collect();
    counters.insert("shred_evictions", engine.shred_pool_stats().evictions);
    let posmap_bytes: usize =
        ready.event_tables().filter_map(|t| engine.posmap(t)).map(|m| m.heap_bytes()).sum();
    counters.insert("posmap_bytes", posmap_bytes as u64);
    counters
}

/// Sum `delta` into `total`; `posmap_bytes` is a level, so the latest wins.
fn add_counters(total: &mut BTreeMap<&'static str, u64>, delta: &BTreeMap<&'static str, u64>) {
    for (&k, &v) in delta {
        *total.entry(k).or_default() += v;
    }
    if let Some(&level) = delta.get("posmap_bytes") {
        total.insert("posmap_bytes", level);
    }
}

/// The outcome of one measured replay.
pub struct Measured {
    pub log: ClientLog,
    /// First op sent → last answer received.
    pub wall_s: f64,
    pub spans: Vec<Span>,
}

/// Run every client's op list to completion, all clients starting together.
pub fn measure(ready: &Ready, traced: bool, epoch: Instant) -> Measured {
    let barrier = Barrier::new(ready.clients.len() + 1);
    let before = ready.engine.as_ref().filter(|_| traced).map(|e| engine_counters(e, ready));
    let (logs, wall_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .clients
            .iter()
            .enumerate()
            .map(|(c, ops)| {
                let barrier = &barrier;
                let c = c as u64;
                scope.spawn(move || {
                    let mut log = ClientLog::new(Recorder::new(traced, epoch, c * 1_000_000_000));
                    barrier.wait();
                    log.run_ops(ready, ops, c * 1_000_000);
                    log
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let logs: Vec<ClientLog> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (logs, start.elapsed().as_secs_f64())
    });

    let mut logs = logs.into_iter();
    let mut merged = logs.next().expect("every workload has a client");
    logs.for_each(|log| merged.absorb(log));
    if let (Some(before), Some(engine)) = (before, &ready.engine) {
        let mut delta = engine_counters(engine, ready);
        for (k, v) in &mut delta {
            if *k != "posmap_bytes" {
                *v = v.saturating_sub(before.get(k).copied().unwrap_or(0));
            }
        }
        add_counters(&mut merged.engine_counters, &delta);
    }
    let spans = merged.rec.take_spans();
    Measured { log: merged, wall_s, spans }
}
