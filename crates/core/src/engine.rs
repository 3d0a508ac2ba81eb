//! The RAW engine facade.
//!
//! [`RawEngine`] owns the catalog and all adaptive state — file buffers, the
//! template cache of compiled access paths, per-table positional maps, the
//! column-shred pool, and (for the DBMS baseline) fully-loaded tables — and
//! answers SQL queries through the physical planner. Experiments flip
//! [`EngineConfig`] knobs to reproduce every system the paper compares:
//!
//! | Paper system      | Configuration                                     |
//! |-------------------|---------------------------------------------------|
//! | "DBMS"            | `mode: Dbms`                                      |
//! | "External Tables" | `mode: ExternalTables`                            |
//! | "In Situ" (NoDB)  | `mode: InSitu`                                    |
//! | "JIT"             | `mode: Jit, shreds: FullColumns`                  |
//! | "Column shreds"   | `mode: Jit, shreds: ColumnShreds`                 |
//! | "Multi-column"    | `mode: Jit, shreds: MultiColumnShreds`            |
//! | Join Early/Int./Late | `join_placement`                               |
//! | "Col. 7" variants | `posmap_policy: EveryK { stride: 7 }`             |
//!
//! ## Sessions over one shared engine
//!
//! The engine is **long-lived and shared**: all adaptive state lives in an
//! internal `Arc`'d core behind the concurrent cache layer of
//! [`crate::shared`] (read-locked lookups, merge-on-publish writes), and
//! parallel queries run on one engine-global worker pool with per-query
//! admission and fair round-robin morsel scheduling
//! ([`raw_exec::GlobalPool`]). [`RawEngine::session`] hands out cheap
//! [`Session`] handles — one per client/connection — that answer queries
//! concurrently over the same caches, so one session's positional maps,
//! shreds, statistics, and warm buffers speed up every other session's
//! queries. Every `RawEngine` method is `&self`; the engine itself behaves
//! exactly like a session that also owns administrative hooks (cache drops,
//! config swaps). The full protocol — snapshot isolation per query,
//! merge-on-publish side effects, the admission fairness invariant, and the
//! lock inventory/ordering — is specified in `CONCURRENCY.md` § "Sessions
//! and the shared cache layer".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use raw_access::template_cache::CacheStats;
use raw_access::TemplateCache;
use raw_columnar::batch::TableTag;
use raw_columnar::ops::Operator;
use raw_columnar::profile::{PhaseProfile, ScanMetrics};
use raw_columnar::{Batch, SparseColumn, Value};
use raw_exec::GlobalPool;
use raw_formats::file_buffer::FileBufferPool;
use raw_posmap::{PositionalMap, TrackingPolicy};
use raw_trace::{EngineMetrics, SessionMetrics, SessionQueryCharge};

use crate::catalog::{Catalog, TableDef};
use crate::cost::CostModel;
use crate::error::{EngineError, Result};
use crate::physical::{self, Harvests, PlannerCtx};
use crate::plan::{resolve, ColRef, ResolvedQuery};
use crate::shared::{PosmapRegistry, SharedRootFiles, SharedStats, SharedTables};
use crate::shreds::{ShredPool, ShredPoolStats};
use crate::sql;
use crate::stats::{QueryStats, QueryTrace};
use crate::table_stats::StatsRegistry;

/// Which access-path family the engine uses (the systems of §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Load raw files fully into native columnar tables, then query those.
    Dbms,
    /// Re-parse and convert the whole file on every query.
    ExternalTables,
    /// General-purpose in-situ scans (the NoDB baseline).
    InSitu,
    /// JIT-specialized access paths (the paper's contribution).
    Jit,
}

/// How eagerly columns are materialized (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShredStrategy {
    /// Read every required column in the bottom scan.
    FullColumns,
    /// Push scans up: read non-filter columns only for surviving rows.
    ColumnShreds,
    /// Like shreds, but speculatively fetch co-located columns in one pass
    /// (§5.3.1).
    MultiColumnShreds,
    /// Let the cost model pick per query, using histograms harvested from
    /// earlier queries (the paper's §8 future-work optimizer integration;
    /// see [`crate::cost`]). Requires [`AccessMode::Jit`]; other modes fall
    /// back to full columns.
    Adaptive,
}

/// Where a join's projected columns are materialized (§5.3.2, Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPlacement {
    /// In the bottom scans (full columns).
    Early,
    /// After the owning side's filters, before the join.
    Intermediate,
    /// Above the join, for qualifying rows only.
    Late,
    /// Let the cost model pick per side and per query: the pipelined side
    /// keeps row order (Fig. 11) while the breaking side pays shuffled
    /// accesses (Fig. 12), so the right point depends on selectivity.
    Adaptive,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Access-path family.
    pub mode: AccessMode,
    /// Column materialization strategy.
    pub shreds: ShredStrategy,
    /// Join projected-column placement.
    pub join_placement: JoinPlacement,
    /// Positional-map tracking policy for text formats.
    pub posmap_policy: TrackingPolicy,
    /// Rows per batch.
    pub batch_size: usize,
    /// Shred-pool budget in bytes (`0` = unlimited; env
    /// `RAW_SHRED_POOL_BYTES`). Fixed at engine construction, matching the
    /// file pool's budget semantics.
    pub shred_pool_bytes: usize,
    /// Whether scans/fetches populate the shred pool as a side effect.
    pub cache_shreds: bool,
    /// Extra latency added to every template-cache miss, modeling the
    /// paper's external C++ compiler (~2 s at paper scale). Zero by default.
    pub simulated_compile_latency: Duration,
    /// The cost model consulted by `Adaptive` strategies/placements.
    pub cost_model: CostModel,
    /// Worker threads for morsel-parallel raw scans (the `raw-exec`
    /// subsystem). Defaults to the machine's available cores. The planner
    /// splits eligible queries into one pipeline per morsel at `2` or more
    /// — anything driven by a CSV, fbin, rootsim-event, ibin (page-aligned
    /// morsels, per-morsel zone-index pruning), or rootsim-collection
    /// (item-sized event-range morsels) scan in in-situ or JIT mode,
    /// including joins (shared build-side hash table, per-morsel probes)
    /// and grouped aggregation (per-morsel partial states merged in morsel
    /// order). At `1`, and for everything else, it plans one whole-file
    /// pipeline, which runs on the calling thread without a worker pool.
    /// Morsel plans from every session share one engine-global worker pool
    /// of this many threads (fair round-robin morsel scheduling across
    /// queries).
    pub parallelism: usize,
    /// Maximum queries the global worker pool executes concurrently (`0` =
    /// unlimited; env `RAW_ADMISSION_QUERIES`). Excess parallel queries
    /// queue FIFO at the pool's admission door; an admitted query always
    /// runs to completion. Admission is per query, never per morsel, so a
    /// capped pool cannot deadlock a half-dispatched query.
    pub admission_queries: usize,
    /// Target bytes per parallel morsel. The morsel grid is derived from
    /// the file size and this knob only — never from `parallelism` — so
    /// results are identical for any worker count >= 2 (integer aggregates
    /// are additionally bit-for-bit serial-identical; float SUM/AVG can
    /// differ from serial in final-bit rounding since per-morsel partial
    /// sums reassociate the summation).
    pub morsel_bytes: usize,
    /// Chunk size for the overlapped cold-read path, in bytes (default
    /// 4 MiB; env `RAW_READ_CHUNK_BYTES`). On cold parallel runs over flat
    /// files, a dedicated reader thread fills the buffer in chunks of this
    /// size and morsels dispatch as soon as their byte ranges are resident,
    /// overlapping disk I/O with scanning. `0` disables streaming: cold
    /// reads block for the whole file before any worker starts (the
    /// pre-overlap behavior, and the baseline the `cold_equivalence` suite
    /// compares against). Results and I/O counters are identical either
    /// way; only the overlap changes.
    pub read_chunk_bytes: usize,
    /// Skew-resistance grid refinement: multiply the natural morsel target
    /// by this factor (default `1` = off; env `RAW_SKEW_SPLIT`). A finer
    /// grid is the deterministic defense against long-tail morsels (an ibin
    /// morsel whose pages all survive pruning, a collection morsel of heavy
    /// events): smaller sub-morsels let the pool's dynamic claiming
    /// rebalance around the expensive region, and their results still merge
    /// in morsel order. The refined grid stays a pure function of
    /// `(file, morsel_bytes, skew_split)` — never the worker count or
    /// runtime timing — so every counter and cross-parallelism equivalence
    /// invariant holds at any setting. (Committed bench baselines pin their
    /// morsel counters at the default, which is why refinement is opt-in
    /// rather than always-on.)
    pub skew_split: usize,
    /// Uncompressed block size used when *writing* `.rzb` containers
    /// (default 256 KiB; env `RAW_RZB_BLOCK_BYTES`). Reading always honors
    /// the block size recorded in the file's header, so this knob never
    /// affects query results — only the granularity at which new containers
    /// compress and later decode in parallel.
    pub rzb_block_bytes: usize,
    /// Byte budget for the warm file-buffer pool (default 512 MiB; env
    /// `RAW_FILE_POOL_BYTES`; `0` = unlimited). When a cold read would push
    /// resident bytes past the budget, least-recently-used warm entries are
    /// evicted (never the entry being read) and counted in
    /// `file_pool_evictions`. Mirrors the shred pool's byte-budget design.
    pub file_pool_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: AccessMode::Jit,
            shreds: ShredStrategy::ColumnShreds,
            join_placement: JoinPlacement::Late,
            posmap_policy: TrackingPolicy::EveryK { stride: 10 },
            batch_size: raw_columnar::VECTOR_SIZE,
            shred_pool_bytes: 256 << 20,
            cache_shreds: true,
            simulated_compile_latency: Duration::ZERO,
            cost_model: CostModel::default(),
            parallelism: raw_exec::available_threads(),
            admission_queries: 0,
            morsel_bytes: 256 << 10,
            read_chunk_bytes: 4 << 20,
            skew_split: 1,
            rzb_block_bytes: 256 << 10,
            file_pool_bytes: 512 << 20,
        }
    }
}

impl EngineConfig {
    /// The default configuration with environment overrides applied:
    /// `RAW_PARALLELISM` (worker threads; `1` plans every query as one
    /// whole-file pipeline),
    /// `RAW_ADMISSION_QUERIES` (concurrent-query cap at the global pool's
    /// admission door; `0` = unlimited), `RAW_MORSEL_BYTES` (target bytes
    /// per morsel), `RAW_READ_CHUNK_BYTES` (cold-read streaming chunk; `0`
    /// disables streaming entirely), `RAW_SKEW_SPLIT` (morsel-grid
    /// refinement factor; `1` = natural grid), `RAW_RZB_BLOCK_BYTES`
    /// (uncompressed block size for newly written `.rzb` containers),
    /// `RAW_FILE_POOL_BYTES` (warm file-pool byte budget; `0` = unlimited),
    /// and `RAW_SHRED_POOL_BYTES` (shred-pool byte budget; `0` = unlimited,
    /// matching the file-pool semantics). Unset or unparsable variables
    /// leave the default untouched. Test suites build engines through this
    /// so CI can exercise the whole suite under a forced parallel (and
    /// forced tiny-chunk streaming) configuration.
    pub fn from_env() -> EngineConfig {
        fn env_usize(key: &str) -> Option<usize> {
            std::env::var(key).ok()?.trim().parse().ok()
        }
        let mut config = EngineConfig::default();
        if let Some(n) = env_usize("RAW_PARALLELISM") {
            config.parallelism = n.max(1);
        }
        if let Some(n) = env_usize("RAW_ADMISSION_QUERIES") {
            config.admission_queries = n; // 0 = unlimited
        }
        if let Some(n) = env_usize("RAW_MORSEL_BYTES") {
            config.morsel_bytes = n.max(1);
        }
        if let Some(n) = env_usize("RAW_READ_CHUNK_BYTES") {
            config.read_chunk_bytes = n; // 0 = streaming off
        }
        if let Some(n) = env_usize("RAW_SKEW_SPLIT") {
            config.skew_split = n.max(1);
        }
        if let Some(n) = env_usize("RAW_RZB_BLOCK_BYTES") {
            config.rzb_block_bytes = n.max(1);
        }
        if let Some(n) = env_usize("RAW_FILE_POOL_BYTES") {
            config.file_pool_bytes = n; // 0 = unlimited
        }
        if let Some(n) = env_usize("RAW_SHRED_POOL_BYTES") {
            config.shred_pool_bytes = n; // 0 = unlimited
        }
        config
    }
}

/// A query answer: result rows plus statistics.
#[derive(Debug)]
pub struct QueryResult {
    /// Result rows (concatenated into one batch).
    pub batch: Batch,
    /// Output column names.
    pub column_names: Vec<String>,
    /// Measurements.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Scalar cell accessor.
    pub fn value(&self, row: usize, col: usize) -> Result<Value> {
        Ok(self.batch.value(row, col)?)
    }

    /// The single value of a one-row, one-column result (typical aggregate).
    pub fn scalar(&self) -> Result<Value> {
        if self.batch.rows() != 1 || self.batch.num_columns() < 1 {
            return Err(EngineError::planning(format!(
                "scalar() on a {}x{} result",
                self.batch.rows(),
                self.batch.num_columns()
            )));
        }
        self.value(0, 0)
    }
}

/// A scan built by [`RawEngine::plan_scan`] for hand-assembled plans (the
/// Higgs pipeline): the operator plus its pending side effects.
pub struct PlannedScan {
    /// The scan operator (pool/record/harvest wrappers included).
    pub op: Box<dyn Operator>,
    /// Side effects to absorb after the custom plan runs.
    pub harvests: Harvests,
}

/// The immutable world one query plans and executes against: owned copies
/// of the catalog and configuration plus `Arc` handles to every positional
/// map, all taken at query start. Concurrent publishes from other sessions
/// go through copy-on-write ([`crate::shared`]), so nothing in a snapshot
/// ever changes underneath a running query.
struct QuerySnapshot {
    catalog: Catalog,
    config: EngineConfig,
    posmaps: HashMap<String, Arc<PositionalMap>>,
}

/// One query's counter window: the wall start and the shared counters read
/// before planning, closed by `EngineShared::finish_query`.
struct QueryWindow {
    started: Instant,
    io_bytes: u64,
    templates: CacheStats,
    shreds: ShredPoolStats,
}

/// What one query's execution produced, before its window closes.
struct QueryRun {
    batch: Batch,
    column_names: Vec<String>,
    /// Wall time from window open to the merged result batch.
    wall: Duration,
    scan: PhaseProfile,
    metrics: ScanMetrics,
    posmaps_built: usize,
    shreds_recorded: usize,
    explain: Vec<String>,
    morsels: usize,
    /// The per-morsel trace; `Some` exactly for morsel plans.
    trace: Option<QueryTrace>,
}

/// The long-lived shared core: one instance per engine, behind `Arc`,
/// referenced by the owning [`RawEngine`] and every [`Session`]. All
/// adaptive state sits behind the concurrent wrappers of [`crate::shared`];
/// the query path takes a [`QuerySnapshot`], plans against it, executes
/// (a whole-file pipeline on the calling thread, a morsel plan on the
/// global worker pool), and publishes side effects back through
/// merge-on-publish.
struct EngineShared {
    catalog: RwLock<Catalog>,
    config: RwLock<EngineConfig>,
    files: Arc<FileBufferPool>,
    templates: TemplateCache,
    posmaps: PosmapRegistry,
    pool: ShredPool,
    loaded: SharedTables,
    root_files: SharedRootFiles,
    stats: SharedStats,
    metrics: Arc<EngineMetrics>,
    /// The engine-global worker pool, created lazily on the first parallel
    /// query and rebuilt if `parallelism`/`admission_queries` change.
    workers: Mutex<Option<Arc<GlobalPool>>>,
    next_session: AtomicU64,
}

impl EngineShared {
    fn snapshot(&self) -> QuerySnapshot {
        QuerySnapshot {
            catalog: self.catalog.read().clone(),
            config: self.config.read().clone(),
            posmaps: self.posmaps.snapshot(),
        }
    }

    fn planner_ctx<'a>(&'a self, snap: &'a QuerySnapshot) -> PlannerCtx<'a> {
        PlannerCtx {
            catalog: &snap.catalog,
            config: &snap.config,
            files: &self.files,
            templates: &self.templates,
            posmaps: &snap.posmaps,
            pool: &self.pool,
            loaded: &self.loaded,
            root_files: &self.root_files,
            stats: &self.stats,
        }
    }

    /// The global worker pool sized to the current config — created on
    /// first use, reused across queries and sessions, and replaced (old
    /// workers drain and join once their last in-flight query releases its
    /// handle) when the thread count or admission cap changes.
    fn worker_pool(&self, threads: usize, max_active: usize) -> Arc<GlobalPool> {
        let mut guard = self.workers.lock();
        if let Some(pool) = guard.as_ref() {
            if pool.threads() == threads && pool.max_active() == max_active {
                return Arc::clone(pool);
            }
        }
        let pool = Arc::new(GlobalPool::new(threads, max_active));
        *guard = Some(Arc::clone(&pool));
        pool
    }

    fn query(&self, sql_text: &str, session: &SessionMetrics) -> Result<QueryResult> {
        let stmt = sql::parse(sql_text)?;
        let snap = self.snapshot();
        let resolved = resolve(&stmt, &snap.catalog)?;
        self.execute_with(&snap, &resolved, session)
    }

    fn explain(&self, sql_text: &str) -> Result<Vec<String>> {
        let stmt = sql::parse(sql_text)?;
        let snap = self.snapshot();
        let resolved = resolve(&stmt, &snap.catalog)?;
        let ctx = self.planner_ctx(&snap);
        let plan = physical::plan(&ctx, &resolved)?;
        Ok(plan.explain)
    }

    fn execute(&self, resolved: &ResolvedQuery, session: &SessionMetrics) -> Result<QueryResult> {
        let snap = self.snapshot();
        self.execute_with(&snap, resolved, session)
    }

    fn execute_with(
        &self,
        snap: &QuerySnapshot,
        resolved: &ResolvedQuery,
        session: &SessionMetrics,
    ) -> Result<QueryResult> {
        let window = self.open_window();
        let plan = physical::plan(&self.planner_ctx(snap), resolved)?;
        let run = self.run(plan, &snap.config, window.started)?;
        Ok(self.finish_query(window, run, session))
    }

    /// Run a plan and absorb its side effects. A one-pipeline plan drains on
    /// the calling thread, creating and touching no worker pool; a morsel
    /// plan runs on the engine-global worker pool. Both fold and merge
    /// through the same `raw_exec` drain and merge steps.
    fn run(
        &self,
        plan: physical::PhysicalPlan,
        config: &EngineConfig,
        started: Instant,
    ) -> Result<QueryRun> {
        let physical::PhysicalPlan {
            mut pipelines,
            merge,
            harvests,
            build_profile,
            build_metrics,
            gates,
            explain,
            output_names,
            morsel_meta,
        } = plan;

        let (batches, mut scan, mut metrics, morsels, trace) = if pipelines.len() == 1 {
            let mut root = pipelines.pop().expect("one pipeline");
            let (out, _) = raw_exec::drain_pipeline(root.as_mut(), &merge)?;
            let (scan, metrics) = (root.scan_profile(), root.scan_metrics());
            drop(root); // release Arc sinks so side effects unwrap cheaply
            (raw_exec::finish_merge(&merge, vec![out])?, scan, metrics, 0, None)
        } else {
            // Availability-gated dispatch: on cold streamed runs each
            // morsel waits for its byte range (not the whole file) before
            // draining. On warm (ungated) runs the executor claims
            // predicted-heavy morsels first, using the plan-time byte/row
            // span as the cost hint, so a long-tail morsel cannot land last
            // when no rebalancing is possible. Results, counters, and traces
            // are claim-order invariant: the pool's admission and fair
            // scheduling only move *when* a morsel runs, never what it
            // produces.
            self.metrics.morsels(pipelines.len() as u64);
            let weights: Vec<u64> = morsel_meta
                .iter()
                .map(|m| ((m.byte_end - m.byte_start) as u64).max(m.end_row - m.first_row).max(1))
                .collect();
            let pool = self.worker_pool(config.parallelism, config.admission_queries);
            let mut outcome =
                match raw_exec::execute_morsels(&pool, pipelines, gates, &merge, Some(&weights)) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        self.metrics.morsel_failed();
                        return Err(e.into());
                    }
                };
            // Zip the runtime morsel traces (worker, gate-wait, drain time)
            // with the planner's morsel metadata into the query's trace.
            let trace = QueryTrace {
                workers: config.parallelism,
                morsels: std::mem::take(&mut outcome.traces),
                meta: morsel_meta,
            };
            (outcome.batches, outcome.profile, outcome.metrics, outcome.morsels, Some(trace))
        };
        // Scan work performed at plan time (a join's build-side drain)
        // belongs to this query's accounting too.
        scan.merge(&build_profile);
        metrics.merge(&build_metrics);
        let batch = Batch::concat(&batches)?;
        let wall = started.elapsed();

        let (posmaps_built, shreds_recorded) = self.absorb_harvests(harvests)?;
        Ok(QueryRun {
            batch,
            column_names: output_names,
            wall,
            scan,
            metrics,
            posmaps_built,
            shreds_recorded,
            explain,
            morsels,
            trace,
        })
    }

    /// Open one query's counter window over the shared counters.
    fn open_window(&self) -> QueryWindow {
        QueryWindow {
            started: Instant::now(),
            io_bytes: self.files.bytes_from_disk(),
            templates: self.templates.stats(),
            shreds: self.pool.stats(),
        }
    }

    /// The one query epilogue: close `window`, build the query's
    /// [`QueryStats`] and charge it. A run with a trace is a parallel run.
    fn finish_query(
        &self,
        window: QueryWindow,
        run: QueryRun,
        session: &SessionMetrics,
    ) -> QueryResult {
        let templates = self.templates.stats();
        let shreds = self.pool.stats();
        let stats = QueryStats {
            wall: run.wall,
            scan: run.scan,
            metrics: run.metrics,
            io_bytes: self.files.bytes_from_disk().saturating_sub(window.io_bytes),
            compile_time: templates.compile_time.saturating_sub(window.templates.compile_time),
            template_hits: templates.hits.saturating_sub(window.templates.hits),
            template_misses: templates.misses.saturating_sub(window.templates.misses),
            // Saturating: these are windows over *shared* counters, and a
            // racing session's `get_full` converts a hit into a miss with a
            // decrement — a plain subtraction could underflow. Attribution
            // is approximate under concurrent load, exact when alone.
            shred_hits: shreds.hits.saturating_sub(window.shreds.hits),
            shred_misses: shreds.misses.saturating_sub(window.shreds.misses),
            posmaps_built: run.posmaps_built,
            shreds_recorded: run.shreds_recorded,
            rows_out: run.batch.rows() as u64,
            workers: run.trace.as_ref().map_or(1, |t| t.workers),
            morsels: run.morsels,
            gate_wait: run.trace.as_ref().map_or(Duration::ZERO, QueryTrace::total_gate_wait),
            explain: run.explain,
            trace: run.trace,
        };
        self.charge_query(&stats, /* parallel = */ stats.trace.is_some(), session);
        QueryResult { batch: run.batch, column_names: run.column_names, stats }
    }

    /// Mirror a finished query's cache traffic into the engine-lifetime
    /// registry and charge the owning session. (Per-query deltas are read
    /// from shared cache counters; under concurrent load a delta may
    /// include a neighbor query's traffic — attribution is approximate
    /// while racing, exact when a session runs alone.)
    fn charge_query(&self, stats: &QueryStats, parallel: bool, session: &SessionMetrics) {
        self.metrics.query(parallel);
        self.metrics.template_traffic(stats.template_hits, stats.template_misses);
        self.metrics.shred_traffic(stats.shred_hits, stats.shred_misses);
        session.charge(&SessionQueryCharge {
            parallel,
            rows_out: stats.rows_out,
            io_bytes: stats.io_bytes,
            template_hits: stats.template_hits,
            template_misses: stats.template_misses,
            shred_hits: stats.shred_hits,
            shred_misses: stats.shred_misses,
            morsels: stats.morsels as u64,
            wall: stats.wall,
            gate_wait: stats.gate_wait,
        });
    }

    fn synthetic_query(
        &self,
        catalog: &Catalog,
        table: &str,
        cols: &[&str],
    ) -> Result<ResolvedQuery> {
        let def = catalog.get(table)?;
        let outputs = cols
            .iter()
            .map(|c| {
                def.schema
                    .field_by_name(c)
                    .map(|(i, f)| crate::plan::ResolvedOutput {
                        agg: None,
                        col: ColRef {
                            table: 0,
                            name: (*c).to_owned(),
                            schema_idx: i,
                            data_type: f.data_type,
                        },
                    })
                    .ok_or_else(|| EngineError::resolution(format!("no column {c} in {table}")))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ResolvedQuery {
            tables: vec![table.to_owned()],
            join: None,
            filters: Vec::new(),
            outputs,
            group_by: None,
        })
    }

    /// Publish one query's side effects — the only publish path, whatever
    /// the plan's pipeline count. Returns (posmaps built, shreds recorded).
    fn absorb_harvests(&self, harvests: Harvests) -> Result<(usize, usize)> {
        // A table's posmap sinks are row-consecutive fragments of its
        // file-wide map (one per morsel, or the whole map from a whole-file
        // scan): append them in order, then publish each table once.
        let mut maps: Vec<(String, PositionalMap)> = Vec::new();
        for (table, sink) in harvests.posmaps {
            let Some(fragment) = sink.lock().take() else { continue };
            if fragment.is_empty() {
                continue;
            }
            match maps.iter_mut().find(|(t, _)| *t == table) {
                Some((_, map)) => map.append(&fragment).map_err(|e| {
                    EngineError::planning(format!("positional map fragment append: {e}"))
                })?,
                None => maps.push((table, fragment)),
            }
        }
        let posmaps_built = maps.len();
        for (table, map) in maps {
            self.stats.record_rows(&table, map.rows());
            self.posmaps.merge_publish(&table, map)?;
        }
        let mut shreds_recorded = 0;
        for (table, column, sink) in harvests.shreds {
            let mut shred = match Arc::try_unwrap(sink) {
                Ok(m) => m.into_inner(),
                Err(arc) => arc.lock().clone(),
            };
            if shred.loaded_count() == 0 {
                continue;
            }
            // A scan that pruned or filtered rows records a *prefix* of the
            // table; grow the shred to the table's true row count (when
            // known) so it cannot masquerade as a full column.
            if let Some(rows) = self.stats.table_rows(&table) {
                if (shred.len() as u64) < rows {
                    shred.grow_to(rows as usize);
                }
            }
            shreds_recorded += 1;
            // A fully-materialized column is a free histogram sample — the
            // statistics side of "leverage information available at query
            // time".
            if shred.is_full() {
                self.stats.record_column(&table, &column, shred.dense());
            }
            self.pool.insert_merge(&table, &column, shred)?;
        }
        Ok((posmaps_built, shreds_recorded))
    }
}

/// The RAW query engine: a thin owner handle over the shared core. Every
/// method is `&self`; clients that want concurrent query streams take
/// [`RawEngine::session`] handles (the engine's own query methods charge a
/// built-in "driver" session, id 0).
pub struct RawEngine {
    shared: Arc<EngineShared>,
    driver: Arc<SessionMetrics>,
}

/// A cheap per-client handle over a shared engine: an id, a per-session
/// metrics registry, and an `Arc` to the shared core. Sessions are created
/// with [`RawEngine::session`], are `Send` (one per connection/thread), and
/// answer queries concurrently — all cache side effects (positional maps,
/// shreds, statistics, warm buffers, compiled templates) publish into the
/// shared layer where every other session sees them.
#[derive(Clone)]
pub struct Session {
    shared: Arc<EngineShared>,
    id: u64,
    metrics: Arc<SessionMetrics>,
}

impl RawEngine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> RawEngine {
        let templates = if config.simulated_compile_latency.is_zero() {
            TemplateCache::new()
        } else {
            TemplateCache::with_simulated_compile_latency(config.simulated_compile_latency)
        };
        let metrics = Arc::new(EngineMetrics::new());
        let files = Arc::new(FileBufferPool::with_metrics(Arc::clone(&metrics)));
        files.set_budget_bytes(if config.file_pool_bytes == 0 {
            u64::MAX
        } else {
            config.file_pool_bytes as u64
        });
        let shared = Arc::new(EngineShared {
            catalog: RwLock::new(Catalog::new()),
            pool: ShredPool::new(if config.shred_pool_bytes == 0 {
                usize::MAX
            } else {
                config.shred_pool_bytes
            }),
            config: RwLock::new(config),
            files,
            templates,
            posmaps: PosmapRegistry::default(),
            loaded: SharedTables::default(),
            root_files: SharedRootFiles::default(),
            stats: SharedStats::default(),
            metrics,
            workers: Mutex::new(None),
            next_session: AtomicU64::new(1),
        });
        RawEngine { shared, driver: Arc::new(SessionMetrics::new()) }
    }

    /// Open a new session over this engine. Sessions share every cache with
    /// the engine and each other; each carries its own metrics registry.
    pub fn session(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
            metrics: Arc::new(SessionMetrics::new()),
        }
    }

    /// Register a table over a raw file (visible to every session).
    pub fn register_table(&self, def: TableDef) {
        self.shared.catalog.write().register(def);
    }

    /// An owned snapshot of the catalog.
    pub fn catalog(&self) -> Catalog {
        self.shared.catalog.read().clone()
    }

    /// The file-buffer pool — experiments use it to insert virtual files and
    /// to flip between cold and warm runs.
    pub fn files(&self) -> &FileBufferPool {
        &self.shared.files
    }

    /// The engine-lifetime metrics registry: monotonic atomic counters for
    /// file-pool traffic, chunk-stream completions/waits/failures, cache
    /// hits, morsel dispatch, and the resident-buffer gauge. Never reset by
    /// a query; see `raw_trace::metrics` for the charge contract.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.shared.metrics
    }

    /// The driver session's metrics (queries issued directly on the engine
    /// handle rather than through a [`Session`]).
    pub fn driver_metrics(&self) -> &Arc<SessionMetrics> {
        &self.driver
    }

    /// An owned snapshot of the current configuration.
    pub fn config(&self) -> EngineConfig {
        self.shared.config.read().clone()
    }

    /// Replace the configuration (takes effect on the next query from any
    /// session; a changed `parallelism`/`admission_queries` rebuilds the
    /// global worker pool on that query).
    pub fn set_config(&self, config: EngineConfig) {
        *self.shared.config.write() = config;
    }

    /// The positional map known for `table`, if any (an owned handle; a
    /// later publish copy-on-writes and never mutates what this returned).
    pub fn posmap(&self, table: &str) -> Option<Arc<PositionalMap>> {
        self.shared.posmaps.get(table)
    }

    /// Shred-pool statistics.
    pub fn shred_pool_stats(&self) -> crate::shreds::ShredPoolStats {
        self.shared.pool.stats()
    }

    /// The pooled shred for `column` of `table`, if any; an inspection that
    /// counts no pool hit or miss.
    pub fn shred(&self, table: &str, column: &str) -> Option<Arc<SparseColumn>> {
        self.shared.pool.peek(table, column)
    }

    /// An owned snapshot of the table statistics (histograms and row
    /// counts) harvested from earlier queries — the input to `Adaptive`
    /// planning decisions.
    pub fn table_stats(&self) -> StatsRegistry {
        self.shared.stats.snapshot()
    }

    /// Drop compiled access paths only (ablation hook: forces "code
    /// generation" to rerun on the next query while keeping positional
    /// maps, shreds, and statistics).
    pub fn clear_template_cache(&self) {
        self.shared.templates.clear();
    }

    /// Drop file buffers (and parsed rootsim handles): the next query runs
    /// cold with respect to I/O, but adaptive state (positional maps,
    /// shreds, templates) survives — the engine forgets *data*, not
    /// *structure*.
    pub fn drop_file_caches(&self) {
        self.shared.files.evict_all();
        self.shared.root_files.clear();
    }

    /// Forget all adaptive state: positional maps, shreds, templates,
    /// harvested statistics, and DBMS-loaded tables. Combined with
    /// [`RawEngine::drop_file_caches`] this reproduces a fresh engine on
    /// the same catalog.
    pub fn reset_adaptive_state(&self) {
        self.shared.posmaps.clear();
        self.shared.pool.clear();
        self.shared.templates.clear();
        self.shared.loaded.clear();
        self.shared.stats.clear();
    }

    /// Answer a SQL query (charged to the driver session).
    pub fn query(&self, sql_text: &str) -> Result<QueryResult> {
        self.shared.query(sql_text, &self.driver)
    }

    /// Plan (without executing) and return the plan description: the plan
    /// [`RawEngine::query`] would run at the configured parallelism, morsel
    /// grid included. Planning is not free of I/O: a join's build side is
    /// drained at plan time (and DBMS-mode planning loads whole tables), so
    /// explaining such a query reads its files.
    pub fn explain(&self, sql_text: &str) -> Result<Vec<String>> {
        self.shared.explain(sql_text)
    }

    /// EXPLAIN ANALYZE: execute the query and render its plan annotated
    /// with measured actuals — per-operator rows/time/prune counts, the
    /// parallel run shape, the totals line, and (for parallel runs) the
    /// per-morsel worker/gate-wait table. The result rows are discarded;
    /// callers that want both run [`RawEngine::query`] and render
    /// `stats.explain_analyze(..)` themselves.
    pub fn explain_analyze(&self, sql_text: &str) -> Result<String> {
        let result = self.query(sql_text)?;
        Ok(result.stats.explain_analyze(true))
    }

    /// Execute a resolved query (charged to the driver session).
    pub fn execute(&self, resolved: &ResolvedQuery) -> Result<QueryResult> {
        self.shared.execute(resolved, &self.driver)
    }

    /// Build a bottom scan over a registered table for a hand-assembled plan
    /// (respects mode, shred pool, recording, positional maps). `cols` are
    /// column names; `tag` labels provenance.
    pub fn plan_scan(&self, table: &str, cols: &[&str], tag: u32) -> Result<PlannedScan> {
        let snap = self.shared.snapshot();
        let resolved = self.shared.synthetic_query(&snap.catalog, table, cols)?;
        let col_refs: Vec<ColRef> = resolved.outputs.iter().map(|o| o.col.clone()).collect();
        let ctx = self.shared.planner_ctx(&snap);
        let (op, harvests) = physical::standalone_scan(&ctx, &resolved, &col_refs, TableTag(tag))?;
        Ok(PlannedScan { op, harvests })
    }

    /// Attach `cols` of `table` above an existing operator as a late scan
    /// (pool-backed when shreds exist; records fetched values). Batches
    /// flowing through `op` must carry provenance tagged `tag` for this
    /// table. For CSV tables a positional map must already exist.
    pub fn plan_attach(
        &self,
        op: Box<dyn Operator>,
        table: &str,
        cols: &[&str],
        tag: u32,
    ) -> Result<PlannedScan> {
        let snap = self.shared.snapshot();
        let resolved = self.shared.synthetic_query(&snap.catalog, table, cols)?;
        let col_refs: Vec<ColRef> = resolved.outputs.iter().map(|o| o.col.clone()).collect();
        let ctx = self.shared.planner_ctx(&snap);
        let (op, harvests) = physical::standalone_attach(
            &ctx,
            &resolved,
            op,
            &col_refs,
            /* multi = */ col_refs.len() > 1,
            TableTag(tag),
        )?;
        Ok(PlannedScan { op, harvests })
    }

    /// Run a hand-assembled operator tree under engine accounting and absorb
    /// the given side effects afterwards.
    pub fn run_custom(
        &self,
        root: Box<dyn Operator>,
        harvests: Harvests,
        column_names: Vec<String>,
    ) -> Result<QueryResult> {
        let window = self.shared.open_window();
        let plan = physical::PhysicalPlan {
            pipelines: vec![root],
            merge: raw_exec::MergePlan::Concat,
            harvests,
            build_profile: PhaseProfile::default(),
            build_metrics: ScanMetrics::default(),
            gates: Vec::new(),
            explain: Vec::new(),
            output_names: column_names,
            morsel_meta: Vec::new(),
        };
        let config = self.config();
        let run = self.shared.run(plan, &config, window.started)?;
        Ok(self.shared.finish_query(window, run, &self.driver))
    }

    /// Merge several harvest sets (custom plans with many scans).
    pub fn absorb_side_effects(&self, harvests: Harvests) -> Result<()> {
        self.shared.absorb_harvests(harvests)?;
        Ok(())
    }
}

impl Session {
    /// This session's id (unique within its engine; 0 is the engine's own
    /// driver session).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This session's metrics registry.
    pub fn metrics(&self) -> &Arc<SessionMetrics> {
        &self.metrics
    }

    /// Answer a SQL query over the shared engine, charged to this session.
    pub fn query(&self, sql_text: &str) -> Result<QueryResult> {
        self.shared.query(sql_text, &self.metrics)
    }

    /// Execute a resolved query, charged to this session.
    pub fn execute(&self, resolved: &ResolvedQuery) -> Result<QueryResult> {
        self.shared.execute(resolved, &self.metrics)
    }

    /// Plan (without executing) and return the plan description (see
    /// [`RawEngine::explain`]: a join's build side is drained at plan time).
    pub fn explain(&self, sql_text: &str) -> Result<Vec<String>> {
        self.shared.explain(sql_text)
    }

    /// EXPLAIN ANALYZE through this session (see
    /// [`RawEngine::explain_analyze`]).
    pub fn explain_analyze(&self, sql_text: &str) -> Result<String> {
        let result = self.query(sql_text)?;
        Ok(result.stats.explain_analyze(true))
    }

    /// Register a table over a raw file (visible to every session).
    pub fn register_table(&self, def: TableDef) {
        self.shared.catalog.write().register(def);
    }

    /// An owned snapshot of the catalog.
    pub fn catalog(&self) -> Catalog {
        self.shared.catalog.read().clone()
    }

    /// The positional map known for `table`, if any.
    pub fn posmap(&self, table: &str) -> Option<Arc<PositionalMap>> {
        self.shared.posmaps.get(table)
    }

    /// Shred-pool statistics for the shared pool.
    pub fn shred_pool_stats(&self) -> crate::shreds::ShredPoolStats {
        self.shared.pool.stats()
    }
}

/// Convenience: the `TableTag` the engine assigns to table index `i` in SQL
/// plans (custom plans may use any tag).
pub fn table_tag(i: usize) -> TableTag {
    TableTag(i as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableSource;
    use raw_columnar::{DataType, Schema};
    use raw_formats::datagen;

    /// A torn snapshot: another session publishes the table's positional
    /// map and a partial, filter-selected shred after this query took its
    /// snapshot. Planned against that snapshot (no positional map), a late
    /// fetch of the shredded column would have no raw fallback for the rows
    /// the shred lacks, so the planner must read the column in the scan.
    #[test]
    fn partial_shred_published_after_snapshot_is_not_fetched_late() {
        let dir = std::env::temp_dir().join(format!("raw_torn_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        raw_formats::csv::writer::write_file(&datagen::int_table(97, 2_000, 6), &path).unwrap();
        let config = EngineConfig {
            mode: AccessMode::Jit,
            shreds: ShredStrategy::ColumnShreds,
            parallelism: 1,
            ..EngineConfig::default()
        };
        let engine = RawEngine::new(config.clone());
        let fresh = RawEngine::new(config);
        for e in [&engine, &fresh] {
            e.register_table(TableDef {
                name: "t".into(),
                schema: Schema::uniform(6, DataType::Int64),
                source: TableSource::Csv { path: path.clone() },
            });
        }
        let sql = |out: &str, filter: &str, sel: f64| {
            let x = datagen::literal_for_selectivity(sel);
            format!("SELECT MAX({out}) FROM t WHERE {filter} < {x}")
        };

        // 1. The snapshot: no positional map yet.
        let snap = engine.shared.snapshot();
        assert!(snap.posmaps.is_empty());

        // 2. Another session publishes a positional map, then a partial
        //    shred of col3 selected by a filter on col2.
        let other = engine.session();
        other.query(&sql("col1", "col1", 1.0)).unwrap();
        other.query(&sql("col3", "col2", 0.2)).unwrap();
        assert!(engine.shared.posmaps.get("t").is_some());
        let shred = engine.shared.pool.get("t", "col3").expect("col3 shred published");
        assert!(!shred.is_full(), "the published shred must be partial");

        // 3. Plan and execute against the first snapshot, selecting other rows.
        let torn_sql = sql("col3", "col4", 0.5);
        let resolved = resolve(&sql::parse(&torn_sql).unwrap(), &snap.catalog).unwrap();
        let torn = engine.shared.execute_with(&snap, &resolved, &SessionMetrics::new()).unwrap();
        assert_eq!(torn.batch, fresh.query(&torn_sql).unwrap().batch);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A one-pipeline plan drains on the calling thread: at parallelism 1
    /// no query shape creates the worker pool, and each reports the
    /// whole-file run shape. The same queries at parallelism 2 do split.
    #[test]
    fn one_pipeline_plans_create_no_worker_pool() {
        let engine = RawEngine::new(EngineConfig {
            parallelism: 1,
            morsel_bytes: 256,
            cache_shreds: false, // a fully pooled table is never split
            ..EngineConfig::default()
        });
        for (name, seed) in [("t", 3), ("d", 5)] {
            let path = format!("/virtual/{name}.csv");
            let mut bytes = Vec::new();
            raw_formats::csv::writer::write_into(&datagen::int_table(seed, 400, 3), &mut bytes)
                .unwrap();
            engine.files().insert(path.clone(), bytes);
            engine.register_table(TableDef {
                name: name.into(),
                schema: Schema::uniform(3, DataType::Int64),
                source: TableSource::Csv { path: path.into() },
            });
        }
        let x = datagen::literal_for_selectivity(0.5);
        let queries = [
            format!("SELECT col2 FROM t WHERE col1 < {x}"),
            format!("SELECT MAX(col2), COUNT(col3) FROM t WHERE col1 < {x}"),
            format!("SELECT col1, COUNT(col2) FROM t WHERE col3 < {x} GROUP BY col1"),
            "SELECT MAX(d.col2) FROM t JOIN d ON t.col1 = d.col1".to_owned(),
        ];
        for sql in &queries {
            let stats = engine.query(sql).unwrap().stats;
            assert_eq!((stats.morsels, stats.workers), (0, 1), "{sql}");
            assert!(stats.trace.is_none(), "{sql}");
        }
        assert!(engine.shared.workers.lock().is_none(), "parallelism 1 created a worker pool");

        engine.set_config(EngineConfig { parallelism: 2, ..engine.config() });
        assert!(engine.query(&queries[0]).unwrap().stats.morsels >= 2);
        assert!(engine.shared.workers.lock().is_some());
    }
}
