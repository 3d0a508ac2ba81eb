//! Morsel-parallel physical planning.
//!
//! [`try_plan`] decides whether a resolved query is eligible for the
//! parallel path and, if so, runs four stages that share the serial
//! [`super::Planner`]'s machinery — the same access-path selection, shred
//! staging, cost-model consultation, and side-effect recording:
//!
//! 1. **eligibility** — which queries can be morsel-parallelized at all;
//! 2. **partition** — split the probe (driving) table into record-aligned
//!    morsels via `raw-exec`, choosing the probe dialect the scan will use;
//! 3. **per-morsel build** — one scan→filter→join→attach pipeline per
//!    morsel, each bounded to one [`ScanSegment`]. Joins build the
//!    build-side hash table **once** (serially, or from pooled shreds) and
//!    share it read-only across every per-morsel probe pipeline; all three
//!    `JoinPlacement` points are honored, with Late attaches running above
//!    the join per morsel;
//! 4. **merge resolution** — how per-morsel outputs combine: concatenation
//!    for selections, scalar partial-aggregate states for aggregates, and
//!    grouped partial hash-table states ([`MergePlan::Grouped`]) for
//!    `GROUP BY`, all merged deterministically in morsel order.
//!
//! Eligible today: queries over a CSV, fbin, rootsim-event, ibin, or
//! rootsim-collection driving table under the in-situ or JIT access modes —
//! including joins (any serially-scannable build side) and grouped
//! aggregation. Each format partitions on its native granularity (see
//! `raw_exec::morsel`): CSV on probed record boundaries, fbin/root-events
//! by row arithmetic, ibin on **page boundaries** (so per-morsel
//! zone-index pruning tiles the serial candidate set and its counters
//! exactly, and an all-pruned morsel is a no-op), and collections on
//! **event boundaries sized by the offsets table's item counts** (so
//! exploded item rows balance across morsels and concatenate in morsel
//! order). Everything else (DBMS/external modes, fully-shred-cached
//! driving tables) falls back to the serial plan.
//!
//! Side effects: the morsels record into the planner's one [`Harvests`],
//! exactly as a serial plan does. Every morsel stores its global row range
//! into the query's single shred sink per column, and the posmap fragments
//! stay in morsel order, so the engine publishes a parallel query through
//! the same `absorb_harvests` as a serial one.
//!
//! Determinism: the morsel grid is a function of the file and the
//! `morsel_bytes` / `skew_split` knobs only, never of the worker count, so
//! any `parallelism >= 2` produces identical results (and
//! `parallelism == 1` never enters this module at all — the serial path is
//! untouched). Skew resistance is deterministic by construction: the
//! `skew_split` knob refines the grid at *plan* time (finer sub-morsels the
//! pool can rebalance around a long tail), and the executor's heavy-first
//! claim ordering reorders only *dispatch*, never results or counters.

use std::sync::Arc;

use raw_exec::{
    partition_csv, partition_csv_quoted, partition_csv_quoted_streaming, partition_csv_streaming,
    partition_csv_with_map, partition_items, partition_pages, partition_rows, GroupedMerge,
    MergePlan, Morsel, MorselGate,
};

use raw_access::spec::ScanSegment;
use raw_columnar::batch::TableTag;
use raw_columnar::ops::{drain, HashJoinOp, JoinBuildSide, Operator, ProjectOp};
use raw_columnar::profile::{PhaseProfile, ScanMetrics};
use raw_columnar::{Batch, ColumnarError};
use raw_formats::fbin::FbinLayout;
use raw_formats::file_buffer::ColdRead;
use raw_formats::ibin::IbinLayout;

use crate::catalog::{TableDef, TableSource};
use crate::engine::{AccessMode, ShredStrategy};
use crate::error::{EngineError, Result};
use crate::plan::{ColRef, ResolvedQuery};
use crate::stats::MorselMeta;

use super::{slice_per_table, AttachWhen, Harvests, Planner, PlannerCtx};

/// Never split a file into more morsels than this: beyond a few hundred the
/// per-morsel planning and merge overhead buys no extra load balance.
const MAX_MORSELS: usize = 256;

/// Skew-resistance refinement of a format's natural morsel target: multiply
/// by the `skew_split` knob (1 = off), capped at [`MAX_MORSELS`]. Finer
/// sub-morsels let the pool's dynamic claiming rebalance around a long-tail
/// morsel, and their results merge in the same deterministic morsel order.
/// The refined target is a pure function of the natural target and the knob
/// — never the worker count or runtime timing — so the grid invariant
/// documented on this module is preserved at any setting.
fn refine_target(natural: usize, skew_split: usize) -> usize {
    natural.saturating_mul(skew_split.max(1)).clamp(1, MAX_MORSELS)
}

/// A ready-to-run parallel plan: one pipeline per morsel plus the merge
/// recipe and the side effects the engine absorbs after the barrier.
pub(crate) struct ParallelPlan {
    /// One operator pipeline per morsel, in morsel order.
    pub pipelines: Vec<Box<dyn Operator>>,
    /// How per-morsel outputs combine.
    pub merge: MergePlan,
    /// The query's side effects, in the serial plan's shape: one shred sink
    /// per recorded column, which every morsel (and the shared build side)
    /// stores into, and the positional-map fragments in morsel order (a
    /// join's build side contributes its whole-file map as the build
    /// table's single fragment).
    pub harvests: Harvests,
    /// Scan work already performed at plan time (the serial drain of a
    /// join's build side); the engine merges it into the query's profile.
    pub build_profile: PhaseProfile,
    /// Scan volume metrics of the plan-time build-side drain.
    pub build_metrics: ScanMetrics,
    /// Per-morsel availability gates (empty on warm/blocking runs): on cold
    /// streamed runs, morsel `i` dispatches only once gate `i` reports its
    /// byte range resident, so early morsels scan while later chunks are
    /// still on disk.
    pub gates: Vec<Option<MorselGate>>,
    /// Plan description.
    pub explain: Vec<String>,
    /// Output column names.
    pub output_names: Vec<String>,
    /// Static morsel metadata (driving format, byte/row ranges), aligned
    /// with `pipelines`; the engine zips it with the runtime morsel traces
    /// into the query's [`crate::stats::QueryTrace`].
    pub morsel_meta: Vec<MorselMeta>,
}

/// Plan `q` for morsel-parallel execution, or `None` when the query (or the
/// engine state) wants the serial path.
pub(crate) fn try_plan(
    ctx: &PlannerCtx<'_>,
    q: &ResolvedQuery,
    threads: usize,
) -> Result<Option<ParallelPlan>> {
    // -- stage 1: eligibility ------------------------------------------------
    if !eligible(ctx, q, threads)? {
        return Ok(None);
    }
    let driving = ctx.catalog.get(&q.tables[0])?.clone();
    let mut planner = Planner::new(ctx);

    // -- stage 2: partition the driving table --------------------------------
    let Some(parted) = partition(&mut planner, &q.tables[0], &driving)? else {
        return Ok(None); // nothing to parallelize
    };
    let Partitioned { morsels, stream, ready } = parted;
    let text_format = matches!(driving.source, TableSource::Csv { .. });
    let format = source_format(&driving.source);
    let morsel_meta: Vec<MorselMeta> = morsels
        .iter()
        .map(|m| MorselMeta {
            format,
            byte_start: m.byte_start,
            byte_end: m.byte_end,
            first_row: m.first_row,
            end_row: m.end_row,
        })
        .collect();

    // Cold streamed run still in flight: per-morsel pipelines read from the
    // in-flight buffer (no full-residency wait at plan time); the
    // availability gates built below keep execution correct.
    if let Some(st) = &stream {
        planner.note("cold stream in flight: availability-gated morsel dispatch".to_owned());
        planner.stream = Some(st.clone());
        // A self-join builds (and drains) the build side over the same file
        // at plan time; that read needs full residency now.
        if q.join.is_some() && q.tables.len() > 1 {
            let build_def = planner.ctx.catalog.get(&q.tables[1])?;
            if build_def.source.path() == driving.source.path() {
                st.ensure_all().map_err(EngineError::from)?;
            }
        }
    }

    // Shared planning state, resolved once (not per morsel): the per-table
    // query slices, materialization strategies, and join-side placements —
    // the same calls, in the same order, as the serial `plan_query`.
    let per_table = slice_per_table(q);
    let strategies: Vec<ShredStrategy> =
        (0..q.tables.len()).map(|t| planner.resolve_strategy(q, t, &per_table[t])).collect();

    // Join: resolve placements per side and build the build side ONCE —
    // serially, through the ordinary whole-file pipeline (pool-served when
    // shreds cover it) — then share the hash table across morsel probes.
    let mut build_profile = PhaseProfile::default();
    let mut build_metrics = ScanMetrics::default();
    let (placements, shared_build, probe_when) = match q.join.as_ref() {
        Some(j) => {
            let placements: Vec<AttachWhen> =
                (0..2).map(|t| planner.resolve_placement(q, t, &per_table[t])).collect();
            let built = planner.build_table_pipeline(
                q,
                1,
                &per_table[1],
                strategies[1],
                placements[1],
                None,
            )?;
            let build_key = built
                .layout
                .position(1, j.build_col.schema_idx)
                .ok_or_else(|| EngineError::planning("build key missing from layout"))?;
            let mut op = built.op;
            let batches = drain(op.as_mut())?;
            build_profile = op.scan_profile();
            build_metrics = op.scan_metrics();
            drop(op); // release sinks so side effects unwrap cheaply later
            let shared = Arc::new(JoinBuildSide::build(Batch::concat(&batches)?, build_key)?);
            planner.note(format!(
                "hash join {}.{} = {}.{} (probe left, build right; build side [{} rows] \
                 built once, shared across {} probe morsels)",
                q.tables[0],
                j.probe_col.name,
                q.tables[1],
                j.build_col.name,
                shared.rows(),
                morsels.len(),
            ));
            let probe_when = placements[0];
            (Some(placements), Some((shared, built.layout)), probe_when)
        }
        None => {
            let when = match strategies[0] {
                ShredStrategy::FullColumns => AttachWhen::Early,
                _ => AttachWhen::AfterFilters,
            };
            (None, None, when)
        }
    };

    // -- stage 3: per-morsel pipeline build ----------------------------------
    let mut pipelines: Vec<Box<dyn Operator>> = Vec::with_capacity(morsels.len());
    let mut merge: Option<MergePlan> = None;
    let mut output_names: Vec<String> = Vec::new();

    for (i, morsel) in morsels.iter().enumerate() {
        // Keep the plan description readable: the first morsel's notes
        // describe them all. Later morsels build against a scratch vec
        // (swapped in here, dropped below) instead of truncating the
        // shared one.
        let kept = (i > 0).then(|| std::mem::take(&mut planner.explain));

        let segment = if text_format {
            ScanSegment {
                first_row: morsel.first_row,
                end_row: Some(morsel.end_row),
                byte_start: morsel.byte_start,
                byte_end: Some(morsel.byte_end),
            }
        } else {
            ScanSegment::rows(morsel.first_row, morsel.end_row)
        };
        let built = planner.build_table_pipeline(
            q,
            0,
            &per_table[0],
            strategies[0],
            probe_when,
            Some(segment),
        )?;
        let mut op = built.op;
        let mut layout = built.layout;

        // The join above each morsel's probe pipeline, probing the shared
        // build side; then Late attaches above the join, for the sides
        // placed there — per morsel, exactly like the serial plan's top.
        if let Some((shared, build_layout)) = &shared_build {
            let j = q.join.as_ref().expect("shared build implies a join");
            let probe_key = layout
                .position(0, j.probe_col.schema_idx)
                .ok_or_else(|| EngineError::planning("probe key missing from layout"))?;
            op = Box::new(HashJoinOp::with_shared(op, Arc::clone(shared), probe_key));
            layout.extend(build_layout);

            let placements = placements.as_ref().expect("join resolved placements");
            for (t, tc) in per_table.iter().enumerate() {
                if placements[t] != AttachWhen::Never {
                    continue;
                }
                let missing: Vec<ColRef> = tc
                    .outputs
                    .iter()
                    .filter(|c| layout.position(t, c.schema_idx).is_none())
                    .cloned()
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                let (next, new_layout) = planner.attach_columns(
                    q,
                    op,
                    layout,
                    t,
                    &missing,
                    /* multi = */ false,
                    "late (above join)",
                    TableTag(t as u32),
                )?;
                op = next;
                layout = new_layout;
            }
        }

        // -- stage 4: merge resolution (first morsel; layouts are
        // identical across morsels by construction) ------------------------
        if merge.is_none() {
            let (resolved, names) = resolve_merge(&mut planner, q, &layout)?;
            merge = Some(resolved);
            output_names = names;
        }
        if matches!(merge, Some(MergePlan::Concat)) {
            let (cols, _) = super::projection_positions(q, &layout)?;
            op = Box::new(ProjectOp::new(op, cols));
        }
        pipelines.push(op);

        if let Some(kept) = kept {
            planner.explain = kept;
        }
    }

    let merge = merge.expect("at least two morsels built");
    planner.explain.push(format!(
        "parallel: {} morsels x {} threads [{}]",
        morsels.len(),
        threads,
        match &merge {
            MergePlan::Concat => "concat in morsel order",
            MergePlan::Aggregate(_) => "partial aggregates merged in morsel order",
            MergePlan::Grouped(_) => "grouped partial states merged in morsel order",
        }
    ));
    let explain = std::mem::take(&mut planner.explain);
    let harvests = std::mem::take(&mut planner.harvests);

    // Availability gates: morsel i runs once bytes ready[i] are resident.
    // `ensure` waits on the covering chunks, or decodes the covering blocks
    // of a compressed file (claims deduplicated across gates, so decode
    // work fans out over the worker pool). A read or decode failure
    // surfaces through the gate as this morsel's error.
    let gates: Vec<Option<MorselGate>> = match &stream {
        Some(st) => ready
            .into_iter()
            .map(|r| {
                let st = st.clone();
                let gate: MorselGate = Box::new(move || {
                    st.ensure(r).map_err(|e| ColumnarError::External { message: e.to_string() })
                });
                Some(gate)
            })
            .collect(),
        None => Vec::new(),
    };

    Ok(Some(ParallelPlan {
        pipelines,
        merge,
        harvests,
        build_profile,
        build_metrics,
        gates,
        explain,
        output_names,
        morsel_meta,
    }))
}

/// Stable format label for morsel metadata (trace artifacts key on it).
fn source_format(source: &TableSource) -> &'static str {
    match source {
        TableSource::Csv { .. } => "csv",
        TableSource::Fbin { .. } => "fbin",
        TableSource::Ibin { .. } => "ibin",
        TableSource::RootEvents { .. } => "root-events",
        TableSource::RootCollection { .. } => "root-collection",
    }
}

/// Stage 1: whether the query can take the parallel path at all. The
/// *driving* table (0) must be partitionable into record-aligned morsels
/// and not already fully shred-cached; a join's build side only needs an
/// ordinary serial scan, so any source the mode supports qualifies there.
fn eligible(ctx: &PlannerCtx<'_>, q: &ResolvedQuery, threads: usize) -> Result<bool> {
    if threads < 2 || !matches!(ctx.config.mode, AccessMode::InSitu | AccessMode::Jit) {
        return Ok(false);
    }
    let def = ctx.catalog.get(&q.tables[0])?;
    if !matches!(
        def.source,
        TableSource::Csv { .. }
            | TableSource::Fbin { .. }
            | TableSource::Ibin { .. }
            | TableSource::RootEvents { .. }
            | TableSource::RootCollection { .. }
    ) {
        return Ok(false);
    }
    // Fully-cached driving table: the serial PoolScan path is already
    // memory-speed and whole-file shaped; don't segment it.
    let tc = &slice_per_table(q)[0];
    let mut cols = tc.filters.iter().map(|f| &f.col).chain(&tc.join_key).chain(&tc.outputs);
    let all_pooled =
        cols.all(|c| ctx.pool.peek(&q.tables[0], &c.name).is_some_and(|s| s.is_full()));
    Ok(!all_pooled)
}

/// Stage 2's product: the morsel grid plus the cold-stream context needed
/// to gate execution on availability.
struct Partitioned {
    morsels: Vec<Morsel>,
    /// The in-flight cold read of the driving file — `Some` only on cold
    /// runs of flat formats with streaming enabled (`read_chunk_bytes >
    /// 0`) whose bytes are not all resident by the end of partitioning.
    /// `None` means everything the pipelines touch is resident by plan
    /// time (warm, blocking, or root formats).
    stream: Option<ColdRead>,
    /// Per-morsel resident-byte requirement, aligned with `morsels`: morsel
    /// `i` may dispatch once bytes `ready[i]` are resident. It is the
    /// morsel's own byte span — a morsel reads nothing outside it (scans,
    /// posmap tracking, and late posmap-navigated fetches all address
    /// record positions inside the segment) — so a gate over a compressed
    /// file decodes just its covering blocks, and a gate over a plain
    /// stream, which fills its chunks in order, waits exactly as long as
    /// one on the whole prefix would. Empty when `stream` is `None`.
    ready: Vec<std::ops::Range<usize>>,
}

/// Make the fbin header resident, so `FbinLayout::parse` reads real bytes —
/// fbin's parse touches nothing past the header, unlike ibin's (which
/// decodes the tail zone index and therefore needs the whole file). Short
/// files skip straight to parse's truncation error.
fn wait_fbin_header(st: &ColdRead) -> Result<()> {
    let mut resident = 0;
    loop {
        let need = FbinLayout::header_len(&st.bytes()[..resident]).min(st.len());
        if need <= resident {
            return Ok(());
        }
        st.ensure(0..need).map_err(EngineError::from)?;
        resident = need;
    }
}

/// Stage 2: split the driving table into morsels, or `None` when the file
/// is too small to split. The grid depends on the file (and the morsel-size
/// knob), never on the worker count — and never on whether the bytes
/// arrived streamed or blocking (the streamed probes are the same code over
/// the same bytes) — so results are thread-count and cold-path invariant.
///
/// On cold runs of flat formats (CSV, fbin, ibin) with streaming enabled,
/// the read is started in the background and only the bytes partitioning
/// itself needs are ensured: the CSV probe follows the read as it goes,
/// fbin/ibin ensure their headers. Rootsim formats parse a directory at
/// open time and keep the blocking read.
fn partition(
    planner: &mut Planner<'_, '_>,
    name: &str,
    def: &TableDef,
) -> Result<Option<Partitioned>> {
    let morsel_bytes = planner.ctx.config.morsel_bytes.max(1);
    let chunk_bytes = planner.ctx.config.read_chunk_bytes;
    let skew = planner.ctx.config.skew_split.max(1);
    if skew > 1 {
        planner.note(format!("skew split x{skew}: refined morsel grid"));
    }
    let flat = matches!(
        def.source,
        TableSource::Csv { .. } | TableSource::Fbin { .. } | TableSource::Ibin { .. }
    );
    let stream: Option<ColdRead> = if chunk_bytes > 0 && flat {
        let cold = !planner.ctx.files.is_warm(def.source.path());
        let st = planner.ctx.files.read_streaming(def.source.path(), chunk_bytes)?;
        if cold {
            // Deterministic observability: the read went through the cold
            // path (whether or not it is still in flight by the time
            // planning finishes — small files often complete first).
            planner.note(st.to_string());
        }
        Some(st)
    } else {
        None
    };

    let mut ready: Vec<std::ops::Range<usize>> = Vec::new();
    let morsels: Vec<Morsel> = match &def.source {
        TableSource::Csv { .. } => {
            // Streamed reads probe the in-flight buffer; blocking reads a
            // resident one. The hint lookup and target sizing are shared so
            // both paths partition identically by construction.
            let resident = match &stream {
                Some(_) => None,
                None => Some(planner.ctx.files.read(def.source.path())?),
            };
            let len = stream
                .as_ref()
                .map_or_else(|| resident.as_ref().expect("read").len(), |st| st.len());
            let target = refine_target((len / morsel_bytes).clamp(1, MAX_MORSELS), skew);
            // Positional-map entries double as split hints: column 0's
            // recorded positions are the record starts (per the dialect the
            // map was parsed with), so no probe pass — and on a cold
            // streamed run, no plan-time wait at all: maximal read/scan
            // overlap.
            let hinted =
                planner.ctx.posmaps.get(name).and_then(|m| partition_csv_with_map(m, len, target));
            // Cold probe otherwise: split on the dialect the scan will use.
            // The general-purpose in-situ scan is quote-aware (a quoted
            // field may contain a newline); the JIT dialect treats every
            // newline as a record end.
            let quote_aware = planner.ctx.config.mode == AccessMode::InSitu;
            let morsels = match (hinted, &stream, &resident) {
                (Some(ms), _, _) => ms,
                (None, Some(st), _) if quote_aware => {
                    partition_csv_quoted_streaming(st, target).map_err(EngineError::from)?.morsels
                }
                (None, Some(st), _) => {
                    partition_csv_streaming(st, target).map_err(EngineError::from)?.morsels
                }
                (None, None, Some(buf)) if quote_aware => partition_csv_quoted(buf, target).morsels,
                (None, None, Some(buf)) => partition_csv(buf, target).morsels,
                (None, None, None) => unreachable!("blocking path always reads the buffer"),
            };
            ready = morsels.iter().map(|m| m.byte_start..m.byte_end).collect();
            morsels
        }
        TableSource::Fbin { .. } => {
            let layout = match &stream {
                Some(st) => {
                    wait_fbin_header(st)?;
                    FbinLayout::parse(st.bytes())?
                }
                None => FbinLayout::parse(&planner.ctx.files.read(def.source.path())?)?,
            };
            let rows_per_morsel = (morsel_bytes / layout.row_width.max(1)).max(1) as u64;
            let target = refine_target(
                (layout.rows / rows_per_morsel).clamp(1, MAX_MORSELS as u64) as usize,
                skew,
            );
            let morsels = partition_rows(layout.rows, target);
            // Rows are fixed-width and contiguous: morsel i's bytes are
            // its own row span.
            let row_bytes = |row: u64| layout.data_start + row as usize * layout.row_width;
            ready = morsels.iter().map(|m| row_bytes(m.first_row)..row_bytes(m.end_row)).collect();
            morsels
        }
        TableSource::Ibin { .. } => {
            // Page-aligned morsels: each owns whole pages, so per-morsel
            // zone-index pruning (the scan intersects the compiled
            // candidate ranges with its segment) tiles the serial
            // candidate set — and the pruning counters — exactly.
            //
            // `IbinLayout::parse` eagerly decodes the zone index at the
            // file's *tail* (every plan-time parse does — scans, JIT
            // compiles, fetch compiles), so a streamed ibin read must be
            // fully resident before the first parse: the tail arrives
            // last, which means ibin gets no read/scan overlap and morsels
            // run ungated. The streamed path still exists so the read
            // itself, the counters, and the buffer-identity rules match
            // the other flat formats.
            let layout = match &stream {
                Some(st) => IbinLayout::parse(&st.ensure_all().map_err(EngineError::from)?)?,
                None => IbinLayout::parse(&planner.ctx.files.read(def.source.path())?)?,
            };
            let rows_per_morsel = (morsel_bytes / layout.row_width.max(1)).max(1) as u64;
            let target = refine_target(
                (layout.rows / rows_per_morsel).clamp(1, MAX_MORSELS as u64) as usize,
                skew,
            );
            partition_pages(layout.rows, layout.rows_per_page, target)
        }
        TableSource::RootEvents { .. } => {
            // Size from the file's actual per-event payload (scalars,
            // offsets tables, and collection items) — the declared scalar
            // schema alone wildly undercounts collection-heavy files.
            let file = planner.open_root(def)?;
            let events = file.num_events();
            let bytes_per_event = file.bytes_per_event().max(1) as usize;
            let rows_per_morsel = (morsel_bytes / bytes_per_event).max(1) as u64;
            let target = refine_target(
                (events / rows_per_morsel).clamp(1, MAX_MORSELS as u64) as usize,
                skew,
            );
            partition_rows(events, target)
        }
        TableSource::RootCollection { collection, .. } => {
            // Event-aligned morsels sized by the items they actually cover:
            // the offsets table says how many exploded item rows each event
            // contributes, so item-heavy events do not skew morsel cost.
            let file = planner.open_root(def)?;
            let coll = file.collection(collection).ok_or_else(|| {
                EngineError::planning(format!("no collection named {collection}"))
            })?;
            let events = file.num_events();
            let item_bytes: usize = def
                .schema
                .fields()
                .iter()
                .map(|f| f.data_type.fixed_width().unwrap_or(8))
                .sum::<usize>()
                .max(1);
            let items_per_morsel = (morsel_bytes / item_bytes).max(1) as u64;
            let total_items = file.total_items(coll);
            let target = refine_target(
                (total_items / items_per_morsel).clamp(1, MAX_MORSELS as u64) as usize,
                skew,
            );
            if target < 2 || events < 2 {
                // Too small to split; skip materializing the offsets table.
                return Ok(None);
            }
            let offsets: Vec<u64> = (0..=events).map(|e| file.items_upto(coll, e)).collect();
            partition_items(&offsets, target)
        }
    };
    if morsels.len() < 2 {
        // Too small to parallelize. A just-started stream keeps filling in
        // the background; the serial fallback's `read` joins it (one disk
        // read, identical counters to the blocking path).
        return Ok(None);
    }
    // An already-complete read (tiny file, warm wrapper, a probe that
    // reached the end, or the ibin full wait) needs no gates; an in-flight
    // one gates every morsel.
    let stream = stream.filter(|st| !st.is_complete());
    let ready = if stream.is_some() { ready } else { Vec::new() };
    Ok(Some(Partitioned { morsels, stream, ready }))
}

/// Stage 4: how per-morsel outputs combine, resolved against the (shared)
/// pipeline layout with the same helpers as the serial plan top.
fn resolve_merge(
    planner: &mut Planner<'_, '_>,
    q: &ResolvedQuery,
    layout: &super::Layout,
) -> Result<(MergePlan, Vec<String>)> {
    if let Some(g) = &q.group_by {
        let top = super::grouped_top(q, layout)?;
        planner.note(format!(
            "hash aggregate {} GROUP BY {}.{}",
            top.names.join(", "),
            q.tables[g.table],
            g.name
        ));
        let merge = MergePlan::Grouped(GroupedMerge {
            key_col: top.key_pos,
            exprs: top.exprs,
            output: top.out_positions,
        });
        Ok((merge, top.names))
    } else if q.is_aggregate() {
        let (exprs, names) = super::aggregate_exprs(q, layout)?;
        planner.note(format!("aggregate {}", names.join(", ")));
        Ok((MergePlan::Aggregate(exprs), names))
    } else {
        let (_, names) = super::projection_positions(q, layout)?;
        planner.note(format!("project {}", names.join(", ")));
        Ok((MergePlan::Concat, names))
    }
}
