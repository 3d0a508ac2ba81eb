//! The morsel grid: how the planner splits a query's driving table.
//!
//! [`grid`] is the one place the planner ([`super::plan`]) decides between
//! a morsel plan and a whole-file plan. It returns one scan segment per
//! pipeline: at least two record-aligned morsels when the query is
//! [`eligible`] and [`partition`] can split the file, otherwise the single
//! whole-file segment `None`. Everything else — access paths, shred
//! staging, cost-model consultation, the shared join build side, late
//! attaches, the merge and side-effect recording — is the planner's, built
//! the same way for one pipeline or many.
//!
//! Eligible today: queries over a CSV, fbin, rootsim-event, ibin, or
//! rootsim-collection driving table under the in-situ or JIT access modes
//! with `parallelism >= 2` — including joins (the build side is one
//! whole-file pipeline) and grouped aggregation. Each format partitions on
//! its native granularity (see `raw_exec::morsel`): CSV on probed record
//! boundaries, fbin/root-events by row arithmetic, ibin on **page
//! boundaries** (so per-morsel zone-index pruning tiles the whole-file
//! candidate set and its counters exactly, and an all-pruned morsel is a
//! no-op), and collections on **event boundaries sized by the offsets
//! table's item counts** (so exploded item rows balance across morsels and
//! concatenate in morsel order). DBMS/external modes, `parallelism == 1`,
//! fully-shred-cached driving tables and files too small to split get the
//! whole-file grid.
//!
//! Determinism: the morsel grid is a function of the file and the
//! `morsel_bytes` / `skew_split` knobs only, never of the worker count, so
//! any `parallelism >= 2` produces identical results. Skew resistance is
//! deterministic by construction: the `skew_split` knob refines the grid at
//! *plan* time (finer sub-morsels the pool can rebalance around a long
//! tail), and the executor's heavy-first claim ordering reorders only
//! *dispatch*, never results or counters.

use raw_exec::{
    partition_csv, partition_csv_quoted, partition_csv_quoted_streaming, partition_csv_streaming,
    partition_csv_with_map, partition_items, partition_pages, partition_rows, Morsel, MorselGate,
};

use raw_access::spec::ScanSegment;
use raw_columnar::ColumnarError;
use raw_formats::fbin::FbinLayout;
use raw_formats::file_buffer::ColdRead;
use raw_formats::ibin::IbinLayout;

use crate::catalog::{TableDef, TableSource};
use crate::engine::AccessMode;
use crate::error::{EngineError, Result};
use crate::plan::ResolvedQuery;
use crate::stats::MorselMeta;

use super::{slice_per_table, Planner, PlannerCtx};

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

/// The pipelines' share of the driving table: one scan segment per
/// pipeline, in morsel order, plus each morsel's availability gate and
/// metadata. A whole-file plan has the one segment `None` and neither.
pub(super) struct Grid {
    /// Scan segment per pipeline (`None` scans the whole file).
    pub segments: Vec<Option<ScanSegment>>,
    /// Per-morsel availability gates (empty unless a cold streamed read is
    /// still in flight): morsel `i` dispatches only once gate `i` reports
    /// its byte range resident, so early morsels scan while later chunks
    /// are still on disk.
    pub gates: Vec<Option<MorselGate>>,
    /// Static morsel metadata (driving format, byte/row ranges), aligned
    /// with `segments`; empty for a whole-file plan.
    pub meta: Vec<MorselMeta>,
}

impl Grid {
    fn whole_file() -> Grid {
        Grid { segments: vec![None], gates: Vec::new(), meta: Vec::new() }
    }
}

/// Split `q`'s driving table into morsels when the query is [`eligible`]
/// and the file yields at least two; otherwise the whole-file grid. A cold
/// streamed read still in flight is handed to the planner, so the morsel
/// pipelines read its buffer without waiting for full residency; the gates
/// keep execution correct.
pub(super) fn grid(planner: &mut Planner<'_, '_>, q: &ResolvedQuery) -> Result<Grid> {
    if !eligible(planner.ctx, q)? {
        return Ok(Grid::whole_file());
    }
    let driving = planner.ctx.catalog.get(&q.tables[0])?.clone();
    let mark = planner.explain.len();
    let Some(Partitioned { morsels, stream, ready }) = partition(planner, &q.tables[0], &driving)?
    else {
        // Too small to split: the attempt leaves no trace in the plan.
        planner.explain.truncate(mark);
        return Ok(Grid::whole_file());
    };

    if let Some(st) = &stream {
        planner.note("cold stream in flight: availability-gated morsel dispatch".to_owned());
        planner.stream = Some(st.clone());
        // A self-join drains the build side over the same file at plan
        // time; that read needs full residency now.
        if q.join.is_some() && q.tables.len() > 1 {
            let build_def = planner.ctx.catalog.get(&q.tables[1])?;
            if build_def.source.path() == driving.source.path() {
                st.ensure_all().map_err(EngineError::from)?;
            }
        }
    }

    let text_format = matches!(driving.source, TableSource::Csv { .. });
    let format = source_format(&driving.source);
    let segments = morsels
        .iter()
        .map(|m| {
            Some(if text_format {
                ScanSegment {
                    first_row: m.first_row,
                    end_row: Some(m.end_row),
                    byte_start: m.byte_start,
                    byte_end: Some(m.byte_end),
                }
            } else {
                ScanSegment::rows(m.first_row, m.end_row)
            })
        })
        .collect();
    let meta = morsels
        .iter()
        .map(|m| MorselMeta {
            format,
            byte_start: m.byte_start,
            byte_end: m.byte_end,
            first_row: m.first_row,
            end_row: m.end_row,
        })
        .collect();

    // Availability gates: morsel i runs once bytes ready[i] are resident.
    // `ensure` waits on the covering chunks, or decodes the covering blocks
    // of a compressed file (claims deduplicated across gates, so decode
    // work fans out over the worker pool). A read or decode failure
    // surfaces through the gate as this morsel's error.
    let gates = match &stream {
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
    Ok(Grid { segments, gates, meta })
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

/// Whether the query may be split into morsels at all: more than one
/// worker, an in-situ/JIT access mode, and a *driving* table (0) that is
/// partitionable into record-aligned morsels and not already fully
/// shred-cached. A join's build side is one whole-file pipeline, so any
/// source the mode supports qualifies there.
fn eligible(ctx: &PlannerCtx<'_>, q: &ResolvedQuery) -> Result<bool> {
    if ctx.config.parallelism < 2
        || !matches!(ctx.config.mode, AccessMode::InSitu | AccessMode::Jit)
    {
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
    // Fully-cached driving table: the whole-file PoolScan is already
    // memory-speed; don't segment it.
    let tc = &slice_per_table(q)[0];
    let mut cols = tc.filters.iter().map(|f| &f.col).chain(&tc.join_key).chain(&tc.outputs);
    let all_pooled =
        cols.all(|c| ctx.pool.peek(&q.tables[0], &c.name).is_some_and(|s| s.is_full()));
    Ok(!all_pooled)
}

/// [`partition`]'s product: the morsels plus the cold-stream context needed
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

/// Split the driving table into morsels, or `None` when the file
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
            // candidate ranges with its segment) tiles the
            // whole-file candidate set — and the pruning counters — exactly.
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
        // Too small to split. A just-started stream keeps filling in the
        // background; the whole-file plan's `read` joins it (one disk read,
        // identical counters to the blocking path).
        return Ok(None);
    }
    // An already-complete read (tiny file, warm wrapper, a probe that
    // reached the end, or the ibin full wait) needs no gates; an in-flight
    // one gates every morsel.
    let stream = stream.filter(|st| !st.is_complete());
    let ready = if stream.is_some() { ready } else { Vec::new() };
    Ok(Some(Partitioned { morsels, stream, ready }))
}
