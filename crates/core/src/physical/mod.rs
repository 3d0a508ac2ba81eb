//! Physical plan creation (§3 "Physical Plan Creation").
//!
//! The planner turns a [`ResolvedQuery`] into an operator tree, making the
//! adaptive decisions the paper describes:
//!
//! - map each table to a concrete access path for the configured
//!   [`AccessMode`]: loaded-table scan (DBMS),
//!   external-table scan, general-purpose in-situ scan, or a JIT-compiled
//!   scan fetched from the template cache;
//! - consult the **positional-map registry** and the **shred pool** for each
//!   field: "for a CSV file, potential methods include straightforward
//!   parsing, direct access via a positional map, navigating to a nearby
//!   position …, or using a cached column shred";
//! - split field reading among several scan operators and **push some of
//!   them up the plan** (column shreds), attaching late scans at the
//!   placeholder positions above filters and joins;
//! - wire up side-effect harvesting: positional maps built by sequential
//!   scans and shreds recorded from scan/attach outputs flow back into the
//!   engine's caches after execution.

pub mod helpers;
pub(crate) mod parallel;

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use raw_access::csv::{compile_program, CsvProgram, CsvScanInput, InSituCsvScan, JitCsvScan};
use raw_access::external::ExternalTableScan;
use raw_access::fbin::{
    compile_fbin_program, FbinProgram, FbinScanInput, InSituFbinScan, JitFbinScan,
};
use raw_access::fetch::{
    AttachFieldsOp, CsvJitFetcher, CsvMultiFetcher, FbinFetcher, FieldFetcher,
};
use raw_access::ibin::{
    compile_ibin_program, prune_fingerprint, IbinFetcher, IbinScanInput, InSituIbinScan,
    JitIbinScan,
};
use raw_access::rootsim_path::{
    RootColField, RootCollectionFetcher, RootCollectionProgram, RootCollectionScan,
    RootScalarFetcher, RootScalarProgram, RootScalarScan,
};
use raw_access::spec::{AccessPathKind, AccessPathSpec, FileFormat, ScanSegment, WantedField};
use raw_access::TemplateCache;
use raw_columnar::batch::TableTag;
use raw_columnar::ops::{
    AggExpr, AggregateOp, FilterOp, HashAggregateOp, HashJoinOp, MemScanOp, Operator, ProjectOp,
};
use raw_columnar::{CmpOp, MemTable, Predicate, SparseColumn};
use raw_formats::file_buffer::{FileBufferPool, FileBytes};
use raw_formats::ibin::{IbinLayout, PrunePred};
use raw_formats::rootsim::RootSimFile;
use raw_posmap::PositionalMap;

use crate::catalog::{Catalog, TableSource};
use crate::cost::{FilterDesc, JoinSide, PlacementInput, PosmapAvail, ScanFormat, StrategyInput};
use crate::engine::{AccessMode, EngineConfig, JoinPlacement, ShredStrategy};
use crate::error::{EngineError, Result};
use crate::plan::{ColRef, ResolvedFilter, ResolvedQuery};
use crate::shared::{SharedRootFiles, SharedStats, SharedTables};
use crate::shreds::ShredPool;

use helpers::{HarvestPosMapOp, PoolBackedFetcher, PoolScanOp, PosMapSink, RecordingOp, ShredSink};

/// Side effects the engine merges back after execution.
#[derive(Default)]
pub struct Harvests {
    /// Positional maps built by sequential scans: (table, sink).
    pub posmaps: Vec<(String, PosMapSink)>,
    /// Shreds recorded from scans and late fetches: (table, column, sink).
    pub shreds: Vec<(String, String, ShredSink)>,
}

/// A ready-to-run physical plan.
pub struct PhysicalPlan {
    /// Root operator.
    pub root: Box<dyn Operator>,
    /// Human-readable plan description (one line per step).
    pub explain: Vec<String>,
    /// Side-effect channels.
    pub harvests: Harvests,
    /// Output column names.
    pub output_names: Vec<String>,
}

/// Engine state the planner works against. `catalog`/`config`/`posmaps`
/// point into the query's immutable snapshot; the rest are the engine's
/// shared concurrent caches (interior mutability — every planner touch is
/// `&self`), so concurrent queries plan against the same pools and publish
/// side effects without exclusive engine access.
pub(crate) struct PlannerCtx<'a> {
    pub catalog: &'a Catalog,
    pub config: &'a EngineConfig,
    pub files: &'a FileBufferPool,
    pub templates: &'a TemplateCache,
    pub posmaps: &'a HashMap<String, Arc<PositionalMap>>,
    pub pool: &'a ShredPool,
    pub loaded: &'a SharedTables,
    pub root_files: &'a SharedRootFiles,
    pub stats: &'a SharedStats,
}

/// Column layout of the batches a pipeline produces.
#[derive(Debug, Clone, Default)]
struct Layout {
    cols: Vec<(usize, usize)>, // (table idx, schema idx)
}

impl Layout {
    fn position(&self, table: usize, schema_idx: usize) -> Option<usize> {
        self.cols.iter().position(|&(t, s)| t == table && s == schema_idx)
    }

    fn push(&mut self, table: usize, schema_idx: usize) -> usize {
        self.cols.push((table, schema_idx));
        self.cols.len() - 1
    }

    fn extend(&mut self, other: &Layout) {
        self.cols.extend_from_slice(&other.cols);
    }
}

/// A partially-built per-table pipeline.
struct Built {
    op: Box<dyn Operator>,
    layout: Layout,
}

/// When a table's output (projected/aggregated) columns get materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttachWhen {
    /// In the bottom scan ("full columns" / the join "Early" point).
    Early,
    /// After the table's filters, before any join ("Intermediate").
    AfterFilters,
    /// Above the join ("Late") — handled by the caller.
    Never,
}

/// Per-table slice of the query.
struct TableCols {
    filters: Vec<ResolvedFilter>,
    join_key: Option<ColRef>,
    outputs: Vec<ColRef>,
}

pub(crate) fn plan(ctx: &PlannerCtx<'_>, q: &ResolvedQuery) -> Result<PhysicalPlan> {
    let mut planner =
        Planner { ctx, explain: Vec::new(), harvests: Harvests::default(), stream: None };
    planner.plan_query(q)
}

struct Planner<'a, 'b> {
    ctx: &'a PlannerCtx<'b>,
    explain: Vec<String>,
    harvests: Harvests,
    /// When the parallel planner is streaming the driving table's cold read
    /// (chunked prefetch), the in-flight buffer serving that path:
    /// [`Planner::read_file`] hands out its bytes without blocking — morsel
    /// execution is availability-gated downstream — instead of `read`'s
    /// wait-for-everything contract. `None` everywhere else (the serial
    /// planner never streams).
    stream: Option<StreamHandle>,
}

/// The in-flight streaming read of the parallel plan's driving table.
pub(crate) struct StreamHandle {
    path: std::path::PathBuf,
    chunked: Arc<raw_formats::file_buffer::ChunkedFileBuffer>,
}

impl StreamHandle {
    pub(crate) fn new(
        path: std::path::PathBuf,
        chunked: Arc<raw_formats::file_buffer::ChunkedFileBuffer>,
    ) -> StreamHandle {
        StreamHandle { path, chunked }
    }
}

impl Planner<'_, '_> {
    fn note(&mut self, line: impl Into<String>) {
        self.explain.push(line.into());
    }

    /// Resolve the materialization strategy for one table, including the
    /// cost-model-driven `Adaptive` choice.
    fn resolve_strategy(&mut self, q: &ResolvedQuery, t: usize, tc: &TableCols) -> ShredStrategy {
        match (self.ctx.config.mode, self.ctx.config.shreds) {
            (AccessMode::Dbms | AccessMode::ExternalTables, _) => ShredStrategy::FullColumns,
            (AccessMode::InSitu, s) if s != ShredStrategy::FullColumns => {
                self.note(
                    "note: column shreds require JIT access paths; \
                     falling back to full columns for in-situ mode",
                );
                ShredStrategy::FullColumns
            }
            (AccessMode::Jit, ShredStrategy::Adaptive) => self.adaptive_strategy(q, t, tc),
            (_, s) => s,
        }
    }

    /// Resolve the join-side placement for one table, including the
    /// cost-model-driven `Adaptive` choice (probe side pipelined, build
    /// side pipeline-breaking).
    fn resolve_placement(&mut self, q: &ResolvedQuery, t: usize, tc: &TableCols) -> AttachWhen {
        match self.ctx.config.join_placement {
            JoinPlacement::Early => AttachWhen::Early,
            JoinPlacement::Intermediate => AttachWhen::AfterFilters,
            JoinPlacement::Late => AttachWhen::Never,
            JoinPlacement::Adaptive => {
                if self.ctx.config.mode != AccessMode::Jit {
                    // Nothing to defer: DBMS/external materialize everything
                    // anyway, and in-situ scans cannot fetch late.
                    return AttachWhen::Early;
                }
                self.adaptive_placement(q, t, tc)
            }
        }
    }

    // -- cost-model consultation (§8 future work: optimizer integration) ----

    /// Estimated selectivity of one filter, from harvested histograms or
    /// the model default.
    fn filter_selectivity(&self, q: &ResolvedQuery, f: &ResolvedFilter) -> f64 {
        self.ctx
            .stats
            .estimate(&q.tables[f.col.table], &f.col.name, f.op, &f.value)
            .unwrap_or(self.ctx.config.cost_model.default_selectivity)
    }

    /// Combined selectivity of a table's filter conjuncts (independence
    /// assumption).
    fn combined_selectivity(&self, q: &ResolvedQuery, filters: &[ResolvedFilter]) -> f64 {
        filters.iter().map(|f| self.filter_selectivity(q, f)).product()
    }

    /// The cost-model format family for table `t`, with positional-map
    /// availability resolved for its late-fetch candidate columns.
    fn scan_format_for(&self, q: &ResolvedQuery, t: usize, tc: &TableCols) -> ScanFormat {
        let def = match self.ctx.catalog.get(&q.tables[t]) {
            Ok(d) => d,
            Err(_) => return ScanFormat::FixedBinary,
        };
        match &def.source {
            TableSource::Fbin { .. } | TableSource::Ibin { .. } => ScanFormat::FixedBinary,
            TableSource::RootEvents { .. } | TableSource::RootCollection { .. } => ScanFormat::Root,
            TableSource::Csv { .. } => {
                let Some(map) = self.ctx.posmaps.get(&q.tables[t]) else {
                    return ScanFormat::Csv(PosmapAvail::None);
                };
                // Worst-case availability across the columns a shred plan
                // would fetch late (every filter after the first, plus
                // outputs).
                let mut worst = PosmapAvail::Exact;
                let late_cols = tc.filters.iter().skip(1).map(|f| &f.col).chain(tc.outputs.iter());
                for col in late_cols {
                    let Ok(field) = def.schema.field(col.schema_idx) else {
                        return ScanFormat::Csv(PosmapAvail::None);
                    };
                    match map.lookup(field.source_ordinal) {
                        raw_posmap::Lookup::Exact { .. } => {}
                        raw_posmap::Lookup::Nearest { skip_fields, .. } => {
                            worst = match worst {
                                PosmapAvail::Nearest { skip_fields: prev }
                                    if prev >= skip_fields =>
                                {
                                    worst
                                }
                                PosmapAvail::None => PosmapAvail::None,
                                _ => PosmapAvail::Nearest { skip_fields },
                            };
                        }
                        raw_posmap::Lookup::Miss => return ScanFormat::Csv(PosmapAvail::None),
                    }
                }
                ScanFormat::Csv(worst)
            }
        }
    }

    /// Cost-model choice between full columns, shreds, and multi-column
    /// shreds for one table (§5).
    fn adaptive_strategy(&mut self, q: &ResolvedQuery, t: usize, tc: &TableCols) -> ShredStrategy {
        if tc.filters.is_empty() {
            // No predicate to shred on: everything is read once anyway.
            return ShredStrategy::FullColumns;
        }
        let format = self.scan_format_for(q, t, tc);
        let filters: Vec<FilterDesc> = tc
            .filters
            .iter()
            .map(|f| FilterDesc {
                data_type: f.col.data_type,
                selectivity: self.filter_selectivity(q, f),
            })
            .collect();
        let outputs: Vec<raw_columnar::DataType> = tc
            .outputs
            .iter()
            .filter(|c| !tc.filters.iter().any(|f| f.col.schema_idx == c.schema_idx))
            .map(|c| c.data_type)
            .collect();
        let rows = self.ctx.stats.table_rows(&q.tables[t]).unwrap_or(1) as f64;
        let decision = self.ctx.config.cost_model.choose_strategy(&StrategyInput {
            format,
            rows,
            filters: filters.clone(),
            outputs,
        });
        let sels =
            filters.iter().map(|f| format!("{:.3}", f.selectivity)).collect::<Vec<_>>().join(",");
        self.note(format!(
            "adaptive strategy for {}: {} [est. sel {sels}]",
            q.tables[t],
            decision.explain()
        ));
        decision.choice
    }

    /// Cost-model choice of the Early/Intermediate/Late point for one join
    /// side's projected columns (§5.3.2).
    fn adaptive_placement(&mut self, q: &ResolvedQuery, t: usize, tc: &TableCols) -> AttachWhen {
        // Columns the placement decision governs: outputs not already read
        // for a filter or the join key.
        let cols: Vec<raw_columnar::DataType> = tc
            .outputs
            .iter()
            .filter(|c| {
                !tc.filters.iter().any(|f| f.col.schema_idx == c.schema_idx)
                    && tc.join_key.as_ref().map(|k| k.schema_idx) != Some(c.schema_idx)
            })
            .map(|c| c.data_type)
            .collect();
        if cols.is_empty() {
            return AttachWhen::Never; // nothing left to place; late is a no-op
        }
        let side = if t == 0 { JoinSide::Pipelined } else { JoinSide::Breaking };
        // Join retention for this side ≈ the other side's filter
        // selectivity (equi-join against a filtered key set).
        let other = 1 - t;
        let other_filters: Vec<ResolvedFilter> =
            q.filters.iter().filter(|f| f.col.table == other).cloned().collect();
        let join_retention = self.combined_selectivity(q, &other_filters);
        let own_filters: Vec<ResolvedFilter> =
            q.filters.iter().filter(|f| f.col.table == t).cloned().collect();
        let input = PlacementInput {
            format: self.scan_format_for(q, t, tc),
            rows: self.ctx.stats.table_rows(&q.tables[t]).unwrap_or(1) as f64,
            filter_selectivity: self.combined_selectivity(q, &own_filters),
            join_retention,
            cols,
        };
        let decision = self.ctx.config.cost_model.choose_join_placement(side, &input);
        self.note(format!(
            "adaptive join placement for {} ({side:?}): {} [own sel {:.3}, retention {:.3}]",
            q.tables[t],
            decision.explain(),
            input.filter_selectivity,
            join_retention
        ));
        match decision.choice {
            JoinPlacement::Early => AttachWhen::Early,
            JoinPlacement::Intermediate => AttachWhen::AfterFilters,
            JoinPlacement::Late | JoinPlacement::Adaptive => AttachWhen::Never,
        }
    }

    fn plan_query(&mut self, q: &ResolvedQuery) -> Result<PhysicalPlan> {
        let per_table = slice_per_table(q);

        // Per-table materialization strategy; the Adaptive case consults
        // the cost model with this query's selectivity estimates.
        let strategies: Vec<ShredStrategy> =
            (0..q.tables.len()).map(|t| self.resolve_strategy(q, t, &per_table[t])).collect();

        let has_join = q.join.is_some();
        let (mut root, layout) = if has_join {
            // Join-side placement is resolved per side: the probe side is
            // pipelined, the build side pipeline-breaking (§5.3.2).
            let placements: Vec<AttachWhen> =
                (0..2).map(|t| self.resolve_placement(q, t, &per_table[t])).collect();
            let probe =
                self.build_table_pipeline(q, 0, &per_table[0], strategies[0], placements[0], None)?;
            let build =
                self.build_table_pipeline(q, 1, &per_table[1], strategies[1], placements[1], None)?;
            let j = q.join.as_ref().expect("has_join");
            let probe_key = probe
                .layout
                .position(0, j.probe_col.schema_idx)
                .ok_or_else(|| EngineError::planning("probe key missing from layout"))?;
            let build_key = build
                .layout
                .position(1, j.build_col.schema_idx)
                .ok_or_else(|| EngineError::planning("build key missing from layout"))?;
            self.note(format!(
                "hash join {}.{} = {}.{} (probe left, build right)",
                q.tables[0], j.probe_col.name, q.tables[1], j.build_col.name
            ));
            let mut layout = Layout::default();
            layout.extend(&probe.layout);
            layout.extend(&build.layout);
            let join = HashJoinOp::new(probe.op, build.op, probe_key, build_key);
            let mut root: Box<dyn Operator> = Box::new(join);

            // Late attaches above the join, for the sides placed there.
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
                let (next, new_layout) = self.attach_columns(
                    q,
                    root,
                    layout,
                    t,
                    &missing,
                    /* multi = */ false,
                    "late (above join)",
                    TableTag(t as u32),
                )?;
                root = next;
                layout = new_layout;
            }
            (root, layout)
        } else {
            let when = match strategies[0] {
                ShredStrategy::FullColumns => AttachWhen::Early,
                _ => AttachWhen::AfterFilters,
            };
            let built =
                self.build_table_pipeline(q, 0, &per_table[0], strategies[0], when, None)?;
            (built.op, built.layout)
        };

        // Top: grouped aggregation, scalar aggregation, or projection.
        let output_names;
        if let Some(g) = &q.group_by {
            let top = grouped_top(q, &layout)?;
            output_names = top.names;
            self.note(format!(
                "hash aggregate {} GROUP BY {}.{}",
                output_names.join(", "),
                q.tables[g.table],
                g.name
            ));
            root = Box::new(HashAggregateOp::new(root, top.key_pos, top.exprs));
            root = Box::new(ProjectOp::new(root, top.out_positions));
        } else if q.is_aggregate() {
            let (exprs, names) = aggregate_exprs(q, &layout)?;
            output_names = names;
            self.note(format!("aggregate {}", output_names.join(", ")));
            root = Box::new(AggregateOp::new(root, exprs));
        } else {
            let (cols, names) = projection_positions(q, &layout)?;
            output_names = names;
            self.note(format!("project {}", output_names.join(", ")));
            root = Box::new(ProjectOp::new(root, cols));
        }

        Ok(PhysicalPlan {
            root,
            explain: std::mem::take(&mut self.explain),
            harvests: std::mem::take(&mut self.harvests),
            output_names,
        })
    }

    /// Build one table's pipeline: bottom scan, staged filters, and output
    /// columns attached per `when`. A `segment` restricts the bottom scan to
    /// one record-aligned morsel of the file (parallel plans build this
    /// pipeline once per morsel); `None` scans the whole file.
    #[allow(clippy::too_many_arguments)]
    fn build_table_pipeline(
        &mut self,
        q: &ResolvedQuery,
        t: usize,
        tc: &TableCols,
        strategy: ShredStrategy,
        when: AttachWhen,
        segment: Option<ScanSegment>,
    ) -> Result<Built> {
        // Columns that cannot be fetched late must ride in the bottom scan.
        let fetchable = |this: &mut Self, col: &ColRef| -> bool { this.can_fetch_late(q, t, col) };

        let mut base: Vec<ColRef> = Vec::new();
        let push_base = |cols: &mut Vec<ColRef>, c: &ColRef| {
            if !cols.iter().any(|x| x.schema_idx == c.schema_idx) {
                cols.push(c.clone());
            }
        };

        let staged = strategy != ShredStrategy::FullColumns && !tc.filters.is_empty();
        if staged {
            // First filter's column anchors the bottom scan.
            push_base(&mut base, &tc.filters[0].col);
            // Join keys are needed at the join itself — read them early.
            if let Some(k) = &tc.join_key {
                push_base(&mut base, k);
            }
            // Later-staged columns that cannot be fetched late move early.
            for f in &tc.filters[1..] {
                if !fetchable(self, &f.col) {
                    push_base(&mut base, &f.col);
                }
            }
            if when != AttachWhen::Never {
                for c in &tc.outputs {
                    if when == AttachWhen::Early || !fetchable(self, c) {
                        push_base(&mut base, c);
                    }
                }
            }
        } else {
            for f in &tc.filters {
                push_base(&mut base, &f.col);
            }
            if let Some(k) = &tc.join_key {
                push_base(&mut base, k);
            }
            match when {
                AttachWhen::Never => {
                    for c in &tc.outputs {
                        if !fetchable(self, c) {
                            push_base(&mut base, c);
                        }
                    }
                }
                _ => {
                    for c in &tc.outputs {
                        push_base(&mut base, c);
                    }
                }
            }
        }
        if base.is_empty() {
            // Degenerate: no filters, outputs all late-fetchable, no join —
            // still need rows to drive everything; read the first output.
            if let Some(c) = tc.outputs.first() {
                base.push(c.clone());
            } else {
                return Err(EngineError::planning(format!(
                    "table {} contributes no columns",
                    q.tables[t]
                )));
            }
        }

        let (mut op, mut layout) = {
            let built = self.make_scan(q, t, &base, TableTag(t as u32), segment)?;
            (built.op, built.layout)
        };

        let apply_filter = |this: &mut Self,
                            op: Box<dyn Operator>,
                            layout: &Layout,
                            f: &ResolvedFilter|
         -> Result<Box<dyn Operator>> {
            let pos = layout
                .position(t, f.col.schema_idx)
                .ok_or_else(|| EngineError::planning("filter column not in layout"))?;
            this.note(format!("filter {}.{} {} {}", q.tables[t], f.col.name, f.op.sql(), f.value));
            Ok(Box::new(FilterOp::new(op, predicate(pos, f.op, &f.value))))
        };

        if staged {
            op = apply_filter(self, op, &layout, &tc.filters[0])?;
            let mut remaining: Vec<&ResolvedFilter> = tc.filters[1..].iter().collect();

            if strategy == ShredStrategy::MultiColumnShreds {
                // Speculatively attach everything still needed in one pass.
                let mut group: Vec<ColRef> = Vec::new();
                for f in &remaining {
                    if layout.position(t, f.col.schema_idx).is_none()
                        && !group.iter().any(|c| c.schema_idx == f.col.schema_idx)
                    {
                        group.push(f.col.clone());
                    }
                }
                if when == AttachWhen::AfterFilters {
                    for c in &tc.outputs {
                        if layout.position(t, c.schema_idx).is_none()
                            && !group.iter().any(|x| x.schema_idx == c.schema_idx)
                        {
                            group.push(c.clone());
                        }
                    }
                }
                if !group.is_empty() {
                    let (next, new_layout) = self.attach_columns(
                        q,
                        op,
                        layout,
                        t,
                        &group,
                        /* multi = */ true,
                        "multi-column shred",
                        TableTag(t as u32),
                    )?;
                    op = next;
                    layout = new_layout;
                }
                for f in remaining.drain(..) {
                    op = apply_filter(self, op, &layout, f)?;
                }
            } else {
                for f in remaining.drain(..) {
                    if layout.position(t, f.col.schema_idx).is_none() {
                        let (next, new_layout) = self.attach_columns(
                            q,
                            op,
                            layout,
                            t,
                            std::slice::from_ref(&f.col),
                            false,
                            "column shred",
                            TableTag(t as u32),
                        )?;
                        op = next;
                        layout = new_layout;
                    }
                    op = apply_filter(self, op, &layout, f)?;
                }
            }
        } else {
            for f in &tc.filters {
                op = apply_filter(self, op, &layout, f)?;
            }
        }

        // Output columns attached after filters (single-table shreds, or the
        // join "Intermediate" point).
        if when == AttachWhen::AfterFilters {
            let missing: Vec<ColRef> = tc
                .outputs
                .iter()
                .filter(|c| layout.position(t, c.schema_idx).is_none())
                .cloned()
                .collect();
            if !missing.is_empty() {
                let (next, new_layout) = self.attach_columns(
                    q,
                    op,
                    layout,
                    t,
                    &missing,
                    strategy == ShredStrategy::MultiColumnShreds,
                    "column shred",
                    TableTag(t as u32),
                )?;
                op = next;
                layout = new_layout;
            }
        }

        Ok(Built { op, layout })
    }

    /// Whether `col` of table `t` can be read by a late, selection-driven
    /// fetch (vs. having to ride in the bottom scan).
    fn can_fetch_late(&mut self, q: &ResolvedQuery, t: usize, col: &ColRef) -> bool {
        let def = match self.ctx.catalog.get(&q.tables[t]) {
            Ok(d) => d,
            Err(_) => return false,
        };
        if def.source.directly_addressable() {
            return true;
        }
        // CSV: need a positional map that can reach the column, or a cached
        // shred to answer from.
        let field = match def.schema.field(col.schema_idx) {
            Ok(f) => f,
            Err(_) => return false,
        };
        if let Some(map) = self.ctx.posmaps.get(&q.tables[t]) {
            if !matches!(map.lookup(field.source_ordinal), raw_posmap::Lookup::Miss) {
                return true;
            }
        }
        self.ctx.pool.get(&q.tables[t], &col.name).is_some()
    }

    // -- scan construction ---------------------------------------------------

    fn make_scan(
        &mut self,
        q: &ResolvedQuery,
        t: usize,
        cols: &[ColRef],
        tag: TableTag,
        segment: Option<ScanSegment>,
    ) -> Result<Built> {
        let name = q.tables[t].clone();
        let def = self.ctx.catalog.get(&name)?.clone();
        let batch = self.ctx.config.batch_size;

        if segment.is_some()
            && !matches!(self.ctx.config.mode, AccessMode::InSitu | AccessMode::Jit)
        {
            return Err(EngineError::planning(
                "segmented scans exist only for in-situ/JIT access paths",
            ));
        }

        let mut layout = Layout::default();

        match self.ctx.config.mode {
            AccessMode::Dbms => {
                let table = self.ensure_loaded(&name, &def)?;
                let positions: Vec<usize> = cols.iter().map(|c| c.schema_idx).collect();
                for c in cols {
                    layout.push(t, c.schema_idx);
                }
                self.note(format!(
                    "scan {name} [loaded table] cols {:?}",
                    cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                ));
                let op = MemScanOp::new(table, tag, positions).with_batch_size(batch);
                Ok(Built { op: Box::new(op), layout })
            }
            AccessMode::ExternalTables => {
                let format = match def.source {
                    TableSource::Csv { .. } => FileFormat::Csv,
                    TableSource::Fbin { .. } => FileFormat::Fbin,
                    TableSource::Ibin { .. } => FileFormat::Ibin,
                    _ => {
                        return Err(EngineError::planning(
                            "external tables support flat files only",
                        ))
                    }
                };
                let buf = self.read_file(&def)?;
                let positions: Vec<usize> = cols.iter().map(|c| c.schema_idx).collect();
                for c in cols {
                    layout.push(t, c.schema_idx);
                }
                self.note(format!("scan {name} [external table: full re-parse]"));
                let op =
                    ExternalTableScan::new(buf, format, def.schema.clone(), positions, tag, batch);
                Ok(Built { op: Box::new(op), layout })
            }
            AccessMode::InSitu | AccessMode::Jit => {
                self.make_raw_scan(q, t, &name, &def, cols, tag, segment)
            }
        }
    }

    /// In-situ / JIT scan with shred-pool integration and side-effect
    /// recording.
    #[allow(clippy::too_many_arguments)]
    fn make_raw_scan(
        &mut self,
        q: &ResolvedQuery,
        t: usize,
        name: &str,
        def: &crate::catalog::TableDef,
        cols: &[ColRef],
        tag: TableTag,
        segment: Option<ScanSegment>,
    ) -> Result<Built> {
        let batch = self.ctx.config.batch_size;

        // Split requested columns into pool-served (full shreds) and
        // file-read columns. Segmented (per-morsel) scans read everything
        // from the file: a whole-file PoolScan cannot serve one morsel, and
        // the parallel planner routes fully-cached queries to the serial
        // pool path before segmenting.
        let mut pool_cols: Vec<(ColRef, Arc<SparseColumn>)> = Vec::new();
        let mut file_cols: Vec<ColRef> = Vec::new();
        for c in cols {
            match self.ctx.pool.get(name, &c.name) {
                Some(s) if s.is_full() && segment.is_none() => pool_cols.push((c.clone(), s)),
                _ => file_cols.push(c.clone()),
            }
        }

        let mut layout = Layout::default();
        let mut op: Box<dyn Operator>;

        if file_cols.is_empty() && !pool_cols.is_empty() {
            self.note(format!(
                "scan {name} [shred pool] cols {:?}",
                pool_cols.iter().map(|(c, _)| c.name.as_str()).collect::<Vec<_>>()
            ));
            let shreds: Vec<Arc<SparseColumn>> =
                pool_cols.iter().map(|(_, s)| Arc::clone(s)).collect();
            for (c, _) in &pool_cols {
                layout.push(t, c.schema_idx);
            }
            op = Box::new(PoolScanOp::new(shreds, tag, batch)?);
            return Ok(Built { op, layout });
        }

        // File scan for the uncached columns.
        op = self.make_file_scan(q, t, name, def, &file_cols, tag, segment)?;
        for c in &file_cols {
            layout.push(t, c.schema_idx);
        }

        // Record what the scan reads (full columns) into the shred pool.
        if self.ctx.config.cache_shreds {
            let mut recordings = Vec::new();
            for (pos, c) in file_cols.iter().enumerate() {
                let sink: ShredSink = Arc::new(Mutex::new(SparseColumn::new(c.data_type, 0)));
                recordings.push((pos, Arc::clone(&sink)));
                self.harvests.shreds.push((name.to_owned(), c.name.clone(), sink));
            }
            if !recordings.is_empty() {
                op = Box::new(RecordingOp::new(op, tag, recordings));
            }
        }

        // Attach pool-served columns on top (cheap gathers).
        if !pool_cols.is_empty() {
            self.note(format!(
                "attach {name} cols {:?} from shred pool",
                pool_cols.iter().map(|(c, _)| c.name.as_str()).collect::<Vec<_>>()
            ));
            let shreds: Vec<Option<Arc<SparseColumn>>> =
                pool_cols.iter().map(|(_, s)| Some(Arc::clone(s))).collect();
            let fetcher = PoolBackedFetcher::new(shreds, None);
            op = Box::new(AttachFieldsOp::new(op, tag, Box::new(fetcher)));
            for (c, _) in &pool_cols {
                layout.push(t, c.schema_idx);
            }
        }

        Ok(Built { op, layout })
    }

    /// The raw-file scan itself (no pool interaction). With a `segment`, the
    /// scan covers one record-aligned morsel and emits provenance row ids
    /// from the segment's global range.
    #[allow(clippy::too_many_arguments)]
    fn make_file_scan(
        &mut self,
        q: &ResolvedQuery,
        t: usize,
        name: &str,
        def: &crate::catalog::TableDef,
        cols: &[ColRef],
        tag: TableTag,
        segment: Option<ScanSegment>,
    ) -> Result<Box<dyn Operator>> {
        let batch = self.ctx.config.batch_size;
        let jit = self.ctx.config.mode == AccessMode::Jit;

        match &def.source {
            TableSource::Csv { .. } => {
                let buf = self.read_file(def)?;
                let wanted = wanted_fields(def, cols)?;
                let posmap = self.ctx.posmaps.get(name).cloned();

                // Track positions (policy-resolved) only when no map exists
                // yet for this table.
                let record_positions = if posmap.is_none() {
                    let query_cols: Vec<usize> = query_source_ordinals(q, t, def);
                    self.ctx.config.posmap_policy.resolve(def.schema.len(), &query_cols)
                } else {
                    Vec::new()
                };

                let spec = AccessPathSpec {
                    format: FileFormat::Csv,
                    schema: def.schema.clone(),
                    wanted,
                    kind: AccessPathKind::FullScan,
                    record_positions,
                };
                let input = CsvScanInput {
                    buf,
                    spec: spec.clone(),
                    tag,
                    posmap: posmap.clone(),
                    batch_size: batch,
                };
                let sink: PosMapSink = Arc::new(Mutex::new(None));
                self.harvests.posmaps.push((name.to_owned(), Arc::clone(&sink)));

                let seg = segment.unwrap_or_default();
                if jit {
                    let key = spec.fingerprint() ^ posmap_fingerprint(posmap.as_deref());
                    let (program, hit) = self
                        .ctx
                        .templates
                        .get_or_compile(key, || compile_program(&spec, posmap.as_deref()));
                    let program: Arc<CsvProgram> = program;
                    self.note(format!(
                        "scan {name} [csv jit{}] cols {:?}",
                        if hit { ", template cache hit" } else { ", compiled" },
                        cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                    ));
                    let scan = JitCsvScan::new(input, program).with_segment(seg);
                    Ok(Box::new(HarvestPosMapOp::new(scan, sink)))
                } else {
                    self.note(format!(
                        "scan {name} [csv in-situ] cols {:?}",
                        cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                    ));
                    let scan = InSituCsvScan::new(input).with_segment(seg);
                    Ok(Box::new(HarvestPosMapOp::new(scan, sink)))
                }
            }
            TableSource::Fbin { .. } => {
                let buf = self.read_file(def)?;
                // Deterministic layouts publish the row count for free;
                // record it so shred-fullness checks and the cost model
                // have the truth.
                self.ctx.stats.record_rows(name, raw_formats::fbin::FbinLayout::parse(&buf)?.rows);
                let wanted = wanted_fields(def, cols)?;
                let spec = AccessPathSpec {
                    format: FileFormat::Fbin,
                    schema: def.schema.clone(),
                    wanted,
                    kind: AccessPathKind::FullScan,
                    record_positions: Vec::new(),
                };
                let input = FbinScanInput {
                    buf: Arc::clone(&buf),
                    spec: spec.clone(),
                    tag,
                    batch_size: batch,
                };
                let seg = segment.unwrap_or_default();
                if jit {
                    let layout = raw_formats::fbin::FbinLayout::parse(&buf)?;
                    let key = spec.fingerprint() ^ layout.rows;
                    let program_res: std::result::Result<FbinProgram, _> =
                        compile_fbin_program(&spec, &layout);
                    let program = program_res.map_err(EngineError::from)?;
                    let (program, hit) = self.ctx.templates.get_or_compile(key, move || program);
                    self.note(format!(
                        "scan {name} [fbin jit{}] cols {:?}",
                        if hit { ", template cache hit" } else { ", compiled" },
                        cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                    ));
                    Ok(Box::new(JitFbinScan::new(input, program).with_segment(seg)))
                } else {
                    self.note(format!(
                        "scan {name} [fbin in-situ] cols {:?}",
                        cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                    ));
                    Ok(Box::new(InSituFbinScan::new(input)?.with_segment(seg)))
                }
            }
            TableSource::Ibin { .. } => {
                let buf = self.read_file(def)?;
                let layout = IbinLayout::parse(&buf)?;
                // Publish the true row count: a pruned scan records a
                // *partial* shred, and fullness checks need the
                // denominator.
                self.ctx.stats.record_rows(name, layout.rows);
                let wanted = wanted_fields(def, cols)?;
                let spec = AccessPathSpec {
                    format: FileFormat::Ibin,
                    schema: def.schema.clone(),
                    wanted,
                    kind: AccessPathKind::FullScan,
                    record_positions: Vec::new(),
                };
                let input = IbinScanInput {
                    buf: Arc::clone(&buf),
                    spec: spec.clone(),
                    tag,
                    batch_size: batch,
                };
                let seg = segment.unwrap_or_default();
                if jit {
                    // The JIT path is query-aware: push this table's
                    // predicates into program generation so the embedded
                    // page index can prune (§4.1). Exact FilterOps stay
                    // above the scan, so pruning is free to be page-
                    // granular. Segmented (per-morsel) scans share the
                    // whole-file program — one compile, template-cached —
                    // and intersect its candidate ranges with their
                    // page-aligned segment, so per-morsel pruning counters
                    // sum to exactly the serial scan's.
                    let preds = ibin_prune_preds(q, t, def);
                    let key = spec.fingerprint() ^ layout.rows ^ prune_fingerprint(&preds);
                    let program =
                        compile_ibin_program(&spec, &layout, &preds).map_err(EngineError::from)?;
                    let pruned = program.rows_pruned;
                    let (program, hit) = self.ctx.templates.get_or_compile(key, move || program);
                    self.note(format!(
                        "scan {name} [ibin jit{}, index pruned {pruned} rows] cols {:?}",
                        if hit { ", template cache hit" } else { ", compiled" },
                        cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                    ));
                    Ok(Box::new(JitIbinScan::new(input, program).with_segment(seg)))
                } else {
                    // Query-agnostic: the index at the end of the file is
                    // invisible to a general-purpose scan operator.
                    self.note(format!(
                        "scan {name} [ibin in-situ, index unused] cols {:?}",
                        cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                    ));
                    Ok(Box::new(InSituIbinScan::new(input)?.with_segment(seg)))
                }
            }
            TableSource::RootEvents { .. } => {
                let file = self.open_root(def)?;
                let program = Arc::new(root_scalar_program(&file, def, cols)?);
                self.note(format!(
                    "scan {name} [rootsim events, id-based] cols {:?}",
                    cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                ));
                let scan = RootScalarScan::new(file, program, tag, batch)
                    .with_segment(segment.unwrap_or_default());
                Ok(Box::new(scan))
            }
            TableSource::RootCollection { collection, parent_scalar, .. } => {
                let file = self.open_root(def)?;
                let program = Arc::new(root_collection_program(
                    &file,
                    collection,
                    parent_scalar.as_deref(),
                    def,
                    cols,
                )?);
                self.note(format!(
                    "scan {name} [rootsim collection {collection}, id-based] cols {:?}",
                    cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                ));
                // A segment's rows are *event* ids; the scan resolves them
                // to its global item slice through the offsets table.
                let scan = RootCollectionScan::new(file, program, tag, batch)
                    .with_segment(segment.unwrap_or_default());
                Ok(Box::new(scan))
            }
        }
    }

    // -- late attaches ---------------------------------------------------------

    /// Attach `cols` of table `t` above `op` via a selection-driven fetcher.
    #[allow(clippy::too_many_arguments)]
    fn attach_columns(
        &mut self,
        q: &ResolvedQuery,
        op: Box<dyn Operator>,
        mut layout: Layout,
        t: usize,
        cols: &[ColRef],
        multi: bool,
        label: &str,
        tag: TableTag,
    ) -> Result<(Box<dyn Operator>, Layout)> {
        let name = q.tables[t].clone();
        let def = self.ctx.catalog.get(&name)?.clone();

        // Pool shreds (possibly partial) per column.
        let pool_shreds: Vec<Option<Arc<SparseColumn>>> =
            cols.iter().map(|c| self.ctx.pool.get(&name, &c.name)).collect();
        let any_pool = pool_shreds.iter().any(Option::is_some);

        let file_fetcher = self.make_file_fetcher(&def, cols, multi)?;
        let fetcher: Box<dyn FieldFetcher> = if any_pool {
            Box::new(PoolBackedFetcher::new(pool_shreds, file_fetcher))
        } else {
            match file_fetcher {
                Some(f) => f,
                None => {
                    return Err(EngineError::planning(format!(
                        "cannot fetch {}.{} late: no positional map and no cached shred",
                        name, cols[0].name
                    )))
                }
            }
        };

        self.note(format!(
            "attach {name} cols {:?} [{label}{}]",
            cols.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            if any_pool { ", pool-backed" } else { "" }
        ));

        let attach_base = layout.cols.len();
        let mut next: Box<dyn Operator> = Box::new(AttachFieldsOp::new(op, tag, fetcher));
        for c in cols {
            layout.push(t, c.schema_idx);
        }

        // Record the fetched (partial) columns into the pool.
        if self.ctx.config.cache_shreds {
            let mut recordings = Vec::new();
            for (i, c) in cols.iter().enumerate() {
                let sink: ShredSink = Arc::new(Mutex::new(SparseColumn::new(c.data_type, 0)));
                recordings.push((attach_base + i, Arc::clone(&sink)));
                self.harvests.shreds.push((name.clone(), c.name.clone(), sink));
            }
            next = Box::new(RecordingOp::new(next, tag, recordings));
        }

        Ok((next, layout))
    }

    /// Build the raw-file fetcher for `cols`, or `None` when the file cannot
    /// serve selection-driven reads (CSV without a usable positional map).
    fn make_file_fetcher(
        &mut self,
        def: &crate::catalog::TableDef,
        cols: &[ColRef],
        multi: bool,
    ) -> Result<Option<Box<dyn FieldFetcher>>> {
        match &def.source {
            TableSource::Csv { .. } => {
                let Some(posmap) = self.ctx.posmaps.get(&def.name).cloned() else {
                    return Ok(None);
                };
                let buf = self.read_file(def)?;
                let wanted: Vec<(usize, raw_columnar::DataType)> = cols
                    .iter()
                    .map(|c| {
                        def.schema
                            .field(c.schema_idx)
                            .map(|f| (f.source_ordinal, f.data_type))
                            .map_err(EngineError::from)
                    })
                    .collect::<Result<_>>()?;
                if multi && cols.len() > 1 {
                    match CsvMultiFetcher::compile(buf, posmap, &wanted) {
                        Ok(f) => Ok(Some(Box::new(f))),
                        Err(_) => Ok(None),
                    }
                } else {
                    match CsvJitFetcher::compile(buf, posmap, &wanted) {
                        Ok(f) => Ok(Some(Box::new(f))),
                        Err(_) => Ok(None),
                    }
                }
            }
            TableSource::Fbin { .. } => {
                let buf = self.read_file(def)?;
                let layout = raw_formats::fbin::FbinLayout::parse(&buf)?;
                let wanted = wanted_fields(def, cols)?;
                let spec = AccessPathSpec {
                    format: FileFormat::Fbin,
                    schema: def.schema.clone(),
                    wanted,
                    kind: AccessPathKind::SelectionDriven,
                    record_positions: Vec::new(),
                };
                let program = Arc::new(compile_fbin_program(&spec, &layout)?);
                Ok(Some(Box::new(FbinFetcher::new(buf, program))))
            }
            TableSource::Ibin { .. } => {
                let buf = self.read_file(def)?;
                let layout = IbinLayout::parse(&buf)?;
                let wanted = wanted_fields(def, cols)?;
                let spec = AccessPathSpec {
                    format: FileFormat::Ibin,
                    schema: def.schema.clone(),
                    wanted,
                    kind: AccessPathKind::SelectionDriven,
                    record_positions: Vec::new(),
                };
                // Selection-driven reads address rows directly; no pruning
                // predicates apply.
                let program = Arc::new(compile_ibin_program(&spec, &layout, &[])?);
                Ok(Some(Box::new(IbinFetcher::new(buf, program))))
            }
            TableSource::RootEvents { .. } => {
                let file = self.open_root(def)?;
                let program = Arc::new(root_scalar_program(&file, def, cols)?);
                Ok(Some(Box::new(RootScalarFetcher::new(file, program))))
            }
            TableSource::RootCollection { collection, parent_scalar, .. } => {
                let file = self.open_root(def)?;
                let program = Arc::new(root_collection_program(
                    &file,
                    collection,
                    parent_scalar.as_deref(),
                    def,
                    cols,
                )?);
                Ok(Some(Box::new(RootCollectionFetcher::new(file, program))))
            }
        }
    }

    // -- file plumbing ---------------------------------------------------------

    fn read_file(&mut self, def: &crate::catalog::TableDef) -> Result<FileBytes> {
        if let Some(stream) = &self.stream {
            if *def.source.path() == stream.path {
                // Served from the in-flight streaming read the parallel
                // planner started: same buffer every morsel, counted as the
                // pool hit the blocking path would have charged, and no
                // full-residency wait — the availability gates downstream
                // guarantee a morsel only reads resident bytes.
                self.ctx.files.note_stream_hit();
                return Ok(Arc::clone(stream.chunked.bytes()));
            }
        }
        Ok(self.ctx.files.read(def.source.path())?)
    }

    fn open_root(&mut self, def: &crate::catalog::TableDef) -> Result<Arc<RootSimFile>> {
        let path = def.source.path().clone();
        if let Some(f) = self.ctx.root_files.get(&path) {
            return Ok(f);
        }
        let buf = self.read_file(def)?;
        let file = Arc::new(RootSimFile::open_bytes(buf)?);
        // First-publish-wins: a racing planner's parse of the same bytes is
        // equivalent; adopt whichever handle landed first.
        Ok(self.ctx.root_files.publish(path, file))
    }

    fn ensure_loaded(
        &mut self,
        name: &str,
        def: &crate::catalog::TableDef,
    ) -> Result<Arc<MemTable>> {
        if let Some(t) = self.ctx.loaded.get(name) {
            return Ok(t);
        }
        self.note(format!("load {name} into DBMS columnar storage (all columns)"));
        let table = match &def.source {
            TableSource::Csv { .. } => {
                check_contiguous(def)?;
                let buf = self.read_file(def)?;
                raw_formats::csv::reader::read_table(&buf, &def.schema)?
            }
            TableSource::Fbin { .. } => {
                let buf = self.read_file(def)?;
                raw_formats::fbin::read_table(&buf, &def.schema)?
            }
            TableSource::Ibin { .. } => {
                let buf = self.read_file(def)?;
                raw_formats::ibin::read_table(&buf, &def.schema)?
            }
            TableSource::RootEvents { .. } | TableSource::RootCollection { .. } => {
                // Load by draining the rootsim scans over every declared
                // column.
                let all: Vec<ColRef> = def
                    .schema
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(i, f)| ColRef {
                        table: 0,
                        name: f.name.clone(),
                        schema_idx: i,
                        data_type: f.data_type,
                    })
                    .collect();
                let file = self.open_root(def)?;
                let op: Box<dyn Operator> = match &def.source {
                    TableSource::RootEvents { .. } => {
                        let program = Arc::new(root_scalar_program(&file, def, &all)?);
                        Box::new(RootScalarScan::new(
                            file,
                            program,
                            TableTag(0),
                            self.ctx.config.batch_size,
                        ))
                    }
                    TableSource::RootCollection { collection, parent_scalar, .. } => {
                        let program = Arc::new(root_collection_program(
                            &file,
                            collection,
                            parent_scalar.as_deref(),
                            def,
                            &all,
                        )?);
                        Box::new(RootCollectionScan::new(
                            file,
                            program,
                            TableTag(0),
                            self.ctx.config.batch_size,
                        ))
                    }
                    _ => unreachable!("outer match"),
                };
                let mut op = op;
                let batches = raw_columnar::ops::drain(op.as_mut())?;
                MemTable::from_batches(def.schema.clone(), &batches)?
            }
        };
        let table = Arc::new(table);
        // A loaded table is a complete statistics sample: histogram every
        // numeric column for later Adaptive decisions.
        self.ctx.stats.record_rows(name, table.rows() as u64);
        for (i, f) in def.schema.fields().iter().enumerate() {
            if f.data_type.is_numeric() {
                if let Ok(col) = table.column(i) {
                    self.ctx.stats.record_column(name, &f.name, col);
                }
            }
        }
        // First-publish-wins: two sessions racing to load the same table
        // built equivalent copies; everyone adopts the winner so exactly one
        // copy stays resident.
        Ok(self.ctx.loaded.publish(name, table))
    }
}

// ---------------------------------------------------------------------------
// Free helpers
// ---------------------------------------------------------------------------

fn predicate(pos: usize, op: CmpOp, value: &raw_columnar::Value) -> Predicate {
    Predicate::Cmp { col: pos, op, lit: value.clone() }
}

/// Slice the query per table: filters, join keys, and deduplicated output
/// columns attributed to their owning side, with the grouping key forced
/// into its table's outputs even when the select list only aggregates
/// (`SELECT COUNT(col2) … GROUP BY col1`). Shared by the serial planner and
/// the parallel planner so the two can never slice differently.
fn slice_per_table(q: &ResolvedQuery) -> Vec<TableCols> {
    let mut per_table: Vec<TableCols> = (0..q.tables.len())
        .map(|_| TableCols { filters: Vec::new(), join_key: None, outputs: Vec::new() })
        .collect();
    for f in &q.filters {
        per_table[f.col.table].filters.push(f.clone());
    }
    if let Some(j) = &q.join {
        per_table[0].join_key = Some(j.probe_col.clone());
        per_table[1].join_key = Some(j.build_col.clone());
    }
    for o in &q.outputs {
        let t = o.col.table;
        if !per_table[t].outputs.iter().any(|c| c.schema_idx == o.col.schema_idx) {
            per_table[t].outputs.push(o.col.clone());
        }
    }
    if let Some(g) = &q.group_by {
        if !per_table[g.table].outputs.iter().any(|c| c.schema_idx == g.schema_idx) {
            per_table[g.table].outputs.push(g.clone());
        }
    }
    per_table
}

/// The resolved top of a grouped-aggregation plan.
struct GroupedTop {
    /// Grouping-key position in the pipeline layout.
    key_pos: usize,
    /// Aggregate expressions over pipeline positions.
    exprs: Vec<AggExpr>,
    /// Projection over the `[key, agg₀, agg₁, …]` hash-aggregate output
    /// restoring select-list order.
    out_positions: Vec<usize>,
    /// Output column names in select-list order.
    names: Vec<String>,
}

/// Resolve a grouped select list against a pipeline layout. Shared by the
/// serial plan top ([`Planner::plan_query`]) and the parallel plan's
/// `MergePlan::Grouped` construction so the two can never drift.
fn grouped_top(q: &ResolvedQuery, layout: &Layout) -> Result<GroupedTop> {
    let g = q.group_by.as_ref().expect("grouped query");
    let key_pos = layout
        .position(g.table, g.schema_idx)
        .ok_or_else(|| EngineError::planning("group key not in layout"))?;
    // The hash aggregate emits [key, agg₀, agg₁, …]; remember where each
    // select item lands so a projection can restore the select-list order.
    let mut exprs = Vec::new();
    let mut out_positions = Vec::with_capacity(q.outputs.len());
    let mut names = Vec::with_capacity(q.outputs.len());
    for o in &q.outputs {
        match o.agg {
            Some(kind) => {
                let pos = layout
                    .position(o.col.table, o.col.schema_idx)
                    .ok_or_else(|| EngineError::planning("aggregate column not in layout"))?;
                exprs.push(AggExpr { kind, col: pos });
                out_positions.push(exprs.len()); // key occupies slot 0
                names.push(format!("{}({})", kind.sql(), o.col.name));
            }
            None => {
                out_positions.push(0);
                names.push(o.col.name.clone());
            }
        }
    }
    Ok(GroupedTop { key_pos, exprs, out_positions, names })
}

/// Resolve an all-aggregates select list against a pipeline layout: the
/// aggregate expressions (batch positions) and the output column names.
/// Shared by the serial plan top ([`Planner::plan_query`]) and the parallel
/// plan's merge construction so the two can never drift.
fn aggregate_exprs(q: &ResolvedQuery, layout: &Layout) -> Result<(Vec<AggExpr>, Vec<String>)> {
    let mut exprs = Vec::with_capacity(q.outputs.len());
    let mut names = Vec::with_capacity(q.outputs.len());
    for o in &q.outputs {
        let pos = layout
            .position(o.col.table, o.col.schema_idx)
            .ok_or_else(|| EngineError::planning("aggregate column not in layout"))?;
        let kind = o.agg.expect("is_aggregate");
        exprs.push(AggExpr { kind, col: pos });
        names.push(format!("{}({})", kind.sql(), o.col.name));
    }
    Ok((exprs, names))
}

/// Resolve a plain select list against a pipeline layout: projected batch
/// positions and output column names. Shared by the serial and parallel
/// plan tops.
fn projection_positions(q: &ResolvedQuery, layout: &Layout) -> Result<(Vec<usize>, Vec<String>)> {
    let mut cols = Vec::with_capacity(q.outputs.len());
    let mut names = Vec::with_capacity(q.outputs.len());
    for o in &q.outputs {
        let pos = layout
            .position(o.col.table, o.col.schema_idx)
            .ok_or_else(|| EngineError::planning("projected column not in layout"))?;
        cols.push(pos);
        names.push(o.col.name.clone());
    }
    Ok((cols, names))
}

fn wanted_fields(def: &crate::catalog::TableDef, cols: &[ColRef]) -> Result<Vec<WantedField>> {
    cols.iter()
        .map(|c| {
            def.schema
                .field(c.schema_idx)
                .map(|f| WantedField { source_ordinal: f.source_ordinal, data_type: f.data_type })
                .map_err(EngineError::from)
        })
        .collect()
}

/// Source ordinals of every column the query touches on table `t` (feeds the
/// tracking policy's `QueryColumns` mode).
fn query_source_ordinals(
    q: &ResolvedQuery,
    t: usize,
    def: &crate::catalog::TableDef,
) -> Vec<usize> {
    let mut out = Vec::new();
    let mut add = |c: &ColRef| {
        if c.table == t {
            if let Ok(f) = def.schema.field(c.schema_idx) {
                out.push(f.source_ordinal);
            }
        }
    };
    for f in &q.filters {
        add(&f.col);
    }
    if let Some(j) = &q.join {
        add(&j.probe_col);
        add(&j.build_col);
    }
    for o in &q.outputs {
        add(&o.col);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// This table's filter conjuncts as pushed-down pruning predicates
/// (file-ordinal column references). Incomparable literals are passed
/// through; the zone tests simply decline to prune on them.
fn ibin_prune_preds(q: &ResolvedQuery, t: usize, def: &crate::catalog::TableDef) -> Vec<PrunePred> {
    q.filters
        .iter()
        .filter(|f| f.col.table == t)
        .filter_map(|f| {
            def.schema.field(f.col.schema_idx).ok().map(|field| PrunePred {
                col: field.source_ordinal,
                op: f.op,
                value: f.value.clone(),
            })
        })
        .collect()
}

fn posmap_fingerprint(map: Option<&PositionalMap>) -> u64 {
    let mut h: u64 = 0x9e3779b97f4a7c15;
    if let Some(map) = map {
        for &c in map.tracked_columns() {
            h ^= (c as u64).wrapping_add(0x632be59bd9b4e019);
            h = h.rotate_left(17).wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn check_contiguous(def: &crate::catalog::TableDef) -> Result<()> {
    let contiguous = def.schema.fields().iter().enumerate().all(|(i, f)| f.source_ordinal == i);
    if contiguous {
        Ok(())
    } else {
        Err(EngineError::planning(format!(
            "loading table {} requires a fully-declared contiguous schema",
            def.name
        )))
    }
}

fn root_scalar_program(
    file: &RootSimFile,
    def: &crate::catalog::TableDef,
    cols: &[ColRef],
) -> Result<RootScalarProgram> {
    let mut branches = Vec::with_capacity(cols.len());
    for c in cols {
        let field = def.schema.field(c.schema_idx)?;
        let id = file.scalar_branch(&field.name).ok_or_else(|| {
            EngineError::planning(format!("no scalar branch named {}", field.name))
        })?;
        let dt = file.scalar_type(id);
        if dt != field.data_type {
            return Err(EngineError::planning(format!(
                "branch {} is {dt}, schema declares {}",
                field.name, field.data_type
            )));
        }
        branches.push((id, dt));
    }
    Ok(RootScalarProgram { branches })
}

fn root_collection_program(
    file: &RootSimFile,
    collection: &str,
    parent_scalar: Option<&str>,
    def: &crate::catalog::TableDef,
    cols: &[ColRef],
) -> Result<RootCollectionProgram> {
    let coll = file
        .collection(collection)
        .ok_or_else(|| EngineError::planning(format!("no collection named {collection}")))?;
    let mut fields = Vec::with_capacity(cols.len());
    for c in cols {
        let field = def.schema.field(c.schema_idx)?;
        if parent_scalar == Some(field.name.as_str()) {
            let id = file.scalar_branch(&field.name).ok_or_else(|| {
                EngineError::planning(format!("no scalar branch named {}", field.name))
            })?;
            fields.push((RootColField::ParentScalar(id), file.scalar_type(id)));
        } else {
            let id = file.field(coll, &field.name).ok_or_else(|| {
                EngineError::planning(format!("no field {} in collection {collection}", field.name))
            })?;
            fields.push((RootColField::Item(id), file.field_type(coll, id)));
        }
    }
    Ok(RootCollectionProgram { coll, fields })
}

// ---------------------------------------------------------------------------
// Standalone entry points for hand-assembled plans (the Higgs pipeline)
// ---------------------------------------------------------------------------

/// Build a bottom scan over `cols` of one table with a caller-chosen
/// provenance tag, including pool serving, recording, and posmap harvesting.
pub(crate) fn standalone_scan(
    ctx: &PlannerCtx<'_>,
    q: &ResolvedQuery,
    cols: &[ColRef],
    tag: TableTag,
) -> Result<(Box<dyn Operator>, Harvests)> {
    let mut planner =
        Planner { ctx, explain: Vec::new(), harvests: Harvests::default(), stream: None };
    let built = planner.make_scan(q, 0, cols, tag, None)?;
    Ok((built.op, std::mem::take(&mut planner.harvests)))
}

/// Attach `cols` of a table above an existing operator (late scan) with a
/// caller-chosen tag, including pool backing and shred recording.
pub(crate) fn standalone_attach(
    ctx: &PlannerCtx<'_>,
    q: &ResolvedQuery,
    op: Box<dyn Operator>,
    cols: &[ColRef],
    multi: bool,
    tag: TableTag,
) -> Result<(Box<dyn Operator>, Harvests)> {
    let mut planner =
        Planner { ctx, explain: Vec::new(), harvests: Harvests::default(), stream: None };
    let layout = Layout::default();
    let (next, _) = planner.attach_columns(q, op, layout, 0, cols, multi, "custom attach", tag)?;
    Ok((next, std::mem::take(&mut planner.harvests)))
}
