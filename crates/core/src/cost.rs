//! A cost model for raw-data access paths.
//!
//! The paper closes with: *"Future work includes … developing a
//! comprehensive cost model for our methods to enable their integration
//! with existing query optimizers"* (§8). This module is that cost model.
//! It prices the alternatives the planner weighs — full columns vs. column
//! shreds vs. speculative multi-column shreds (§5), and the Early /
//! Intermediate / Late materialization points around a join (§5.3.2) — in
//! nanoseconds per value, using the same cost taxonomy the paper's Figure 3
//! breakdown measures: *locate* (tokenize/parse or jump), *convert*
//! (text → native type), and *build* (populate columnar structures).
//!
//! The decisions it drives are regime decisions: Figures 5–9 and 11–12 show
//! crossovers that move by tens of percent of selectivity, so the model
//! needs the right *ratios* between cost terms, not cycle-accurate
//! absolutes. The default constants are hand-set and still need a
//! derivation from measured layer costs.
//!
//! Selectivities come from [`crate::table_stats::StatsRegistry`] histograms
//! that earlier queries harvested — the same "leverage information
//! available at query time" adaptivity that powers positional maps and the
//! shred pool. With no histogram yet, [`CostModel::default_selectivity`]
//! applies.

use raw_columnar::DataType;

use crate::engine::{JoinPlacement, ShredStrategy};

/// How a CSV column can be located for a selection-driven (late) read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PosmapAvail {
    /// The column itself is tracked: one jump per row.
    Exact,
    /// A preceding column is tracked: jump, then skip this many fields.
    Nearest {
        /// Fields to parse over between the tracked and requested column.
        skip_fields: usize,
    },
    /// No usable tracked column: late reads are infeasible.
    None,
}

/// The raw-format families the model prices (formats with the same access
/// physics share a family).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanFormat {
    /// Delimiter-separated text; late reads need a positional map.
    Csv(PosmapAvail),
    /// Fixed-width binary (fbin/ibin): offsets computable, no conversion.
    FixedBinary,
    /// Library-mediated nested format (rootsim): per-value API call.
    Root,
}

/// One filter stage as the model sees it: the column's type and the
/// estimated selectivity of the predicate on it.
#[derive(Debug, Clone, Copy)]
pub struct FilterDesc {
    /// Type of the filtered column.
    pub data_type: DataType,
    /// Estimated fraction of rows that survive this predicate.
    pub selectivity: f64,
}

/// Input to [`CostModel::choose_strategy`].
#[derive(Debug, Clone)]
pub struct StrategyInput {
    /// Format family of the scanned file.
    pub format: ScanFormat,
    /// Row count (any positive stand-in works: all terms scale linearly,
    /// so the decision is row-count-invariant).
    pub rows: f64,
    /// Filter stages in plan order.
    pub filters: Vec<FilterDesc>,
    /// Output (projected/aggregated) columns not already read by a filter.
    pub outputs: Vec<DataType>,
}

/// Which side of a hash join a table feeds (§5.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinSide {
    /// Probe side: join output preserves this side's row order, so late
    /// fetches stay sequential ("Pipelined", Fig. 11).
    Pipelined,
    /// Build side: join output shuffles this side's rows, so late fetches
    /// become random accesses ("Pipeline-breaking", Fig. 12).
    Breaking,
}

/// Input to [`CostModel::choose_join_placement`].
#[derive(Debug, Clone)]
pub struct PlacementInput {
    /// Format family of this side's file.
    pub format: ScanFormat,
    /// This side's row count (stand-in allowed, as above).
    pub rows: f64,
    /// Combined selectivity of this side's own filters.
    pub filter_selectivity: f64,
    /// Fraction of this side's filtered rows that survive the join.
    pub join_retention: f64,
    /// Columns to materialize at the chosen point.
    pub cols: Vec<DataType>,
}

/// A priced decision: the choice plus the per-alternative estimates
/// (nanoseconds) that justify it, for plan explanations.
#[derive(Debug, Clone)]
pub struct Decision<C> {
    /// The winning alternative.
    pub choice: C,
    /// `(label, estimated ns)` per alternative considered.
    pub estimates: Vec<(&'static str, f64)>,
}

impl<C: std::fmt::Debug> Decision<C> {
    /// Render for an `EXPLAIN` line: `Shreds (full=1.2ms shreds=0.3ms …)`.
    pub fn explain(&self) -> String {
        let alts = self
            .estimates
            .iter()
            .map(|(l, ns)| format!("{l}={:.3}ms", ns / 1e6))
            .collect::<Vec<_>>()
            .join(" ");
        format!("{:?} ({alts})", self.choice)
    }
}

/// Per-operation cost constants, in nanoseconds.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Tokenizing CSV text, per byte (delimiter scan + branch).
    pub csv_tokenize_per_byte: f64,
    /// Average serialized field width in bytes (field + delimiter).
    pub csv_avg_field_bytes: f64,
    /// One positional-map jump (pointer chase + bounds).
    pub csv_posmap_jump: f64,
    /// Incrementally parsing over one field after a nearest-position jump.
    pub csv_skip_field: f64,
    /// Converting one integer field from text.
    pub convert_int: f64,
    /// Converting one float field from text (the paper: visibly pricier).
    pub convert_float: f64,
    /// Copying one fixed-width binary value (no conversion needed).
    pub bin_value: f64,
    /// Random-access surcharge for one out-of-order binary value.
    pub bin_random_extra: f64,
    /// One library-mediated read (rootsim `read_field`-style call).
    pub root_call: f64,
    /// Appending one value to a columnar structure.
    pub build_value: f64,
    /// Multiplier on late-fetch locate costs when the driving positions
    /// are shuffled (the Fig. 12 DTLB-miss regime).
    pub shuffle_penalty: f64,
    /// Reading one *additional adjacent* field after locating a row
    /// (the speculative multi-column discount, §5.3.1).
    pub nearby_field: f64,
    /// Selectivity assumed when no histogram is available.
    pub default_selectivity: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Hand-set constants with no recorded derivation yet: ~1 ns/byte
        // tokenize, conversions tens of ns (floats ≈ 2× ints), binary reads
        // an order of magnitude cheaper than text, random access a few
        // times dearer than sequential. They still need deriving from
        // measured layer costs.
        CostModel {
            csv_tokenize_per_byte: 1.0,
            csv_avg_field_bytes: 9.0,
            csv_posmap_jump: 25.0,
            csv_skip_field: 18.0,
            convert_int: 14.0,
            convert_float: 28.0,
            bin_value: 2.5,
            bin_random_extra: 7.0,
            root_call: 20.0,
            build_value: 8.0,
            shuffle_penalty: 3.5,
            nearby_field: 10.0,
            default_selectivity: 0.5,
        }
    }
}

impl CostModel {
    // -- per-value primitives ------------------------------------------------

    /// Converting one field of `dt` to its native representation.
    pub fn convert_cost(&self, format: ScanFormat, dt: DataType) -> f64 {
        match format {
            // Binary formats store native representations: no conversion.
            ScanFormat::FixedBinary | ScanFormat::Root => 0.0,
            ScanFormat::Csv(_) => match dt {
                DataType::Float32 | DataType::Float64 => self.convert_float,
                _ => self.convert_int,
            },
        }
    }

    /// Reading one value of `dt` in a *sequential full scan*.
    pub fn seq_value_cost(&self, format: ScanFormat, dt: DataType) -> f64 {
        let locate = match format {
            ScanFormat::Csv(_) => self.csv_tokenize_per_byte * self.csv_avg_field_bytes,
            ScanFormat::FixedBinary => self.bin_value,
            ScanFormat::Root => self.root_call,
        };
        locate + self.convert_cost(format, dt) + self.build_value
    }

    /// Locating one row's field for a *selection-driven late fetch*,
    /// excluding conversion and column building. `ordered` is false when
    /// the driving row ids have been shuffled (pipeline-breaking join
    /// side). Returns `None` when the format cannot serve late reads
    /// (CSV without a usable positional map).
    pub fn late_locate_cost(&self, format: ScanFormat, ordered: bool) -> Option<f64> {
        let locate = match format {
            ScanFormat::Csv(PosmapAvail::Exact) => self.csv_posmap_jump,
            ScanFormat::Csv(PosmapAvail::Nearest { skip_fields }) => {
                self.csv_posmap_jump + self.csv_skip_field * skip_fields as f64
            }
            ScanFormat::Csv(PosmapAvail::None) => return None,
            ScanFormat::FixedBinary => self.bin_value + self.bin_random_extra,
            ScanFormat::Root => self.root_call,
        };
        Some(if ordered { locate } else { locate * self.shuffle_penalty })
    }

    /// Reading one value of `dt` in a *selection-driven late fetch*
    /// (locate + convert + build), or `None` when infeasible.
    pub fn late_value_cost(&self, format: ScanFormat, dt: DataType, ordered: bool) -> Option<f64> {
        self.late_locate_cost(format, ordered)
            .map(|l| l + self.convert_cost(format, dt) + self.build_value)
    }

    /// Reading one value of `dt` in the *bottom scan* of a plan. Once a
    /// positional map exists, CSV bottom scans jump like late fetches do
    /// (the Q2-and-later regime in which adaptive decisions have data);
    /// without one they tokenize sequentially, like every other format's
    /// streaming read.
    pub fn bottom_value_cost(&self, format: ScanFormat, dt: DataType) -> f64 {
        match format {
            ScanFormat::Csv(PosmapAvail::None) | ScanFormat::FixedBinary | ScanFormat::Root => {
                self.seq_value_cost(format, dt)
            }
            ScanFormat::Csv(_) => self
                .late_value_cost(format, dt, true)
                .unwrap_or_else(|| self.seq_value_cost(format, dt)),
        }
    }

    // -- strategy choice (§5: full columns vs shreds vs multi-column) --------

    /// Price the three materialization strategies for one table's pipeline
    /// and pick the cheapest (§5.2, §5.3.1).
    pub fn choose_strategy(&self, input: &StrategyInput) -> Decision<ShredStrategy> {
        let n = input.rows.max(1.0);

        // Full columns: every needed column rides the bottom scan.
        let mut full = 0.0;
        for f in &input.filters {
            full += n * self.bottom_value_cost(input.format, f.data_type);
        }
        for &dt in &input.outputs {
            full += n * self.bottom_value_cost(input.format, dt);
        }

        // Column shreds: anchor on the first filter, fetch each later
        // column for surviving rows only.
        let mut shreds = 0.0;
        let mut feasible = true;
        let mut surviving = 1.0;
        for (i, f) in input.filters.iter().enumerate() {
            if i == 0 {
                shreds += n * self.bottom_value_cost(input.format, f.data_type);
            } else {
                match self.late_value_cost(input.format, f.data_type, true) {
                    Some(c) => shreds += n * surviving * c,
                    None => feasible = false,
                }
            }
            surviving *= f.selectivity.clamp(0.0, 1.0);
        }
        for &dt in &input.outputs {
            match self.late_value_cost(input.format, dt, true) {
                Some(c) => shreds += n * surviving * c,
                None => feasible = false,
            }
        }

        // Multi-column shreds: one locate pass after the first filter
        // speculatively reads all remaining columns (§5.3.1) — cheap
        // adjacent reads, but at the *first* filter's selectivity.
        let mut multi = 0.0;
        let mut multi_applicable =
            input.filters.len() + input.outputs.len() > 2 && !input.filters.is_empty();
        if let Some(first) = input.filters.first() {
            multi += n * self.bottom_value_cost(input.format, first.data_type);
            let after_first = first.selectivity.clamp(0.0, 1.0);
            let group: Vec<DataType> = input
                .filters
                .iter()
                .skip(1)
                .map(|f| f.data_type)
                .chain(input.outputs.iter().copied())
                .collect();
            match self.late_locate_cost(input.format, true) {
                Some(locate_once) => {
                    // One locate per surviving row, then adjacent reads.
                    multi += n * after_first * locate_once;
                    for dt in group {
                        multi += n
                            * after_first
                            * (self.nearby_field
                                + self.convert_cost(input.format, dt)
                                + self.build_value);
                    }
                }
                None => multi_applicable = false,
            }
        }

        let mut estimates = vec![("full", full)];
        if feasible {
            estimates.push(("shreds", shreds));
        }
        if multi_applicable {
            estimates.push(("multi", multi));
        }
        let choice = match estimates.iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|(l, _)| *l) {
            Some("shreds") => ShredStrategy::ColumnShreds,
            Some("multi") => ShredStrategy::MultiColumnShreds,
            _ => ShredStrategy::FullColumns,
        };
        Decision { choice, estimates }
    }

    // -- join placement (§5.3.2: Early / Intermediate / Late) ----------------

    /// Price the materialization points for one join side's projected
    /// columns and pick the cheapest (Figures 11 and 12).
    pub fn choose_join_placement(
        &self,
        side: JoinSide,
        input: &PlacementInput,
    ) -> Decision<JoinPlacement> {
        let n = input.rows.max(1.0);
        let f_sel = input.filter_selectivity.clamp(0.0, 1.0);
        let j_sel = (input.filter_selectivity * input.join_retention).clamp(0.0, 1.0);

        let seq: f64 = input.cols.iter().map(|&dt| self.bottom_value_cost(input.format, dt)).sum();
        let late_ordered: f64 = input
            .cols
            .iter()
            .map(|&dt| self.late_value_cost(input.format, dt, true).unwrap_or(f64::INFINITY))
            .sum();
        let late_shuffled: f64 = input
            .cols
            .iter()
            .map(|&dt| self.late_value_cost(input.format, dt, false).unwrap_or(f64::INFINITY))
            .sum();

        // Early: in the bottom scan, before anything filters.
        let early = n * seq;
        // Intermediate: after this side's own filters, still in row order.
        let intermediate = n * f_sel * late_ordered;
        // Late: above the join; ordered on the pipelined side, shuffled on
        // the breaking side.
        let late = match side {
            JoinSide::Pipelined => n * j_sel * late_ordered,
            JoinSide::Breaking => n * j_sel * late_shuffled,
        };

        let estimates = vec![("early", early), ("intermediate", intermediate), ("late", late)];
        let choice = match estimates.iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|(l, _)| *l) {
            Some("early") => JoinPlacement::Early,
            Some("intermediate") => JoinPlacement::Intermediate,
            _ => JoinPlacement::Late,
        };
        Decision { choice, estimates }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn csv_exact() -> ScanFormat {
        ScanFormat::Csv(PosmapAvail::Exact)
    }

    fn strategy_input(sel: f64, format: ScanFormat) -> StrategyInput {
        StrategyInput {
            format,
            rows: 1e6,
            filters: vec![FilterDesc { data_type: DataType::Int64, selectivity: sel }],
            outputs: vec![DataType::Int64],
        }
    }

    #[test]
    fn low_selectivity_prefers_shreds() {
        let m = CostModel::default();
        let d = m.choose_strategy(&strategy_input(0.01, csv_exact()));
        assert_eq!(d.choice, ShredStrategy::ColumnShreds, "{}", d.explain());
    }

    #[test]
    fn full_selectivity_prefers_full_columns() {
        // At 100% selectivity the shred path reads every value the full
        // path reads (Fig. 5: the curves converge and become equal); on
        // the tie the model keeps the simpler full-column plan.
        let m = CostModel::default();
        let d = m.choose_strategy(&strategy_input(1.0, csv_exact()));
        assert_eq!(d.choice, ShredStrategy::FullColumns, "{}", d.explain());
        let full = d.estimates.iter().find(|(l, _)| *l == "full").expect("has full").1;
        let shreds = d.estimates.iter().find(|(l, _)| *l == "shreds").expect("has shreds").1;
        assert!((full - shreds).abs() < full * 1e-9, "converged curves at 100%");
    }

    #[test]
    fn csv_without_posmap_forces_full() {
        let m = CostModel::default();
        let d = m.choose_strategy(&strategy_input(0.01, ScanFormat::Csv(PosmapAvail::None)));
        assert_eq!(d.choice, ShredStrategy::FullColumns);
        assert_eq!(d.estimates.len(), 1, "infeasible paths must not be offered");
    }

    #[test]
    fn multi_column_wins_with_many_nearby_fields_at_mid_selectivity() {
        // Fig. 9: beyond ~40% selectivity, per-stage locates dominate and
        // the speculative one-pass read wins.
        let m = CostModel::default();
        let input = StrategyInput {
            format: ScanFormat::Csv(PosmapAvail::Nearest { skip_fields: 3 }),
            rows: 1e6,
            filters: vec![
                FilterDesc { data_type: DataType::Int64, selectivity: 0.6 },
                FilterDesc { data_type: DataType::Int64, selectivity: 0.6 },
            ],
            outputs: vec![DataType::Int64],
        };
        let d = m.choose_strategy(&input);
        assert_eq!(d.choice, ShredStrategy::MultiColumnShreds, "{}", d.explain());
    }

    #[test]
    fn decision_scale_invariant_in_rows() {
        let m = CostModel::default();
        for sel in [0.01, 0.3, 0.7, 1.0] {
            let small = m.choose_strategy(&StrategyInput {
                rows: 100.0,
                ..strategy_input(sel, csv_exact())
            });
            let large =
                m.choose_strategy(&StrategyInput { rows: 1e9, ..strategy_input(sel, csv_exact()) });
            assert_eq!(small.choice, large.choice, "sel={sel}");
        }
    }

    #[test]
    fn pipelined_side_prefers_late_at_low_selectivity() {
        let m = CostModel::default();
        let d = m.choose_join_placement(
            JoinSide::Pipelined,
            &PlacementInput {
                format: csv_exact(),
                rows: 1e6,
                filter_selectivity: 1.0,
                join_retention: 0.05,
                cols: vec![DataType::Int64],
            },
        );
        assert_eq!(d.choice, JoinPlacement::Late, "{}", d.explain());
    }

    #[test]
    fn breaking_side_abandons_late_at_high_selectivity() {
        // Fig. 12: shuffled positions make late fetches random; past mid
        // selectivity late loses even to early.
        let m = CostModel::default();
        let mk = |ret: f64| PlacementInput {
            format: csv_exact(),
            rows: 1e6,
            filter_selectivity: 1.0,
            join_retention: ret,
            cols: vec![DataType::Int64],
        };
        let low = m.choose_join_placement(JoinSide::Breaking, &mk(0.02));
        assert_eq!(low.choice, JoinPlacement::Late, "{}", low.explain());
        let high = m.choose_join_placement(JoinSide::Breaking, &mk(1.0));
        assert_ne!(high.choice, JoinPlacement::Late, "{}", high.explain());
    }

    #[test]
    fn breaking_side_intermediate_between_regimes() {
        // With filters pre-shrinking the side, the intermediate point reads
        // fewer rows than early and stays sequential, beating shuffled late
        // at high join retention (Fig. 12 "Intermediate").
        let m = CostModel::default();
        let d = m.choose_join_placement(
            JoinSide::Breaking,
            &PlacementInput {
                format: csv_exact(),
                rows: 1e6,
                filter_selectivity: 0.4,
                join_retention: 1.0,
                cols: vec![DataType::Int64],
            },
        );
        assert_eq!(d.choice, JoinPlacement::Intermediate, "{}", d.explain());
    }

    #[test]
    fn binary_formats_have_no_conversion_cost() {
        let m = CostModel::default();
        assert_eq!(m.convert_cost(ScanFormat::FixedBinary, DataType::Float64), 0.0);
        assert_eq!(m.convert_cost(ScanFormat::Root, DataType::Float64), 0.0);
        assert!(m.convert_cost(csv_exact(), DataType::Float64) > 0.0);
        assert!(
            m.convert_cost(csv_exact(), DataType::Float64)
                > m.convert_cost(csv_exact(), DataType::Int64)
        );
    }

    #[test]
    fn explain_renders_alternatives() {
        let m = CostModel::default();
        let d = m.choose_strategy(&strategy_input(0.1, csv_exact()));
        let line = d.explain();
        assert!(line.contains("full="), "{line}");
        assert!(line.contains("shreds="), "{line}");
        assert!(line.contains("ms"), "{line}");
    }
}
