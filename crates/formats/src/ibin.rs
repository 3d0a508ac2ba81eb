//! `ibin`: an indexed, paged fixed-width binary format.
//!
//! The paper observes that some formats ship their own indexes — "file types
//! such as HDF and shapefile incorporate indexes over their contents,
//! B-Trees and R-Trees respectively. Indexes like these can be exploited by
//! the generated access paths to speed-up accesses to the raw data" (§4.1).
//! `ibin` is our self-contained stand-in for that family: an fbin-style
//! fixed-width record section organized in fixed-size **pages**, followed by
//! an embedded per-page **zone index** (min/max per column per page, the
//! moral equivalent of HDF5's chunk B-tree plus min/max filters).
//!
//! Two properties matter for the access-path story:
//!
//! 1. Field positions stay deterministic (`data_start + row*row_width +
//!    offset`), so everything fbin's JIT path does still applies.
//! 2. A *query-aware* scan can consult the embedded index and skip whole
//!    pages whose zone ranges cannot satisfy a pushed-down predicate. A
//!    general-purpose scan operator — which must stay query-agnostic —
//!    cannot, which is precisely the gap JIT access paths exploit.
//!
//! When the file is sorted by a designated key column, candidate pages form
//! a contiguous range discoverable by binary search over the page index
//! (the B-tree regime); otherwise each page's zones are tested
//! independently (the zone-map regime).
//!
//! ## On-disk layout (little-endian)
//!
//! ```text
//! magic         : 8 bytes = "RAWIBIN1"
//! ncols         : u32
//! types         : ncols × u8 (fbin type codes)
//! nrows         : u64
//! rows_per_page : u32
//! sorted_key    : i32 (-1 = unsorted, else the key column index)
//! data          : nrows fixed-width rows, back to back
//! index         : ceil(nrows/rows_per_page) entries × ncols × (min, max)
//!                 zones, 8 bytes each (i64 for int/bool, f64 bits for float)
//! ```

use std::path::Path;

use raw_columnar::{CmpOp, Column, DataType, MemTable, Schema, Value};

use crate::cursor::{type_code, ByteCursor};
use crate::error::{FormatError, Result};
use crate::fbin::{read_bool, read_f32, read_f64, read_i32, read_i64, FbinLayout};

/// File magic.
pub const MAGIC: &[u8; 8] = b"RAWIBIN1";

/// Default page size, in rows.
pub const DEFAULT_ROWS_PER_PAGE: u32 = 4096;

/// Per-page min/max zones for one column, in the column's comparison
/// domain (integers widened to `i64`, floats to `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneVec {
    /// Integer/bool zones.
    I64(Vec<(i64, i64)>),
    /// Floating-point zones.
    F64(Vec<(f64, f64)>),
}

impl ZoneVec {
    fn len(&self) -> usize {
        match self {
            ZoneVec::I64(v) => v.len(),
            ZoneVec::F64(v) => v.len(),
        }
    }

    /// Whether page `p` could contain a value satisfying `op lit`.
    /// `None` when the literal is incomparable with this column — including
    /// float NaN in the zone bounds or the literal: NaN makes every ordered
    /// comparison false, so a NaN-tainted zone test would claim "cannot
    /// match" for pages that may hold qualifying rows. Such zones decline
    /// to prune instead.
    pub fn page_may_match(&self, p: usize, op: CmpOp, lit: &Value) -> Option<bool> {
        match self {
            ZoneVec::I64(v) => {
                let x = lit.as_i64()?;
                let (lo, hi) = v[p];
                Some(range_may_match(lo, hi, op, x))
            }
            ZoneVec::F64(v) => {
                let x = lit.as_f64()?;
                let (lo, hi) = v[p];
                if lo.is_nan() || hi.is_nan() || x.is_nan() {
                    return None;
                }
                Some(range_may_match(lo, hi, op, x))
            }
        }
    }
}

/// Conservative zone test: can any value in `[lo, hi]` satisfy `op x`?
fn range_may_match<T: PartialOrd>(lo: T, hi: T, op: CmpOp, x: T) -> bool {
    match op {
        CmpOp::Lt => lo < x,
        CmpOp::Le => lo <= x,
        CmpOp::Gt => hi > x,
        CmpOp::Ge => hi >= x,
        CmpOp::Eq => lo <= x && x <= hi,
        CmpOp::Ne => !(lo == x && hi == x),
    }
}

/// A pushed-down conjunct an index-aware scan prunes with.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunePred {
    /// Column index in the file.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal.
    pub value: Value,
}

/// The parsed layout of an ibin file: deterministic field positions plus
/// the decoded page index.
#[derive(Debug, Clone, PartialEq)]
pub struct IbinLayout {
    /// Field types in file order.
    pub types: Vec<DataType>,
    /// Byte offset of each field within a row.
    pub field_offsets: Vec<usize>,
    /// Total bytes per row.
    pub row_width: usize,
    /// Byte offset where row data begins.
    pub data_start: usize,
    /// Number of rows.
    pub rows: u64,
    /// Rows per page (last page may be short).
    pub rows_per_page: u32,
    /// The column the file is sorted by, if any.
    pub sorted_key: Option<usize>,
    /// Per column: per-page zones.
    pub zones: Vec<ZoneVec>,
}

impl IbinLayout {
    fn header_len(ncols: usize) -> usize {
        MAGIC.len() + 4 + ncols + 8 + 4 + 4
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        if self.rows == 0 {
            0
        } else {
            (self.rows as usize).div_ceil(self.rows_per_page as usize)
        }
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.types.len()
    }

    /// Row range `[start, end)` covered by page `p`.
    pub fn page_rows(&self, p: usize) -> (u64, u64) {
        let start = p as u64 * u64::from(self.rows_per_page);
        let end = (start + u64::from(self.rows_per_page)).min(self.rows);
        (start, end)
    }

    /// Byte position of field (`row`, `col`).
    #[inline]
    pub fn field_position(&self, row: u64, col: usize) -> usize {
        self.data_start + row as usize * self.row_width + self.field_offsets[col]
    }

    /// Parse and validate a file (header, data extent, and index section).
    pub fn parse(buf: &[u8]) -> Result<IbinLayout> {
        let mut cur = ByteCursor::new(buf, "ibin header");
        cur.magic(MAGIC)?;
        let ncols = cur.u32()?;
        let types = (0..cur.count(ncols.into(), 1)?)
            .map(|_| cur.data_type())
            .collect::<Result<Vec<_>>>()?;
        let rows = cur.u64()?;
        let rows_per_page = cur.u32()?;
        if rows_per_page == 0 {
            return Err(cur.corrupt_at(cur.pos() - 4, "rows_per_page is zero"));
        }
        let sorted_key = match cur.i32()? {
            -1 => None,
            k if k >= 0 && (k as usize) < types.len() => Some(k as usize),
            k => return Err(cur.corrupt_at(cur.pos() - 4, format!("sorted_key {k} out of range"))),
        };
        let FbinLayout { types, field_offsets, row_width, .. } =
            FbinLayout::for_types(types, rows)?;
        let data_start = cur.pos();
        cur.items(rows, row_width)?;

        // The index: zones laid out page-major, column-minor.
        let n_pages = rows.div_ceil(u64::from(rows_per_page));
        let n_pages = cur.count(n_pages, types.len() * 16)?;
        let mut zones: Vec<ZoneVec> = types
            .iter()
            .map(|dt| match dt {
                DataType::Float32 | DataType::Float64 => ZoneVec::F64(Vec::with_capacity(n_pages)),
                _ => ZoneVec::I64(Vec::with_capacity(n_pages)),
            })
            .collect();
        for _page in 0..n_pages {
            for z in zones.iter_mut() {
                match z {
                    ZoneVec::I64(v) => v.push((cur.i64()?, cur.i64()?)),
                    ZoneVec::F64(v) => {
                        v.push((f64::from_bits(cur.u64()?), f64::from_bits(cur.u64()?)))
                    }
                }
            }
        }

        Ok(IbinLayout {
            types,
            field_offsets,
            row_width,
            data_start,
            rows,
            rows_per_page,
            sorted_key,
            zones,
        })
    }

    /// Pages that could contain rows satisfying *all* of `preds`
    /// (conservative: never drops a qualifying page). Predicates on
    /// unknown columns or with incomparable literals simply do not prune.
    ///
    /// When the file is sorted by a predicate's column, that predicate is
    /// answered by binary search over the page index (contiguous range);
    /// other predicates fall back to per-page zone tests.
    pub fn candidate_pages(&self, preds: &[PrunePred]) -> Vec<usize> {
        self.candidate_pages_in(preds, 0, self.num_pages())
    }

    /// [`IbinLayout::candidate_pages`] restricted to the page window
    /// `[page_lo, page_hi)` — the per-morsel form: because every page's
    /// zones are tested independently (and the sorted-key binary search is
    /// intersected, not replaced), the union of windowed candidate sets
    /// over a partition of the pages equals the whole-file candidate set.
    pub fn candidate_pages_in(
        &self,
        preds: &[PrunePred],
        page_lo: usize,
        page_hi: usize,
    ) -> Vec<usize> {
        let n = self.num_pages();
        let mut survivors: Vec<usize> = Vec::new();

        // Sorted-key fast path: intersect a binary-searched range first.
        let mut lo = page_lo.min(n);
        let mut hi = page_hi.min(n);
        for p in preds {
            if Some(p.col) == self.sorted_key {
                if let Some((a, b)) = self.sorted_range(p) {
                    lo = lo.max(a);
                    hi = hi.min(b);
                } // incomparable literal: no pruning from this predicate
            }
        }

        'page: for page in lo..hi {
            for p in preds {
                let Some(z) = self.zones.get(p.col) else { continue };
                if z.len() != n {
                    continue;
                }
                if let Some(false) = z.page_may_match(page, p.op, &p.value) {
                    continue 'page;
                }
            }
            survivors.push(page);
        }
        survivors
    }

    /// Binary search over the sorted key's page zones: the `[lo, hi)` page
    /// range that could satisfy `pred`. `None` when the literal is
    /// incomparable — including NaN bounds or literals, which would make
    /// the partition points meaningless (every NaN comparison is false).
    fn sorted_range(&self, pred: &PrunePred) -> Option<(usize, usize)> {
        let n = self.num_pages();
        let z = self.zones.get(pred.col)?;
        // Work in f64 for the search bounds; the per-page zone re-check in
        // candidate_pages keeps exactness.
        let (mins, maxs): (Vec<f64>, Vec<f64>) = match z {
            ZoneVec::I64(v) => v.iter().map(|&(a, b)| (a as f64, b as f64)).unzip(),
            ZoneVec::F64(v) => v.iter().cloned().unzip(),
        };
        let x = match z {
            ZoneVec::I64(_) => pred.value.as_i64()? as f64,
            ZoneVec::F64(_) => pred.value.as_f64()?,
        };
        if x.is_nan() || mins.iter().chain(&maxs).any(|m| m.is_nan()) {
            return None;
        }
        Some(match pred.op {
            // Ranges of pages whose [min,max] may intersect the predicate.
            CmpOp::Lt => (0, mins.partition_point(|&m| m < x)),
            CmpOp::Le => (0, mins.partition_point(|&m| m <= x)),
            CmpOp::Gt => (maxs.partition_point(|&m| m <= x), n),
            CmpOp::Ge => (maxs.partition_point(|&m| m < x), n),
            CmpOp::Eq => (maxs.partition_point(|&m| m < x), mins.partition_point(|&m| m <= x)),
            CmpOp::Ne => (0, n),
        })
    }
}

/// Serialize a table to ibin bytes. `sorted_key` declares (and verifies)
/// that the table is sorted ascending by that column.
pub fn to_bytes_with(
    table: &MemTable,
    rows_per_page: u32,
    sorted_key: Option<usize>,
) -> Result<Vec<u8>> {
    if rows_per_page == 0 {
        return Err(FormatError::SchemaMismatch {
            message: "ibin rows_per_page must be positive".into(),
        });
    }
    let types: Vec<DataType> = table.schema().fields().iter().map(|f| f.data_type).collect();
    for &dt in &types {
        type_code(dt)?; // validates fixed-width
    }
    if let Some(k) = sorted_key {
        if k >= types.len() {
            return Err(FormatError::SchemaMismatch {
                message: format!("sorted_key {k} out of range ({} columns)", types.len()),
            });
        }
        if !column_is_sorted(table.column(k).map_err(FormatError::from)?) {
            return Err(FormatError::SchemaMismatch {
                message: format!("column {k} declared sorted but is not"),
            });
        }
    }

    let rows = table.rows();
    let row_width: usize = types.iter().map(|t| t.fixed_width().expect("validated")).sum();
    let n_pages = rows.div_ceil(rows_per_page as usize);
    let mut out = Vec::with_capacity(
        IbinLayout::header_len(types.len()) + rows * row_width + n_pages * types.len() * 16,
    );
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(types.len() as u32).to_le_bytes());
    for &dt in &types {
        out.push(type_code(dt)?);
    }
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    out.extend_from_slice(&rows_per_page.to_le_bytes());
    out.extend_from_slice(&sorted_key.map_or(-1i32, |k| k as i32).to_le_bytes());

    // Data section (row-major, like fbin).
    for row in 0..rows {
        for col in table.columns() {
            match col {
                Column::Int32(v) => out.extend_from_slice(&v[row].to_le_bytes()),
                Column::Int64(v) => out.extend_from_slice(&v[row].to_le_bytes()),
                Column::Float32(v) => out.extend_from_slice(&v[row].to_le_bytes()),
                Column::Float64(v) => out.extend_from_slice(&v[row].to_le_bytes()),
                Column::Bool(v) => out.push(u8::from(v[row])),
                Column::Utf8(_) => {
                    return Err(FormatError::SchemaMismatch {
                        message: "ibin does not support utf8".into(),
                    })
                }
            }
        }
    }

    // Index section: per page, per column, (min, max).
    for page in 0..n_pages {
        let start = page * rows_per_page as usize;
        let end = (start + rows_per_page as usize).min(rows);
        for col in table.columns() {
            match col {
                Column::Int32(v) => {
                    push_zone_i64(&mut out, v[start..end].iter().map(|&x| i64::from(x)))
                }
                Column::Int64(v) => push_zone_i64(&mut out, v[start..end].iter().copied()),
                Column::Bool(v) => {
                    push_zone_i64(&mut out, v[start..end].iter().map(|&b| i64::from(b)))
                }
                Column::Float32(v) => {
                    push_zone_f64(&mut out, v[start..end].iter().map(|&x| f64::from(x)))
                }
                Column::Float64(v) => push_zone_f64(&mut out, v[start..end].iter().copied()),
                Column::Utf8(_) => unreachable!("validated fixed-width above"),
            }
        }
    }
    Ok(out)
}

/// Serialize with the default page size and no sorted key.
pub fn to_bytes(table: &MemTable) -> Result<Vec<u8>> {
    to_bytes_with(table, DEFAULT_ROWS_PER_PAGE, None)
}

/// Write a table to an ibin file.
pub fn write_file(
    table: &MemTable,
    path: &Path,
    rows_per_page: u32,
    sorted_key: Option<usize>,
) -> Result<()> {
    let bytes = to_bytes_with(table, rows_per_page, sorted_key)?;
    std::fs::write(path, bytes).map_err(|e| FormatError::io(path, e))
}

fn push_zone_i64(out: &mut Vec<u8>, values: impl Iterator<Item = i64>) {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    out.extend_from_slice(&lo.to_le_bytes());
    out.extend_from_slice(&hi.to_le_bytes());
}

fn push_zone_f64(out: &mut Vec<u8>, values: impl Iterator<Item = f64>) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    out.extend_from_slice(&lo.to_le_bytes());
    out.extend_from_slice(&hi.to_le_bytes());
}

fn column_is_sorted(col: &Column) -> bool {
    fn sorted<T: PartialOrd>(xs: &[T]) -> bool {
        xs.windows(2).all(|w| w[0] <= w[1])
    }
    match col {
        Column::Int32(v) => sorted(v),
        Column::Int64(v) => sorted(v),
        Column::Float32(v) => sorted(v),
        Column::Float64(v) => sorted(v),
        Column::Bool(v) => sorted(v),
        Column::Utf8(v) => sorted(v),
    }
}

/// Read an entire ibin buffer into a [`MemTable`] (the "load everything"
/// DBMS path).
pub fn read_table(buf: &[u8], schema: &Schema) -> Result<MemTable> {
    let layout = IbinLayout::parse(buf)?;
    if layout.num_cols() != schema.len() {
        return Err(FormatError::SchemaMismatch {
            message: format!(
                "schema declares {} columns, file has {}",
                schema.len(),
                layout.num_cols()
            ),
        });
    }
    for (f, &dt) in schema.fields().iter().zip(&layout.types) {
        if f.data_type != dt {
            return Err(FormatError::SchemaMismatch {
                message: format!("field {} declared {}, file has {dt}", f.name, f.data_type),
            });
        }
    }
    let rows = layout.rows;
    let mut columns = Vec::with_capacity(layout.num_cols());
    for (col, &dt) in layout.types.iter().enumerate() {
        let mut c = Column::with_capacity(dt, rows as usize);
        match &mut c {
            Column::Int32(v) => {
                for r in 0..rows {
                    v.push(read_i32(buf, layout.field_position(r, col)));
                }
            }
            Column::Int64(v) => {
                for r in 0..rows {
                    v.push(read_i64(buf, layout.field_position(r, col)));
                }
            }
            Column::Float32(v) => {
                for r in 0..rows {
                    v.push(read_f32(buf, layout.field_position(r, col)));
                }
            }
            Column::Float64(v) => {
                for r in 0..rows {
                    v.push(read_f64(buf, layout.field_position(r, col)));
                }
            }
            Column::Bool(v) => {
                for r in 0..rows {
                    v.push(read_bool(buf, layout.field_position(r, col)));
                }
            }
            Column::Utf8(_) => unreachable!("ibin layouts never contain utf8"),
        }
        columns.push(c);
    }
    MemTable::new(schema.clone(), columns).map_err(FormatError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen;
    use raw_columnar::Field;

    fn table() -> MemTable {
        datagen::int_table(11, 100, 4)
    }

    #[test]
    fn roundtrip_default() {
        let t = table();
        let bytes = to_bytes(&t).unwrap();
        let back = read_table(&bytes, t.schema()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn roundtrip_small_pages() {
        let t = table();
        let bytes = to_bytes_with(&t, 7, None).unwrap();
        let layout = IbinLayout::parse(&bytes).unwrap();
        assert_eq!(layout.num_pages(), 100usize.div_ceil(7));
        assert_eq!(layout.page_rows(0), (0, 7));
        assert_eq!(layout.page_rows(14), (98, 100), "last page short");
        let back = read_table(&bytes, t.schema()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn zones_are_exact_minmax() {
        let t = table();
        let bytes = to_bytes_with(&t, 10, None).unwrap();
        let layout = IbinLayout::parse(&bytes).unwrap();
        let col0 = t.column(0).unwrap().as_i64().unwrap();
        let ZoneVec::I64(z) = &layout.zones[0] else { panic!("int zones") };
        for (p, &(lo, hi)) in z.iter().enumerate() {
            let page = &col0[p * 10..((p + 1) * 10).min(100)];
            assert_eq!(lo, *page.iter().min().unwrap());
            assert_eq!(hi, *page.iter().max().unwrap());
        }
    }

    #[test]
    fn pruning_is_conservative_unsorted() {
        let t = table();
        let bytes = to_bytes_with(&t, 8, None).unwrap();
        let layout = IbinLayout::parse(&bytes).unwrap();
        let col0 = t.column(0).unwrap().as_i64().unwrap();
        for x in [0, 100_000_000, 500_000_000, 999_999_999] {
            let preds = vec![PrunePred { col: 0, op: CmpOp::Lt, value: Value::Int64(x) }];
            let pages = layout.candidate_pages(&preds);
            // Every row that satisfies the predicate must live in a
            // surviving page.
            for (r, &v) in col0.iter().enumerate() {
                if v < x {
                    let page = r / 8;
                    assert!(pages.contains(&page), "row {r} (v={v}) lost at x={x}");
                }
            }
        }
    }

    #[test]
    fn sorted_key_prunes_contiguously() {
        let t = datagen::sorted_copy(&table(), 0);
        let bytes = to_bytes_with(&t, 8, Some(0)).unwrap();
        let layout = IbinLayout::parse(&bytes).unwrap();
        assert_eq!(layout.sorted_key, Some(0));
        let preds = vec![PrunePred {
            col: 0,
            op: CmpOp::Lt,
            value: Value::Int64(datagen::literal_for_selectivity(0.2)),
        }];
        let pages = layout.candidate_pages(&preds);
        assert!(!pages.is_empty());
        // Contiguous prefix for a `<` predicate on the sort key.
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(p, i, "prefix expected, got {pages:?}");
        }
        assert!(
            pages.len() < layout.num_pages(),
            "20% selectivity must prune something: {pages:?}"
        );
    }

    #[test]
    fn sorted_and_zone_pruning_agree() {
        // The binary-search range intersected with zone checks must equal
        // pure zone filtering on the same (sorted) data.
        let t = datagen::sorted_copy(&datagen::int_table(5, 200, 3), 1);
        let sorted = to_bytes_with(&t, 16, Some(1)).unwrap();
        let unsorted_decl = to_bytes_with(&t, 16, None).unwrap();
        let l1 = IbinLayout::parse(&sorted).unwrap();
        let l2 = IbinLayout::parse(&unsorted_decl).unwrap();
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            for sel in [0.0, 0.3, 0.8, 1.0] {
                let preds = vec![PrunePred {
                    col: 1,
                    op,
                    value: Value::Int64(datagen::literal_for_selectivity(sel)),
                }];
                assert_eq!(
                    l1.candidate_pages(&preds),
                    l2.candidate_pages(&preds),
                    "{op:?} sel {sel}"
                );
            }
        }
    }

    #[test]
    fn windowed_candidates_partition_to_whole_file_set() {
        for (sorted_key, key_col) in [(None, 0), (Some(1), 1)] {
            let base = datagen::int_table(5, 200, 3);
            let t = if sorted_key.is_some() { datagen::sorted_copy(&base, 1) } else { base };
            let bytes = to_bytes_with(&t, 16, sorted_key).unwrap();
            let layout = IbinLayout::parse(&bytes).unwrap();
            let n = layout.num_pages();
            for sel in [0.0, 0.3, 1.0] {
                let preds = vec![PrunePred {
                    col: key_col,
                    op: CmpOp::Lt,
                    value: Value::Int64(datagen::literal_for_selectivity(sel)),
                }];
                let whole = layout.candidate_pages(&preds);
                for split in [1usize, 3, 7] {
                    let mut unioned = Vec::new();
                    let mut lo = 0usize;
                    while lo < n {
                        let hi = (lo + split).min(n);
                        unioned.extend(layout.candidate_pages_in(&preds, lo, hi));
                        lo = hi;
                    }
                    assert_eq!(unioned, whole, "sorted={sorted_key:?} sel={sel} split={split}");
                }
                // Out-of-range windows are clamped, not panicking.
                assert!(layout.candidate_pages_in(&preds, n, n + 5).is_empty());
            }
        }
    }

    #[test]
    fn nan_zone_bounds_decline_to_prune() {
        // A foreign writer could store NaN zone bounds; every ordered
        // comparison against NaN is false, so a naive zone test would prune
        // pages that may contain qualifying rows. NaN must disable pruning
        // for the affected page instead.
        let layout = IbinLayout {
            types: vec![DataType::Float64],
            field_offsets: vec![0],
            row_width: 8,
            data_start: 0,
            rows: 20,
            rows_per_page: 10,
            sorted_key: None,
            zones: vec![ZoneVec::F64(vec![(f64::NAN, f64::NAN), (100.0, 200.0)])],
        };
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
            assert_eq!(
                layout.zones[0].page_may_match(0, op, &Value::Float64(0.5)),
                None,
                "NaN bounds must decline to answer for {op:?}"
            );
            let preds = vec![PrunePred { col: 0, op, value: Value::Float64(0.5) }];
            assert!(
                layout.candidate_pages(&preds).contains(&0),
                "NaN-bounded page must survive {op:?}"
            );
        }
        // Page 1 has ordinary bounds and still prunes normally.
        let preds = vec![PrunePred { col: 0, op: CmpOp::Lt, value: Value::Float64(0.5) }];
        assert_eq!(layout.candidate_pages(&preds), vec![0], "finite zones keep pruning");
    }

    #[test]
    fn nan_literals_decline_to_prune() {
        for sorted_key in [None, Some(0)] {
            let layout = IbinLayout {
                types: vec![DataType::Float64],
                field_offsets: vec![0],
                row_width: 8,
                data_start: 0,
                rows: 20,
                rows_per_page: 10,
                sorted_key,
                zones: vec![ZoneVec::F64(vec![(0.0, 1.0), (2.0, 3.0)])],
            };
            for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne] {
                let preds = vec![PrunePred { col: 0, op, value: Value::Float64(f64::NAN) }];
                assert_eq!(
                    layout.candidate_pages(&preds),
                    vec![0, 1],
                    "NaN literal must not prune ({op:?}, sorted={sorted_key:?})"
                );
            }
        }
    }

    #[test]
    fn nan_zone_bounds_disable_sorted_binary_search() {
        // A NaN min/max breaks partition_point monotonicity on the sorted
        // fast path; the whole predicate must decline rather than return a
        // wrong page window.
        let layout = IbinLayout {
            types: vec![DataType::Float64],
            field_offsets: vec![0],
            row_width: 8,
            data_start: 0,
            rows: 30,
            rows_per_page: 10,
            sorted_key: Some(0),
            zones: vec![ZoneVec::F64(vec![(0.0, 1.0), (f64::NAN, f64::NAN), (4.0, 5.0)])],
        };
        let preds = vec![PrunePred { col: 0, op: CmpOp::Gt, value: Value::Float64(10.0) }];
        let pages = layout.candidate_pages(&preds);
        assert!(pages.contains(&1), "NaN page must survive: {pages:?}");
    }

    #[test]
    fn declared_sort_verified() {
        let t = table(); // random, not sorted
        assert!(to_bytes_with(&t, 16, Some(0)).is_err());
        assert!(to_bytes_with(&t, 16, Some(99)).is_err(), "key out of range");
        assert!(to_bytes_with(&t, 0, None).is_err(), "zero page size");
    }

    #[test]
    fn mixed_types_roundtrip_and_float_zones() {
        let t = datagen::mixed_table(3, 60, 4);
        let bytes = to_bytes_with(&t, 9, None).unwrap();
        let layout = IbinLayout::parse(&bytes).unwrap();
        let back = read_table(&bytes, t.schema()).unwrap();
        assert_eq!(t, back);
        // Float columns must carry F64 zones.
        for (i, f) in t.schema().fields().iter().enumerate() {
            match f.data_type {
                DataType::Float32 | DataType::Float64 => {
                    assert!(matches!(layout.zones[i], ZoneVec::F64(_)))
                }
                _ => assert!(matches!(layout.zones[i], ZoneVec::I64(_))),
            }
        }
    }

    #[test]
    fn corrupt_files_rejected() {
        assert!(IbinLayout::parse(b"short").is_err());
        assert!(IbinLayout::parse(b"WRONGMAG\x01\x00\x00\x00").is_err());
        let t = table();
        let bytes = to_bytes_with(&t, 16, None).unwrap();
        // Truncate inside the index section.
        assert!(IbinLayout::parse(&bytes[..bytes.len() - 1]).is_err());
        // Truncate inside the data section.
        let layout = IbinLayout::parse(&bytes).unwrap();
        assert!(IbinLayout::parse(&bytes[..layout.data_start + 10]).is_err());
        // Bad type code.
        let mut bad = bytes.clone();
        bad[12] = 99;
        assert!(IbinLayout::parse(&bad).is_err());
        // Bad sorted key.
        let mut bad = bytes.clone();
        let at = 12 + 4 + 8 + 4;
        bad[at..at + 4].copy_from_slice(&77i32.to_le_bytes());
        assert!(IbinLayout::parse(&bad).is_err());
    }

    #[test]
    fn schema_mismatch_detected() {
        let t = table();
        let bytes = to_bytes(&t).unwrap();
        assert!(read_table(&bytes, &Schema::uniform(2, DataType::Int64)).is_err());
        let wrong = Schema::new(vec![
            Field::new("a", DataType::Float64),
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Int64),
            Field::new("d", DataType::Int64),
        ]);
        assert!(read_table(&bytes, &wrong).is_err());
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = MemTable::empty(Schema::uniform(3, DataType::Int64));
        let bytes = to_bytes(&t).unwrap();
        let layout = IbinLayout::parse(&bytes).unwrap();
        assert_eq!(layout.num_pages(), 0);
        assert!(layout.candidate_pages(&[]).is_empty());
        let back = read_table(&bytes, t.schema()).unwrap();
        assert_eq!(back.rows(), 0);
    }

    #[test]
    fn utf8_rejected() {
        let t = MemTable::new(
            Schema::new(vec![Field::new("s", DataType::Utf8)]),
            vec![vec!["x".to_owned()].into()],
        )
        .unwrap();
        assert!(to_bytes(&t).is_err());
    }
}
