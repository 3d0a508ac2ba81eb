//! `fbin`: the paper's custom fixed-width binary format.
//!
//! "Each attribute is serialized from its corresponding C representation …
//! every field is stored in a fixed-size number of bytes" (§4.2). Because the
//! layout is deterministic, *no positional map is needed*: the byte position
//! of any field is `data_start + row * row_width + field_offset[col]` — the
//! formula the paper's JIT access path folds into generated code as
//! constants.
//!
//! ## On-disk layout (little-endian)
//!
//! ```text
//! magic   : 8 bytes  = "RAWFBIN1"
//! ncols   : u32
//! types   : ncols × u8 (type codes below)
//! nrows   : u64
//! data    : nrows rows, each row = fields serialized back-to-back
//! ```

use std::path::Path;

use raw_columnar::{Column, DataType, MemTable, Schema, Value};

use crate::cursor::{type_code, ByteCursor};
use crate::error::{FormatError, Result};

/// File magic.
pub const MAGIC: &[u8; 8] = b"RAWFBIN1";

/// The deterministic layout of an fbin file: everything needed to compute
/// any field's byte position without touching the data section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FbinLayout {
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
}

impl FbinLayout {
    /// Compute the layout for the given field types and row count (writer
    /// side; the reader recovers it from the header via [`FbinLayout::parse`]).
    pub fn for_types(types: Vec<DataType>, rows: u64) -> Result<FbinLayout> {
        let mut field_offsets = Vec::with_capacity(types.len());
        let mut row_width = 0usize;
        for &dt in &types {
            type_code(dt)?; // validates fixed-width
            field_offsets.push(row_width);
            row_width += dt.fixed_width().expect("validated fixed-width");
        }
        let data_start = MAGIC.len() + 4 + types.len() + 8;
        Ok(FbinLayout { types, field_offsets, row_width, data_start, rows })
    }

    /// Bytes the header occupies, as far as `prefix` tells: the fixed part
    /// (magic + column count) until the column count is readable, then the
    /// whole header. A streamed read makes this many bytes resident, asks
    /// again, and parses once the answer stops growing.
    pub fn header_len(prefix: &[u8]) -> usize {
        let mut cur = ByteCursor::new(prefix, "fbin header");
        match cur.take(MAGIC.len()).and_then(|_| cur.u32()) {
            Ok(ncols) => (MAGIC.len() + 4 + 8).saturating_add(ncols as usize),
            Err(_) => MAGIC.len() + 4,
        }
    }

    /// Parse and validate a file header, and check that every declared row
    /// is present.
    pub fn parse(buf: &[u8]) -> Result<FbinLayout> {
        let mut cur = ByteCursor::new(buf, "fbin header");
        cur.magic(MAGIC)?;
        let ncols = cur.u32()?;
        let types = (0..cur.count(ncols.into(), 1)?)
            .map(|_| cur.data_type())
            .collect::<Result<Vec<_>>>()?;
        let rows = cur.u64()?;
        let layout = FbinLayout::for_types(types, rows)?;
        cur.items(rows, layout.row_width)?;
        Ok(layout)
    }

    /// Byte position of field (`row`, `col`) — the paper's
    /// `row*tupleSize + col_offset` computation.
    #[inline]
    pub fn field_position(&self, row: u64, col: usize) -> usize {
        self.data_start + row as usize * self.row_width + self.field_offsets[col]
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.types.len()
    }
}

/// Typed point reads. Each is a straight `from_le_bytes` at a computed
/// offset; the *callers* differ in whether the offset arithmetic is
/// interpreted per value (in-situ) or folded into a specialized pipeline
/// (JIT).
#[inline]
pub fn read_i32(buf: &[u8], pos: usize) -> i32 {
    i32::from_le_bytes(buf[pos..pos + 4].try_into().expect("sized"))
}

/// See [`read_i32`].
#[inline]
pub fn read_i64(buf: &[u8], pos: usize) -> i64 {
    i64::from_le_bytes(buf[pos..pos + 8].try_into().expect("sized"))
}

/// See [`read_i32`].
#[inline]
pub fn read_f32(buf: &[u8], pos: usize) -> f32 {
    f32::from_le_bytes(buf[pos..pos + 4].try_into().expect("sized"))
}

/// See [`read_i32`].
#[inline]
pub fn read_f64(buf: &[u8], pos: usize) -> f64 {
    f64::from_le_bytes(buf[pos..pos + 8].try_into().expect("sized"))
}

/// See [`read_i32`].
#[inline]
pub fn read_bool(buf: &[u8], pos: usize) -> bool {
    buf[pos] != 0
}

/// Generic (slow-path) scalar read — used by error paths and tests.
pub fn read_value(buf: &[u8], layout: &FbinLayout, row: u64, col: usize) -> Result<Value> {
    if row >= layout.rows || col >= layout.num_cols() {
        return Err(FormatError::Corrupt {
            context: format!("fbin read out of range: row {row}, col {col}"),
            offset: None,
        });
    }
    let pos = layout.field_position(row, col);
    Ok(match layout.types[col] {
        DataType::Int32 => Value::Int32(read_i32(buf, pos)),
        DataType::Int64 => Value::Int64(read_i64(buf, pos)),
        DataType::Float32 => Value::Float32(read_f32(buf, pos)),
        DataType::Float64 => Value::Float64(read_f64(buf, pos)),
        DataType::Bool => Value::Bool(read_bool(buf, pos)),
        DataType::Utf8 => unreachable!("fbin layouts never contain utf8"),
    })
}

/// Serialize a table to fbin bytes.
pub fn to_bytes(table: &MemTable) -> Result<Vec<u8>> {
    let types: Vec<DataType> = table.schema().fields().iter().map(|f| f.data_type).collect();
    let layout = FbinLayout::for_types(types, table.rows() as u64)?;

    let mut out = Vec::with_capacity(layout.data_start + table.rows() * layout.row_width);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(layout.num_cols() as u32).to_le_bytes());
    for &dt in &layout.types {
        out.push(type_code(dt)?);
    }
    out.extend_from_slice(&(table.rows() as u64).to_le_bytes());

    for row in 0..table.rows() {
        for col in table.columns() {
            match col {
                Column::Int32(v) => out.extend_from_slice(&v[row].to_le_bytes()),
                Column::Int64(v) => out.extend_from_slice(&v[row].to_le_bytes()),
                Column::Float32(v) => out.extend_from_slice(&v[row].to_le_bytes()),
                Column::Float64(v) => out.extend_from_slice(&v[row].to_le_bytes()),
                Column::Bool(v) => out.push(u8::from(v[row])),
                Column::Utf8(_) => {
                    return Err(FormatError::SchemaMismatch {
                        message: "fbin does not support utf8".into(),
                    })
                }
            }
        }
    }
    Ok(out)
}

/// Write a table to an fbin file.
pub fn write_file(table: &MemTable, path: &Path) -> Result<()> {
    let bytes = to_bytes(table)?;
    std::fs::write(path, bytes).map_err(|e| FormatError::io(path, e))
}

/// Read an entire fbin buffer into a [`MemTable`] (the "load everything"
/// DBMS path; granular access paths live in `raw-access`).
pub fn read_table(buf: &[u8], schema: &Schema) -> Result<MemTable> {
    let layout = FbinLayout::parse(buf)?;
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
            Column::Utf8(_) => unreachable!("fbin layouts never contain utf8"),
        }
        columns.push(c);
    }
    MemTable::new(schema.clone(), columns).map_err(FormatError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_columnar::Field;

    fn table() -> MemTable {
        MemTable::new(
            Schema::new(vec![
                Field::new("a", DataType::Int32),
                Field::new("b", DataType::Int64),
                Field::new("c", DataType::Float64),
                Field::new("d", DataType::Bool),
            ]),
            vec![
                vec![1i32, -2].into(),
                vec![10i64, 20].into(),
                vec![0.5f64, -1.5].into(),
                vec![true, false].into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let t = table();
        let bytes = to_bytes(&t).unwrap();
        let back = read_table(&bytes, t.schema()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn layout_offsets() {
        let l = FbinLayout::for_types(
            vec![DataType::Int32, DataType::Int64, DataType::Float64, DataType::Bool],
            2,
        )
        .unwrap();
        assert_eq!(l.field_offsets, vec![0, 4, 12, 20]);
        assert_eq!(l.row_width, 21);
        // header: 8 magic + 4 ncols + 4 codes + 8 nrows
        assert_eq!(l.data_start, 24);
        assert_eq!(l.field_position(0, 0), 24);
        assert_eq!(l.field_position(1, 2), 24 + 21 + 12);
    }

    #[test]
    fn point_reads() {
        let t = table();
        let bytes = to_bytes(&t).unwrap();
        let l = FbinLayout::parse(&bytes).unwrap();
        assert_eq!(read_i32(&bytes, l.field_position(1, 0)), -2);
        assert_eq!(read_i64(&bytes, l.field_position(0, 1)), 10);
        assert_eq!(read_f64(&bytes, l.field_position(1, 2)), -1.5);
        assert!(read_bool(&bytes, l.field_position(0, 3)));
        assert_eq!(read_value(&bytes, &l, 1, 1).unwrap(), Value::Int64(20));
        assert!(read_value(&bytes, &l, 2, 0).is_err(), "row out of range");
        assert!(read_value(&bytes, &l, 0, 4).is_err(), "col out of range");
    }

    #[test]
    fn rejects_utf8() {
        let t = MemTable::new(
            Schema::new(vec![Field::new("s", DataType::Utf8)]),
            vec![vec!["x".to_owned()].into()],
        )
        .unwrap();
        assert!(to_bytes(&t).is_err());
    }

    #[test]
    fn header_len_grows_with_the_prefix() {
        let bytes = to_bytes(&table()).unwrap();
        let layout = FbinLayout::parse(&bytes).unwrap();
        for cut in 0..12 {
            assert_eq!(FbinLayout::header_len(&bytes[..cut]), 12, "cut at {cut}");
        }
        for cut in 12..bytes.len() {
            assert_eq!(FbinLayout::header_len(&bytes[..cut]), layout.data_start);
        }
    }

    #[test]
    fn corrupt_headers() {
        assert!(FbinLayout::parse(b"short").is_err());
        assert!(FbinLayout::parse(b"WRONGMAG\x01\x00\x00\x00").is_err());
        // Valid header but truncated data section.
        let t = table();
        let bytes = to_bytes(&t).unwrap();
        let truncated = &bytes[..bytes.len() - 1];
        assert!(FbinLayout::parse(truncated).is_err());
        // Unknown type code.
        let mut bad = bytes.clone();
        bad[12] = 99;
        assert!(FbinLayout::parse(&bad).is_err());
    }

    #[test]
    fn schema_mismatch_detected() {
        let t = table();
        let bytes = to_bytes(&t).unwrap();
        let wrong_arity = Schema::uniform(2, DataType::Int64);
        assert!(read_table(&bytes, &wrong_arity).is_err());
        let wrong_type = Schema::new(vec![
            Field::new("a", DataType::Int64), // file says Int32
            Field::new("b", DataType::Int64),
            Field::new("c", DataType::Float64),
            Field::new("d", DataType::Bool),
        ]);
        assert!(read_table(&bytes, &wrong_type).is_err());
    }

    #[test]
    fn empty_table_roundtrip() {
        let t = MemTable::empty(Schema::uniform(3, DataType::Int64));
        let bytes = to_bytes(&t).unwrap();
        let back = read_table(&bytes, t.schema()).unwrap();
        assert_eq!(back.rows(), 0);
    }
}
