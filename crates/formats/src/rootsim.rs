//! `rootsim`: a self-built stand-in for CERN's ROOT file format.
//!
//! The paper's Higgs use case (§6) queries ROOT files: nested event data
//! where each event owns variable-length collections of muons, electrons and
//! jets. RAW's generated code does **not** parse ROOT bytes — "the JIT access
//! paths in RAW emit code that calls the ROOT I/O API" — and sub-objects are
//! reachable by their parent's identifier, which RAW "maps … to an
//! index-based scan".
//!
//! `rootsim` reproduces those interface properties with a format we fully
//! control:
//!
//! - **Branch-columnar layout**: per-event scalar branches, plus per
//!   collection an offsets table and per-field packed value arrays (this is
//!   how ROOT TTrees store split branches).
//! - **Id-based API**: [`RootSimFile::read_scalar_i64`] & friends take a
//!   branch id + event id; collections expose item ranges per event —
//!   the `readROOTField(fieldName, id)` surface the paper describes.
//! - **No raw-byte navigation by consumers**: all access goes through the
//!   API, exactly like linking against libRoot. The read methods are
//!   `#[inline(never)]`: calls into an external I/O library cannot be
//!   inlined or auto-vectorized by the caller's compiler, and flattening
//!   them here would give every consumer an optimization ROOT users cannot
//!   have.
//!
//! ## On-disk layout (little-endian)
//!
//! ```text
//! magic     : 8 bytes = "ROOTSIM1"
//! schema    : counted names + type codes (see below)
//! n_events  : u64
//! directory : per scalar branch, data offset (u64)
//!             per collection: offsets-table offset (u64),
//!                             then per field, data offset (u64)
//! data      : scalar branches  = n_events fixed-width values each
//!             collection offs  = (n_events + 1) u64 cumulative item counts
//!             collection field = total_items fixed-width values each
//! ```

use std::path::Path;
use std::sync::Arc;

use raw_columnar::{Column, DataType, Value};

use crate::cursor::{type_code, ByteCursor};
use crate::error::{FormatError, Result};
use crate::file_buffer::{file_bytes, FileBytes};

/// File magic.
pub const MAGIC: &[u8; 8] = b"ROOTSIM1";

/// Schema of a rootsim file: scalar branches plus collections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootSchema {
    /// Per-event scalar branches (name, type).
    pub scalars: Vec<(String, DataType)>,
    /// Variable-length collections (one per particle kind in the use case).
    pub collections: Vec<RootCollection>,
}

/// A collection: per event, zero or more items, each with fixed fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootCollection {
    /// Collection name (e.g. `"muons"`).
    pub name: String,
    /// Item fields (name, type).
    pub fields: Vec<(String, DataType)>,
}

/// Identifier of a scalar branch within a file (what the generated code
/// bakes in instead of looking names up per row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchId(pub usize);

/// Identifier of a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionId(pub usize);

/// Identifier of a field within a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldId(pub usize);

fn width(dt: DataType) -> usize {
    dt.fixed_width().expect("rootsim types are fixed-width")
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Event-at-a-time writer for rootsim files.
pub struct RootSimWriter {
    schema: RootSchema,
    scalar_cols: Vec<Column>,
    /// Per collection: cumulative item counts (len = events written + 1).
    coll_offsets: Vec<Vec<u64>>,
    /// Per collection, per field: packed values.
    coll_fields: Vec<Vec<Column>>,
    events: u64,
}

impl RootSimWriter {
    /// Start writing a file with the given schema.
    pub fn new(schema: RootSchema) -> Result<RootSimWriter> {
        for (_, dt) in &schema.scalars {
            type_code(*dt)?;
        }
        for c in &schema.collections {
            for (_, dt) in &c.fields {
                type_code(*dt)?;
            }
        }
        let scalar_cols = schema.scalars.iter().map(|(_, dt)| Column::empty(*dt)).collect();
        let coll_offsets = schema.collections.iter().map(|_| vec![0u64]).collect();
        let coll_fields = schema
            .collections
            .iter()
            .map(|c| c.fields.iter().map(|(_, dt)| Column::empty(*dt)).collect())
            .collect();
        Ok(RootSimWriter { schema, scalar_cols, coll_offsets, coll_fields, events: 0 })
    }

    /// Append one event: its scalar values plus, per collection, a list of
    /// items (each item = one value per field).
    pub fn add_event(&mut self, scalars: &[Value], collections: &[Vec<Vec<Value>>]) -> Result<()> {
        if scalars.len() != self.schema.scalars.len() {
            return Err(FormatError::SchemaMismatch {
                message: format!(
                    "event has {} scalars, schema {}",
                    scalars.len(),
                    self.schema.scalars.len()
                ),
            });
        }
        if collections.len() != self.schema.collections.len() {
            return Err(FormatError::SchemaMismatch {
                message: format!(
                    "event has {} collections, schema {}",
                    collections.len(),
                    self.schema.collections.len()
                ),
            });
        }
        for (col, v) in self.scalar_cols.iter_mut().zip(scalars) {
            col.push_value(v)?;
        }
        for (c, items) in collections.iter().enumerate() {
            let nfields = self.schema.collections[c].fields.len();
            for item in items {
                if item.len() != nfields {
                    return Err(FormatError::SchemaMismatch {
                        message: format!(
                            "item in {} has {} fields, schema {nfields}",
                            self.schema.collections[c].name,
                            item.len()
                        ),
                    });
                }
                for (f, v) in item.iter().enumerate() {
                    self.coll_fields[c][f].push_value(v)?;
                }
            }
            let prev = *self.coll_offsets[c].last().expect("starts with 0");
            self.coll_offsets[c].push(prev + items.len() as u64);
        }
        self.events += 1;
        Ok(())
    }

    /// Serialize the file.
    pub fn finish(self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);

        // -- schema --
        let put_name = |out: &mut Vec<u8>, name: &str| {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        };
        out.extend_from_slice(&(self.schema.scalars.len() as u32).to_le_bytes());
        for (name, dt) in &self.schema.scalars {
            put_name(&mut out, name);
            out.push(type_code(*dt)?);
        }
        out.extend_from_slice(&(self.schema.collections.len() as u32).to_le_bytes());
        for c in &self.schema.collections {
            put_name(&mut out, &c.name);
            out.extend_from_slice(&(c.fields.len() as u32).to_le_bytes());
            for (name, dt) in &c.fields {
                put_name(&mut out, name);
                out.push(type_code(*dt)?);
            }
        }
        out.extend_from_slice(&self.events.to_le_bytes());

        // -- directory (patched after data layout is known) --
        let dir_pos = out.len();
        let mut dir_slots = self.schema.scalars.len();
        for c in &self.schema.collections {
            dir_slots += 1 + c.fields.len();
        }
        out.resize(dir_pos + dir_slots * 8, 0);

        // -- data sections --
        let mut dir_entries = Vec::with_capacity(dir_slots);
        for col in &self.scalar_cols {
            dir_entries.push(out.len() as u64);
            write_column(&mut out, col);
        }
        for (c, offsets) in self.coll_offsets.iter().enumerate() {
            dir_entries.push(out.len() as u64);
            for &o in offsets {
                out.extend_from_slice(&o.to_le_bytes());
            }
            for col in &self.coll_fields[c] {
                dir_entries.push(out.len() as u64);
                write_column(&mut out, col);
            }
        }
        for (i, entry) in dir_entries.iter().enumerate() {
            out[dir_pos + i * 8..dir_pos + (i + 1) * 8].copy_from_slice(&entry.to_le_bytes());
        }
        Ok(out)
    }

    /// Serialize and write to `path`.
    pub fn write_file(self, path: &Path) -> Result<()> {
        let bytes = self.finish()?;
        std::fs::write(path, bytes).map_err(|e| FormatError::io(path, e))
    }
}

fn write_column(out: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Int32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        Column::Int64(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        Column::Float32(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        Column::Float64(v) => v.iter().for_each(|x| out.extend_from_slice(&x.to_le_bytes())),
        Column::Bool(v) => v.iter().for_each(|&x| out.push(u8::from(x))),
        Column::Utf8(_) => unreachable!("schema validated fixed-width"),
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct CollDir {
    offsets_pos: usize,
    field_pos: Vec<usize>,
}

/// An open rootsim file: the "ROOT I/O library" surface consumed by both the
/// hand-written analysis baseline and RAW's generated access paths.
pub struct RootSimFile {
    buf: FileBytes,
    schema: RootSchema,
    events: u64,
    scalar_pos: Vec<usize>,
    colls: Vec<CollDir>,
}

impl RootSimFile {
    /// Open from shared bytes (typically via [`crate::FileBufferPool`]).
    pub fn open_bytes(buf: FileBytes) -> Result<RootSimFile> {
        let mut cur = ByteCursor::new(&buf, "rootsim header");
        cur.magic(MAGIC)?;
        // Every declared entry costs at least its name length, its type
        // code (or field count) and its directory slot.
        let n = cur.u32()?;
        let mut scalars = Vec::with_capacity(cur.count(n.into(), 2 + 1 + 8)?);
        for _ in 0..n {
            scalars.push((cur.name()?.to_owned(), cur.data_type()?));
        }
        let n = cur.u32()?;
        let mut collections = Vec::with_capacity(cur.count(n.into(), 2 + 4 + 8)?);
        for _ in 0..n {
            let name = cur.name()?.to_owned();
            let n_fields = cur.u32()?;
            let mut fields = Vec::with_capacity(cur.count(n_fields.into(), 2 + 1 + 8)?);
            for _ in 0..n_fields {
                fields.push((cur.name()?.to_owned(), cur.data_type()?));
            }
            collections.push(RootCollection { name, fields });
        }
        let events = cur.u64()?;

        let mut slot = || cur.u64().map(|pos| pos as usize);
        let scalar_pos = scalars.iter().map(|_| slot()).collect::<Result<Vec<_>>>()?;
        let mut colls = Vec::with_capacity(collections.len());
        for c in &collections {
            let offsets_pos = slot()?;
            let field_pos = c.fields.iter().map(|_| slot()).collect::<Result<Vec<_>>>()?;
            colls.push(CollDir { offsets_pos, field_pos });
        }

        let file = RootSimFile {
            buf: Arc::clone(&buf),
            schema: RootSchema { scalars, collections },
            events,
            scalar_pos,
            colls,
        };
        file.validate_extents()?;
        Ok(file)
    }

    /// Open directly from a path (unpooled; experiments use the pool).
    pub fn open(path: &Path) -> Result<RootSimFile> {
        let data = std::fs::read(path).map_err(|e| FormatError::io(path, e))?;
        RootSimFile::open_bytes(file_bytes(data))
    }

    /// Check every directory extent against the file, and that each
    /// collection's offsets table starts at 0 and never decreases — the
    /// item readers index by those offsets without further checks.
    fn validate_extents(&self) -> Result<()> {
        let mut cur = ByteCursor::new(&self.buf, "rootsim directory");
        for (i, &(_, dt)) in self.schema.scalars.iter().enumerate() {
            cur.seek(self.scalar_pos[i] as u64)?;
            cur.items(self.events, width(dt))?;
        }
        for (c, dir) in self.colls.iter().enumerate() {
            cur.seek(dir.offsets_pos as u64)?;
            cur.count(self.events.saturating_add(1), 8)?;
            let mut total = 0;
            for e in 0..=self.events {
                let o = cur.u64()?;
                if o < total || (e == 0 && o > 0) {
                    return Err(cur.corrupt_at(cur.pos() - 8, "item offsets not ascending from 0"));
                }
                total = o;
            }
            for (f, &(_, dt)) in self.schema.collections[c].fields.iter().enumerate() {
                cur.seek(dir.field_pos[f] as u64)?;
                cur.items(total, width(dt))?;
            }
        }
        Ok(())
    }

    /// Number of events in the file.
    pub fn num_events(&self) -> u64 {
        self.events
    }

    /// The file's schema.
    pub fn schema(&self) -> &RootSchema {
        &self.schema
    }

    /// Resolve a scalar branch by name. The JIT code generator calls this
    /// once at "compile" time and bakes the id into the access path — "the
    /// code generation step queries the ROOT library for internal
    /// ROOT-specific identifiers that uniquely identify each attribute" (§6).
    pub fn scalar_branch(&self, name: &str) -> Option<BranchId> {
        self.schema.scalars.iter().position(|(n, _)| n == name).map(BranchId)
    }

    /// Resolve a collection by name.
    pub fn collection(&self, name: &str) -> Option<CollectionId> {
        self.schema.collections.iter().position(|c| c.name == name).map(CollectionId)
    }

    /// Resolve a field within a collection by name.
    pub fn field(&self, coll: CollectionId, name: &str) -> Option<FieldId> {
        self.schema.collections[coll.0].fields.iter().position(|(n, _)| n == name).map(FieldId)
    }

    /// Type of a scalar branch.
    pub fn scalar_type(&self, branch: BranchId) -> DataType {
        self.schema.scalars[branch.0].1
    }

    /// Type of a collection field.
    pub fn field_type(&self, coll: CollectionId, field: FieldId) -> DataType {
        self.schema.collections[coll.0].fields[field.0].1
    }

    #[inline]
    fn scalar_at(&self, branch: BranchId, event: u64) -> usize {
        let dt = self.schema.scalars[branch.0].1;
        self.scalar_pos[branch.0] + event as usize * width(dt)
    }

    /// Read an `i32` scalar branch value for one event.
    #[inline(never)]
    pub fn read_scalar_i32(&self, branch: BranchId, event: u64) -> i32 {
        crate::fbin::read_i32(&self.buf, self.scalar_at(branch, event))
    }

    /// Read an `i64` scalar branch value for one event.
    #[inline(never)]
    pub fn read_scalar_i64(&self, branch: BranchId, event: u64) -> i64 {
        crate::fbin::read_i64(&self.buf, self.scalar_at(branch, event))
    }

    /// Read an `f32` scalar branch value for one event.
    #[inline(never)]
    pub fn read_scalar_f32(&self, branch: BranchId, event: u64) -> f32 {
        crate::fbin::read_f32(&self.buf, self.scalar_at(branch, event))
    }

    /// Read an `f64` scalar branch value for one event.
    #[inline(never)]
    pub fn read_scalar_f64(&self, branch: BranchId, event: u64) -> f64 {
        crate::fbin::read_f64(&self.buf, self.scalar_at(branch, event))
    }

    /// Generic scalar read (slow path; used by generic plumbing and tests).
    pub fn read_scalar(&self, branch: BranchId, event: u64) -> Result<Value> {
        if event >= self.events {
            return Err(FormatError::Corrupt {
                context: format!("event {event} out of range ({} events)", self.events),
                offset: None,
            });
        }
        Ok(match self.scalar_type(branch) {
            DataType::Int32 => Value::Int32(self.read_scalar_i32(branch, event)),
            DataType::Int64 => Value::Int64(self.read_scalar_i64(branch, event)),
            DataType::Float32 => Value::Float32(self.read_scalar_f32(branch, event)),
            DataType::Float64 => Value::Float64(self.read_scalar_f64(branch, event)),
            DataType::Bool => Value::Bool(self.buf[self.scalar_at(branch, event)] != 0),
            DataType::Utf8 => unreachable!("rootsim branches are fixed-width"),
        })
    }

    /// Global item-index range `[start, end)` of `coll`'s items for `event` —
    /// the id-based access that RAW maps to an index-based scan.
    #[inline(never)]
    pub fn item_range(&self, coll: CollectionId, event: u64) -> (u64, u64) {
        let base = self.colls[coll.0].offsets_pos;
        let lo = crate::fbin::read_i64(&self.buf, base + event as usize * 8) as u64;
        let hi = crate::fbin::read_i64(&self.buf, base + (event as usize + 1) * 8) as u64;
        (lo, hi)
    }

    /// Number of items of `coll` in `event`.
    #[inline(never)]
    pub fn item_count(&self, coll: CollectionId, event: u64) -> u64 {
        let (lo, hi) = self.item_range(coll, event);
        hi - lo
    }

    /// Total items of `coll` across all events.
    pub fn total_items(&self, coll: CollectionId) -> u64 {
        if self.events == 0 {
            return 0;
        }
        let base = self.colls[coll.0].offsets_pos;
        crate::fbin::read_i64(&self.buf, base + self.events as usize * 8) as u64
    }

    /// Cumulative item count of `coll` before `event` — the offsets-table
    /// entry `offsets[event]`, valid for `0..=num_events`. `items_upto(0)`
    /// is 0 and `items_upto(num_events)` is [`RootSimFile::total_items`].
    /// Event-aligned partitioners use consecutive values to resolve each
    /// segment's global item slice.
    pub fn items_upto(&self, coll: CollectionId, event: u64) -> u64 {
        debug_assert!(event <= self.events, "offsets table has num_events + 1 entries");
        let base = self.colls[coll.0].offsets_pos;
        crate::fbin::read_i64(&self.buf, base + event as usize * 8) as u64
    }

    /// Average on-disk payload bytes per event, counting scalar branches,
    /// collection offsets tables, and collection item data. This is what
    /// event-range partitioners should charge per event: collection-heavy
    /// files carry most of their bytes outside the scalar branches.
    pub fn bytes_per_event(&self) -> u64 {
        if self.events == 0 {
            return 1;
        }
        let mut total: u64 = 0;
        for &(_, dt) in &self.schema.scalars {
            total += self.events * width(dt) as u64;
        }
        for (c, coll) in self.schema.collections.iter().enumerate() {
            total += (self.events + 1) * 8; // offsets table
            let items = self.total_items(CollectionId(c));
            for &(_, dt) in &coll.fields {
                total += items * width(dt) as u64;
            }
        }
        (total / self.events).max(1)
    }

    /// The event owning global item `item` of `coll` (binary search over the
    /// offsets table).
    pub fn event_of_item(&self, coll: CollectionId, item: u64) -> u64 {
        let base = self.colls[coll.0].offsets_pos;
        let mut lo = 0u64;
        let mut hi = self.events; // invariant: offsets[lo] <= item < offsets[hi+1]
        while lo < hi {
            let mid = (lo + hi) / 2;
            let upper = crate::fbin::read_i64(&self.buf, base + (mid as usize + 1) * 8) as u64;
            if item < upper {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[inline]
    fn item_at(&self, coll: CollectionId, field: FieldId, item: u64) -> usize {
        let dt = self.field_type(coll, field);
        self.colls[coll.0].field_pos[field.0] + item as usize * width(dt)
    }

    /// Read one `f32` collection-field value by global item index.
    #[inline(never)]
    pub fn read_item_f32(&self, coll: CollectionId, field: FieldId, item: u64) -> f32 {
        crate::fbin::read_f32(&self.buf, self.item_at(coll, field, item))
    }

    /// Read one `f64` collection-field value by global item index.
    #[inline(never)]
    pub fn read_item_f64(&self, coll: CollectionId, field: FieldId, item: u64) -> f64 {
        crate::fbin::read_f64(&self.buf, self.item_at(coll, field, item))
    }

    /// Read one `i32` collection-field value by global item index.
    #[inline(never)]
    pub fn read_item_i32(&self, coll: CollectionId, field: FieldId, item: u64) -> i32 {
        crate::fbin::read_i32(&self.buf, self.item_at(coll, field, item))
    }

    /// Read one `i64` collection-field value by global item index.
    #[inline(never)]
    pub fn read_item_i64(&self, coll: CollectionId, field: FieldId, item: u64) -> i64 {
        crate::fbin::read_i64(&self.buf, self.item_at(coll, field, item))
    }

    /// Generic item read (slow path).
    pub fn read_item(&self, coll: CollectionId, field: FieldId, item: u64) -> Result<Value> {
        if item >= self.total_items(coll) {
            return Err(FormatError::Corrupt {
                context: format!("item {item} out of range"),
                offset: None,
            });
        }
        Ok(match self.field_type(coll, field) {
            DataType::Int32 => Value::Int32(self.read_item_i32(coll, field, item)),
            DataType::Int64 => Value::Int64(self.read_item_i64(coll, field, item)),
            DataType::Float32 => Value::Float32(self.read_item_f32(coll, field, item)),
            DataType::Float64 => Value::Float64(self.read_item_f64(coll, field, item)),
            DataType::Bool => Value::Bool(self.buf[self.item_at(coll, field, item)] != 0),
            DataType::Utf8 => unreachable!("rootsim fields are fixed-width"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_collection_schema() -> RootSchema {
        RootSchema {
            scalars: vec![
                ("eventID".into(), DataType::Int64),
                ("runNumber".into(), DataType::Int32),
            ],
            collections: vec![
                RootCollection {
                    name: "muons".into(),
                    fields: vec![
                        ("pt".into(), DataType::Float32),
                        ("eta".into(), DataType::Float32),
                    ],
                },
                RootCollection {
                    name: "jets".into(),
                    fields: vec![("pt".into(), DataType::Float32)],
                },
            ],
        }
    }

    fn sample_file() -> RootSimFile {
        let mut w = RootSimWriter::new(two_collection_schema()).unwrap();
        // event 0: 2 muons, 1 jet
        w.add_event(
            &[Value::Int64(1000), Value::Int32(1)],
            &[
                vec![
                    vec![Value::Float32(10.0), Value::Float32(0.5)],
                    vec![Value::Float32(20.0), Value::Float32(-0.5)],
                ],
                vec![vec![Value::Float32(99.0)]],
            ],
        )
        .unwrap();
        // event 1: 0 muons, 2 jets
        w.add_event(
            &[Value::Int64(1001), Value::Int32(1)],
            &[vec![], vec![vec![Value::Float32(50.0)], vec![Value::Float32(60.0)]]],
        )
        .unwrap();
        // event 2: 1 muon, 0 jets
        w.add_event(
            &[Value::Int64(1002), Value::Int32(2)],
            &[vec![vec![Value::Float32(30.0), Value::Float32(1.5)]], vec![]],
        )
        .unwrap();
        let bytes = w.finish().unwrap();
        RootSimFile::open_bytes(file_bytes(bytes)).unwrap()
    }

    #[test]
    fn schema_roundtrip() {
        let f = sample_file();
        assert_eq!(f.num_events(), 3);
        assert_eq!(f.schema(), &two_collection_schema());
    }

    #[test]
    fn scalar_reads() {
        let f = sample_file();
        let ev = f.scalar_branch("eventID").unwrap();
        let run = f.scalar_branch("runNumber").unwrap();
        assert!(f.scalar_branch("nope").is_none());
        assert_eq!(f.read_scalar_i64(ev, 0), 1000);
        assert_eq!(f.read_scalar_i64(ev, 2), 1002);
        assert_eq!(f.read_scalar_i32(run, 2), 2);
        assert_eq!(f.read_scalar(ev, 1).unwrap(), Value::Int64(1001));
        assert!(f.read_scalar(ev, 3).is_err());
    }

    #[test]
    fn collection_ranges() {
        let f = sample_file();
        let muons = f.collection("muons").unwrap();
        let jets = f.collection("jets").unwrap();
        assert_eq!(f.item_range(muons, 0), (0, 2));
        assert_eq!(f.item_range(muons, 1), (2, 2));
        assert_eq!(f.item_range(muons, 2), (2, 3));
        assert_eq!(f.item_count(jets, 1), 2);
        assert_eq!(f.total_items(muons), 3);
        assert_eq!(f.total_items(jets), 3);
    }

    #[test]
    fn item_reads() {
        let f = sample_file();
        let muons = f.collection("muons").unwrap();
        let pt = f.field(muons, "pt").unwrap();
        let eta = f.field(muons, "eta").unwrap();
        assert!(f.field(muons, "zz").is_none());
        assert_eq!(f.read_item_f32(muons, pt, 0), 10.0);
        assert_eq!(f.read_item_f32(muons, pt, 1), 20.0);
        assert_eq!(f.read_item_f32(muons, pt, 2), 30.0);
        assert_eq!(f.read_item_f32(muons, eta, 2), 1.5);
        assert_eq!(f.read_item(muons, pt, 2).unwrap(), Value::Float32(30.0));
        assert!(f.read_item(muons, pt, 3).is_err());
    }

    #[test]
    fn items_upto_walks_the_offsets_table() {
        let f = sample_file();
        let muons = f.collection("muons").unwrap();
        assert_eq!(f.items_upto(muons, 0), 0);
        assert_eq!(f.items_upto(muons, 1), 2);
        assert_eq!(f.items_upto(muons, 2), 2, "event 1 has no muons");
        assert_eq!(f.items_upto(muons, 3), f.total_items(muons));
        let jets = f.collection("jets").unwrap();
        assert_eq!(f.items_upto(jets, 2), 3);
    }

    #[test]
    fn bytes_per_event_charges_collection_payload() {
        let f = sample_file();
        // 3 events: scalars = 3*(8+4); offsets = 2 tables * 4 entries * 8;
        // items = (3 muons * 2 f32 fields + 3 jets * 1 f32 field) * 4.
        let total = 3 * 12 + 2 * 4 * 8 + (3 * 2 + 3) * 4;
        assert_eq!(f.bytes_per_event(), total / 3);

        // Scalars-only files charge just the scalar widths.
        let schema =
            RootSchema { scalars: vec![("id".into(), DataType::Int64)], collections: vec![] };
        let mut w = RootSimWriter::new(schema).unwrap();
        w.add_event(&[Value::Int64(1)], &[]).unwrap();
        let f = RootSimFile::open_bytes(file_bytes(w.finish().unwrap())).unwrap();
        assert_eq!(f.bytes_per_event(), 8);

        // Empty files fall back to a positive default.
        let w = RootSimWriter::new(two_collection_schema()).unwrap();
        let f = RootSimFile::open_bytes(file_bytes(w.finish().unwrap())).unwrap();
        assert_eq!(f.bytes_per_event(), 1);
    }

    #[test]
    fn event_of_item_binary_search() {
        let f = sample_file();
        let muons = f.collection("muons").unwrap();
        assert_eq!(f.event_of_item(muons, 0), 0);
        assert_eq!(f.event_of_item(muons, 1), 0);
        assert_eq!(f.event_of_item(muons, 2), 2, "event 1 has no muons");
        let jets = f.collection("jets").unwrap();
        assert_eq!(f.event_of_item(jets, 0), 0);
        assert_eq!(f.event_of_item(jets, 1), 1);
        assert_eq!(f.event_of_item(jets, 2), 1);
    }

    #[test]
    fn corrupt_files_rejected() {
        assert!(RootSimFile::open_bytes(file_bytes(b"short".to_vec())).is_err());
        assert!(RootSimFile::open_bytes(file_bytes(b"WRONGMAG________".to_vec())).is_err());
        // Truncate a valid file inside the data section.
        let mut w = RootSimWriter::new(two_collection_schema()).unwrap();
        w.add_event(
            &[Value::Int64(1), Value::Int32(1)],
            &[vec![vec![Value::Float32(1.0), Value::Float32(2.0)]], vec![]],
        )
        .unwrap();
        let bytes = w.finish().unwrap();
        let truncated = bytes[..bytes.len() - 2].to_vec();
        assert!(RootSimFile::open_bytes(file_bytes(truncated)).is_err());
    }

    #[test]
    fn item_offsets_must_ascend_from_zero() {
        let f = sample_file();
        let at = f.colls[0].offsets_pos; // muons: 0, 2, 2, 3
        let with = |entry: usize, v: u64| {
            let mut bytes = f.buf.to_vec();
            bytes[at + entry * 8..at + entry * 8 + 8].copy_from_slice(&v.to_le_bytes());
            RootSimFile::open_bytes(file_bytes(bytes))
        };
        assert!(with(1, 2).is_ok(), "unchanged");
        assert!(with(2, 3).is_ok(), "event 1 may own the last muon");
        assert!(with(1, 5).is_err(), "offsets decrease after event 1");
        assert!(with(0, 1).is_err(), "offsets start past item 0");
        assert!(with(3, 1 << 61).is_err(), "items past the field extents");
    }

    #[test]
    fn writer_validates_shapes() {
        let mut w = RootSimWriter::new(two_collection_schema()).unwrap();
        assert!(w.add_event(&[Value::Int64(1)], &[vec![], vec![]]).is_err(), "scalar arity");
        assert!(
            w.add_event(&[Value::Int64(1), Value::Int32(1)], &[vec![]]).is_err(),
            "collection arity"
        );
        assert!(
            w.add_event(
                &[Value::Int64(1), Value::Int32(1)],
                &[vec![vec![Value::Float32(1.0)]], vec![]], // muon item missing eta
            )
            .is_err(),
            "item arity"
        );
        // utf8 schema rejected
        let bad = RootSchema { scalars: vec![("s".into(), DataType::Utf8)], collections: vec![] };
        assert!(RootSimWriter::new(bad).is_err());
    }

    #[test]
    fn empty_file() {
        let w = RootSimWriter::new(two_collection_schema()).unwrap();
        let bytes = w.finish().unwrap();
        let f = RootSimFile::open_bytes(file_bytes(bytes)).unwrap();
        assert_eq!(f.num_events(), 0);
        assert_eq!(f.total_items(CollectionId(0)), 0);
    }
}
