//! Header mutation suite: hostile bytes are an error, in every format.
//!
//! For fbin, ibin, rootsim and the `.rzb` container, a valid small file
//! from the real writer has each header integer forced to a boundary value,
//! is truncated at every header byte, and has random bytes flipped. Every
//! mutant either fails to parse, or parses to a layout over which a
//! full-column `Session::query` — at parallelism 1 and 2 — returns an
//! answer or an error. A panic or a hang fails the test; an abort fails
//! the run. The forged files that used to panic or abort are named regression
//! tests at the bottom.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use proptest::prelude::*;
use raw_columnar::{Column, DataType, Field, MemTable, Schema, Value};
use raw_engine::{AccessMode, EngineConfig, RawEngine, TableDef, TableSource};
use raw_formats::file_buffer::file_bytes;
use raw_formats::rootsim::{RootCollection, RootSchema, RootSimFile, RootSimWriter};
use raw_formats::{fbin, ibin, rzb, FormatError};

/// Values every header integer is forced to (truncated to its width).
const BOUNDARY: [u64; 6] = [0, 1, 1 << 31, u32::MAX as u64, 1 << 61, u64::MAX];

#[derive(Debug, Clone, Copy)]
enum Format {
    Fbin,
    Ibin,
    RootSim,
    Rzb,
}

impl Format {
    fn extension(self) -> &'static str {
        match self {
            Format::Fbin => "fbin",
            Format::Ibin => "ibin",
            Format::RootSim => "root",
            Format::Rzb => "csv.rzb",
        }
    }

    /// Whether the format's own reader accepts `bytes`.
    fn parses(self, bytes: &[u8]) -> Result<(), FormatError> {
        match self {
            Format::Fbin => fbin::FbinLayout::parse(bytes).map(drop),
            Format::Ibin => ibin::IbinLayout::parse(bytes).map(drop),
            Format::RootSim => RootSimFile::open_bytes(file_bytes(bytes.to_vec())).map(drop),
            Format::Rzb => rzb::parse_index(bytes).map(drop),
        }
    }

    /// The tables over a file of this format, each with a query reading
    /// every column.
    fn tables(self, path: &Path) -> Vec<(TableDef, &'static str)> {
        let def = |name: &str, fields: Vec<Field>, source| TableDef {
            name: name.into(),
            schema: Schema::new(fields),
            source,
        };
        let path = path.to_path_buf();
        let abc = || {
            vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int32),
                Field::new("c", DataType::Float64),
            ]
        };
        match self {
            Format::Fbin => vec![(
                def("t", abc(), TableSource::Fbin { path }),
                "SELECT MAX(a), MAX(b), MAX(c) FROM t",
            )],
            Format::Ibin => vec![(
                def("t", abc(), TableSource::Ibin { path }),
                "SELECT MAX(a), MAX(b), MAX(c) FROM t WHERE a > 5",
            )],
            Format::Rzb => vec![(
                def(
                    "t",
                    Schema::uniform(3, DataType::Int64).fields().to_vec(),
                    TableSource::Csv { path },
                ),
                "SELECT MAX(col1), MAX(col2), MAX(col3) FROM t",
            )],
            Format::RootSim => vec![
                (
                    def(
                        "ev",
                        vec![Field::new("id", DataType::Int64), Field::new("run", DataType::Int32)],
                        TableSource::RootEvents { path: path.clone() },
                    ),
                    "SELECT MAX(id), MAX(run) FROM ev",
                ),
                (
                    def(
                        "mu",
                        vec![
                            Field::new("id", DataType::Int64),
                            Field::new("pt", DataType::Float32),
                            Field::new("eta", DataType::Float64),
                        ],
                        TableSource::RootCollection {
                            path,
                            collection: "mu".into(),
                            parent_scalar: Some("id".into()),
                        },
                    ),
                    "SELECT MAX(id), MAX(pt), MAX(eta) FROM mu",
                ),
            ],
        }
    }
}

fn abc_table(rows: usize) -> MemTable {
    let a: Vec<i64> = (0..rows as i64).map(|r| r * 7 - 20).collect();
    let b: Vec<i32> = (0..rows as i32).map(|r| 100 - r).collect();
    let c: Vec<f64> = (0..rows).map(|r| r as f64 * 0.5).collect();
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Int32),
        Field::new("c", DataType::Float64),
    ]);
    MemTable::new(schema, vec![Column::Int64(a), Column::Int32(b), Column::Float64(c)]).unwrap()
}

/// A valid file of `format` plus the (offset, width) of each header
/// integer and the number of leading bytes truncations cut inside.
struct Subject {
    bytes: Vec<u8>,
    ints: Vec<(usize, usize)>,
    header_len: usize,
}

/// A rootsim header entry at `at`: a `u16` name length, the name, then a
/// `tail`-byte integer (type code or field count).
fn named(ints: &mut Vec<(usize, usize)>, at: &mut usize, len: usize, tail: usize) {
    ints.extend([(*at, 2), (*at + 2 + len, tail)]);
    *at += 2 + len + tail;
}

fn subject(format: Format) -> Subject {
    match format {
        Format::Fbin => {
            let bytes = fbin::to_bytes(&abc_table(12)).unwrap();
            // magic, ncols, 3 type codes, nrows
            let ints = vec![(8, 4), (12, 1), (13, 1), (14, 1), (15, 8)];
            Subject { bytes, ints, header_len: 23 }
        }
        Format::Ibin => {
            let bytes = ibin::to_bytes_with(&abc_table(12), 4, Some(0)).unwrap();
            // magic, ncols, 3 type codes, nrows, rows_per_page, sorted_key
            let ints = vec![(8, 4), (12, 1), (13, 1), (14, 1), (15, 8), (23, 4), (27, 4)];
            Subject { bytes, ints, header_len: 31 }
        }
        Format::RootSim => {
            let schema = RootSchema {
                scalars: vec![("id".into(), DataType::Int64), ("run".into(), DataType::Int32)],
                collections: vec![RootCollection {
                    name: "mu".into(),
                    fields: vec![
                        ("pt".into(), DataType::Float32),
                        ("eta".into(), DataType::Float64),
                    ],
                }],
            };
            // Walk the writer's header layout for this schema: counts,
            // name lengths and type codes, the event count, the directory.
            let mut ints = vec![(8, 4)];
            let mut at = 12;
            for (n, _) in &schema.scalars {
                named(&mut ints, &mut at, n.len(), 1);
            }
            ints.push((at, 4));
            at += 4;
            for c in &schema.collections {
                named(&mut ints, &mut at, c.name.len(), 4);
                for (n, _) in &c.fields {
                    named(&mut ints, &mut at, n.len(), 1);
                }
            }
            let slots = schema.scalars.len()
                + schema.collections.iter().map(|c| 1 + c.fields.len()).sum::<usize>();
            let mut w = RootSimWriter::new(schema).unwrap();
            for e in 0..6i64 {
                let items = (0..e % 3)
                    .map(|i| vec![Value::Float32(e as f32 + i as f32), Value::Float64(-(e as f64))])
                    .collect();
                w.add_event(&[Value::Int64(e), Value::Int32(e as i32 / 2)], &[items]).unwrap();
            }
            for slot in 0..=slots {
                ints.push((at + slot * 8, 8));
            }
            Subject { bytes: w.finish().unwrap(), ints, header_len: at + (slots + 1) * 8 }
        }
        Format::Rzb => {
            let csv =
                raw_formats::csv::writer::to_bytes(&raw_formats::datagen::int_table(5, 40, 3))
                    .unwrap();
            let bytes = rzb::compress(&csv, 256);
            let len = bytes.len();
            let index = rzb::parse_index(&bytes).unwrap();
            // version, block_bytes, uncompressed_len; the footer entries;
            // the tail's footer_off, block_count and footer CRC.
            let mut ints = vec![(8, 4), (12, 4), (16, 8)];
            let footer = len - 24 - index.block_count() * 16;
            for b in 0..index.block_count() {
                ints.extend([
                    (footer + b * 16, 8),
                    (footer + b * 16 + 8, 4),
                    (footer + b * 16 + 12, 4),
                ]);
            }
            ints.extend([(len - 24, 8), (len - 16, 4), (len - 12, 4)]);
            // The container's header is split: every byte is a header byte.
            Subject { bytes, ints, header_len: len }
        }
    }
}

/// A query that has not answered by then counts as hung.
const HANG: Duration = Duration::from_secs(60);

/// Run `sql` on a fresh session of `engine`, on its own thread so that a
/// hang fails the test instead of stalling it; `Ok` when it answered.
fn query(engine: &RawEngine, sql: &'static str) -> bool {
    let session = engine.session();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(session.query(sql).is_ok()));
    match rx.recv_timeout(HANG) {
        Ok(answered) => answered,
        Err(RecvTimeoutError::Timeout) => panic!("{sql} hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("{sql} panicked"),
    }
}

/// Two engines (parallelism 1 and 2, tiny morsels so small files split)
/// that every parsing mutant is queried through.
struct Harness {
    dir: PathBuf,
    engines: Vec<RawEngine>,
    case: usize,
    queried: usize,
}

impl Harness {
    fn new(tag: &str) -> Harness {
        let dir = std::env::temp_dir().join(format!("raw_mut_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let engines = [1, 2]
            .map(|p| {
                RawEngine::new(EngineConfig {
                    mode: AccessMode::Jit,
                    parallelism: p,
                    morsel_bytes: 64,
                    read_chunk_bytes: 128,
                    ..EngineConfig::default()
                })
            })
            .into();
        Harness { dir, engines, case: 0, queried: 0 }
    }

    /// Parse `bytes`; if the reader accepts them, query every table over
    /// them. Either outcome may be an error; neither may panic.
    fn check(&mut self, format: Format, bytes: &[u8]) {
        self.case += 1;
        if format.parses(bytes).is_err() {
            return;
        }
        self.queried += 1;
        let path = self.dir.join(format!("m{}.{}", self.case, format.extension()));
        std::fs::write(&path, bytes).unwrap();
        for engine in &self.engines {
            engine.drop_file_caches();
            engine.reset_adaptive_state();
            for (def, sql) in format.tables(&path) {
                engine.register_table(def);
                query(engine, sql);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Boundary values in every header integer, then a cut at every
    /// header byte.
    fn structured(&mut self, format: Format) {
        let s = subject(format);
        format.parses(&s.bytes).expect("the writer's file parses");
        self.check(format, &s.bytes);
        for &(at, width) in &s.ints {
            for v in BOUNDARY {
                let mut m = s.bytes.clone();
                m[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                self.check(format, &m);
            }
        }
        for cut in 0..s.header_len.min(s.bytes.len()) {
            self.check(format, &s.bytes[..cut]);
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Random byte flips anywhere in the file: one to three per case.
const FLIP_CASES: usize = 500;

fn mutations(format: Format) {
    let mut h = Harness::new(&format!("{format:?}"));
    h.structured(format);
    let base = subject(format).bytes;
    let flips = proptest::collection::vec((any::<u64>(), 1u8..=255), 1..4);
    let mut rng = TestRng::deterministic(&format!("{format:?} byte flips"));
    for _ in 0..FLIP_CASES {
        let mut m = base.clone();
        for (pos, x) in flips.generate(&mut rng) {
            m[(pos % base.len() as u64) as usize] ^= x;
        }
        h.check(format, &m);
    }
    assert!(h.case >= 500, "{format:?}: only {} cases", h.case);
    assert!(h.queried > 0, "{format:?}: no mutant reached a query");
}

#[test]
fn fbin_header_mutations() {
    mutations(Format::Fbin);
}

#[test]
fn ibin_header_mutations() {
    mutations(Format::Ibin);
}

#[test]
fn rootsim_header_mutations() {
    mutations(Format::RootSim);
}

#[test]
fn rzb_header_mutations() {
    mutations(Format::Rzb);
}

// -- forged headers ------------------------------------------------------

/// `bytes` are `FormatError::Corrupt` from the parser and an error from
/// `Session::query` at parallelism 1 and 2.
fn assert_forged(format: Format, bytes: &[u8]) {
    match format.parses(bytes) {
        Err(FormatError::Corrupt { .. }) => {}
        other => panic!("{format:?}: expected FormatError::Corrupt, got {other:?}"),
    }
    let h = Harness::new(&format!("forged_{format:?}"));
    let path = h.dir.join(format!("forged.{}", format.extension()));
    std::fs::write(&path, bytes).unwrap();
    for engine in &h.engines {
        for (def, sql) in format.tables(&path) {
            engine.register_table(def);
            assert!(!query(engine, sql), "{format:?}: {sql} answered");
        }
    }
}

/// 21 bytes: one Int64 column and 2⁶¹ rows, whose byte extent wraps to 0
/// in a release build.
#[test]
fn forged_fbin_with_2_pow_61_rows_is_corrupt() {
    let mut b = fbin::MAGIC.to_vec();
    b.extend_from_slice(&1u32.to_le_bytes());
    b.push(1);
    b.extend_from_slice(&(1u64 << 61).to_le_bytes());
    assert_eq!(b.len(), 21);
    assert_forged(Format::Fbin, &b);
}

/// No columns and 2⁶¹ rows: zero-width rows are still bounded by the file.
#[test]
fn forged_fbin_with_no_columns_and_2_pow_61_rows_is_corrupt() {
    let mut b = fbin::MAGIC.to_vec();
    b.extend_from_slice(&0u32.to_le_bytes());
    b.extend_from_slice(&(1u64 << 61).to_le_bytes());
    assert_forged(Format::Fbin, &b);
}

fn forged_ibin(ncols: u32, rows: u64) -> Vec<u8> {
    let mut b = ibin::MAGIC.to_vec();
    b.extend_from_slice(&ncols.to_le_bytes());
    b.extend(std::iter::repeat_n(1u8, ncols as usize));
    b.extend_from_slice(&rows.to_le_bytes());
    b.extend_from_slice(&1u32.to_le_bytes());
    b.extend_from_slice(&(-1i32).to_le_bytes());
    b
}

/// 29 bytes: one Int64 column, 2⁶¹ rows of one row per page — the zone
/// index alone would need 2⁶⁵ bytes.
#[test]
fn forged_ibin_with_2_pow_61_rows_is_corrupt() {
    let b = forged_ibin(1, 1 << 61);
    assert_eq!(b.len(), 29);
    assert_forged(Format::Ibin, &b);
}

#[test]
fn forged_ibin_with_no_columns_and_2_pow_61_rows_is_corrupt() {
    assert_forged(Format::Ibin, &forged_ibin(0, 1 << 61));
}

/// 12 bytes declaring `u32::MAX` scalar branches, which used to reserve
/// 137 GB before reading the first name.
#[test]
fn forged_rootsim_with_u32_max_scalars_is_corrupt() {
    let mut b = raw_formats::rootsim::MAGIC.to_vec();
    b.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(b.len(), 12);
    assert_forged(Format::RootSim, &b);
}
