//! # raw-formats
//!
//! Raw file format substrates for the RAW engine, mirroring the three formats
//! of the paper's evaluation:
//!
//! - [`csv`] — delimiter-separated text. Field locations vary per row, so
//!   navigation requires tokenizing (or a positional map, see `raw-posmap`).
//! - [`fbin`] — a custom fixed-width binary format where every field's byte
//!   position is computable from the schema alone
//!   (`row * tuple_size + field_offset`), the paper's "custom binary" format.
//! - [`rootsim`] — a self-built stand-in for CERN's ROOT format: nested
//!   event data (scalar branches + variable-length particle collections),
//!   accessed through an id-based API rather than raw byte parsing, exactly
//!   how the paper's generated code calls the ROOT I/O library instead of
//!   interpreting bytes (§6).
//! - [`ibin`] — a paged fixed-width binary format with an embedded per-page
//!   zone index (and a binary-searchable sorted-key regime), standing in
//!   for the HDF/shapefile family whose built-in indexes "can be exploited
//!   by the generated access paths" (§4.1).
//!
//! Plus:
//!
//! - [`cursor`] — the checked [`ByteCursor`] every binary header parses
//!   through, and the type-code table the binary formats share.
//! - [`file_buffer`] — an explicit in-process replacement for
//!   `mmap` + OS page cache, giving experiments a faithful cold/warm switch.
//! - [`datagen`] — deterministic generators for the paper's synthetic tables
//!   (30 or 120 columns, uniform integers in `[0, 1e9)`, float variants) and
//!   the CSV/binary "twins" used to compare formats on identical data.

pub mod csv;
pub mod cursor;
pub mod datagen;
pub mod error;
pub mod fbin;
pub mod file_buffer;
pub mod ibin;
pub mod rootsim;
pub mod rzb;

pub use cursor::ByteCursor;
pub use error::{FormatError, Result};
pub use file_buffer::FileBufferPool;
