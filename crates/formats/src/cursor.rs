//! The one checked reader every binary header parses through.
//!
//! fbin, ibin, rootsim and the `.rzb` container all trust their headers:
//! the access paths compute `data_start + row * row_width + offset` from
//! them, so one extent that lies becomes an out-of-bounds read on every
//! morsel. Each reader therefore parses through a [`ByteCursor`]:
//!
//! - every typed read returns [`FormatError::Corrupt`] with the byte offset
//!   instead of panicking on a short buffer;
//! - [`ByteCursor::count`] bounds a declared item count by the bytes left
//!   *before* the caller allocates anything sized by it;
//! - extents (`items × width`, `pos + len`) are checked arithmetic, so a
//!   forged header is the same error in debug and release builds.
//!
//! The fixed-width type-code table all three binary formats share lives
//! here too ([`type_code`] / [`code_type`]).

use std::fmt::Display;

use raw_columnar::DataType;

use crate::error::{FormatError, Result};

/// The fixed-width types a binary header can declare, indexed by type code.
const TYPE_CODES: [DataType; 5] =
    [DataType::Int32, DataType::Int64, DataType::Float32, DataType::Float64, DataType::Bool];

/// The header type code of a fixed-width type (utf8 has none).
pub fn type_code(dt: DataType) -> Result<u8> {
    match TYPE_CODES.iter().position(|&t| t == dt) {
        Some(code) => Ok(code as u8),
        None => Err(FormatError::SchemaMismatch {
            message: format!("binary formats store fixed-width fields only, not {dt}"),
        }),
    }
}

/// The type a header type code names, if any.
pub fn code_type(code: u8) -> Option<DataType> {
    TYPE_CODES.get(usize::from(code)).copied()
}

/// A bounds-checked little-endian reader over one header region.
#[derive(Debug)]
pub struct ByteCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// File offset of `buf[0]`, so errors name file positions.
    base: usize,
    /// What is being read, for error context (e.g. `"fbin header"`).
    what: &'static str,
}

impl<'a> ByteCursor<'a> {
    /// A cursor at the start of `buf`, which begins at file offset 0.
    pub fn new(buf: &'a [u8], what: &'static str) -> ByteCursor<'a> {
        ByteCursor { buf, pos: 0, base: 0, what }
    }

    /// The same cursor over a region that begins at file offset `base`.
    pub fn based(self, base: usize) -> ByteCursor<'a> {
        ByteCursor { base, ..self }
    }

    /// Position within the region.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left after the position.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A `Corrupt` error at the current position.
    pub fn corrupt(&self, detail: impl Display) -> FormatError {
        self.corrupt_at(self.pos, detail)
    }

    /// A `Corrupt` error at region position `pos`.
    pub fn corrupt_at(&self, pos: usize, detail: impl Display) -> FormatError {
        FormatError::Corrupt {
            context: format!("reading {}: {detail}", self.what),
            offset: Some(self.base.saturating_add(pos) as u64),
        }
    }

    /// Move to region position `pos` (at most the region's length).
    pub fn seek(&mut self, pos: u64) -> Result<()> {
        match usize::try_from(pos) {
            Ok(pos) if pos <= self.buf.len() => {
                self.pos = pos;
                Ok(())
            }
            _ => Err(self.corrupt(format_args!("offset {pos} past the end ({})", self.buf.len()))),
        }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            let left = self.remaining();
            return Err(self.corrupt(format_args!("truncated: need {n} bytes, {left} left")));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Check the next bytes against `magic`.
    pub fn magic(&mut self, magic: &[u8]) -> Result<()> {
        let at = self.pos;
        if self.take(magic.len())? != magic {
            return Err(self.corrupt_at(at, "bad magic"));
        }
        Ok(())
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32> {
        self.array().map(i32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// Read a one-byte type code.
    pub fn data_type(&mut self) -> Result<DataType> {
        let code = self.u8()?;
        code_type(code).ok_or_else(|| self.corrupt_at(self.pos - 1, format!("type code {code}")))
    }

    /// Read a `u16`-length-prefixed UTF-8 name.
    pub fn name(&mut self) -> Result<&'a str> {
        let len = usize::from(self.u16()?);
        let at = self.pos;
        std::str::from_utf8(self.take(len)?).map_err(|_| self.corrupt_at(at, "non-utf8 name"))
    }

    /// Check a declared count of `n` items, each encoded in at least
    /// `min_bytes_each` bytes after the position, against the bytes left —
    /// before anything sized by `n` is allocated. Every item counts at
    /// least one byte, so a count of zero-width items (a row of no
    /// columns) is bounded too.
    pub fn count(&self, n: u64, min_bytes_each: usize) -> Result<usize> {
        let fits = usize::try_from(n).ok().filter(|&n| {
            n.checked_mul(min_bytes_each.max(1)).is_some_and(|b| b <= self.remaining())
        });
        fits.ok_or_else(|| {
            let left = self.remaining();
            self.corrupt(format_args!("{n} items of {min_bytes_each} bytes exceed the {left} left"))
        })
    }

    /// The next `n × width` bytes: `n` fixed-width items, checked by
    /// [`ByteCursor::count`].
    pub fn items(&mut self, n: u64, width: usize) -> Result<&'a [u8]> {
        let n = self.count(n, width)?;
        self.take(n * width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrupt_offset(r: Result<impl std::fmt::Debug>) -> u64 {
        match r {
            Err(FormatError::Corrupt { offset: Some(o), .. }) => o,
            other => panic!("expected Corrupt with an offset, got {other:?}"),
        }
    }

    #[test]
    fn typed_reads_are_little_endian() {
        let mut buf = b"MAGIC".to_vec();
        buf.extend_from_slice(&0x0102u16.to_le_bytes());
        buf.extend_from_slice(&(-5i32).to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&[3, b'a', b'b', b'c', 4]);
        let mut c = ByteCursor::new(&buf, "test");
        c.magic(b"MAGIC").unwrap();
        assert_eq!(c.u16().unwrap(), 0x0102);
        assert_eq!(c.i32().unwrap(), -5);
        assert_eq!(c.u64().unwrap(), u64::MAX);
        assert_eq!(c.u8().unwrap(), 3);
        c.seek(c.pos() as u64 - 1).unwrap();
        assert_eq!(c.u16().unwrap(), u16::from_le_bytes([3, b'a']));
        c.seek(c.pos() as u64 - 2).unwrap();
        assert!(c.name().is_err(), "a 0x6103-byte name runs past the end");
        c.seek(buf.len() as u64 - 1).unwrap();
        assert_eq!(c.data_type().unwrap(), DataType::Bool);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn short_reads_are_corrupt_at_the_position() {
        let buf = [0u8; 6];
        let mut c = ByteCursor::new(&buf, "test").based(100);
        c.take(4).unwrap();
        assert_eq!(corrupt_offset(c.u32()), 104);
        assert_eq!(c.pos(), 4, "a failed read does not move the cursor");
        assert_eq!(corrupt_offset(c.seek(7)), 104);
        assert_eq!(corrupt_offset(ByteCursor::new(b"MAGIX", "t").magic(b"MAGIC")), 0);
        assert_eq!(corrupt_offset(ByteCursor::new(&[9], "t").data_type()), 0);
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let buf = [0u8; 32];
        let mut c = ByteCursor::new(&buf, "test");
        c.take(8).unwrap();
        assert_eq!(c.count(3, 8).unwrap(), 3);
        assert!(c.count(4, 8).is_err(), "32 bytes of items, 24 left");
        assert_eq!(c.count(24, 0).unwrap(), 24, "zero-width items count a byte each");
        assert!(c.count(25, 0).is_err());
        assert!(c.count(1 << 61, 8).is_err(), "the product overflows");
        assert!(c.count(u64::MAX, 1).is_err());
        assert_eq!(c.items(2, 12).unwrap().len(), 24);
        assert!(c.items(1, 1).is_err());
    }

    #[test]
    fn type_codes_round_trip() {
        for code in 0..=u8::MAX {
            match code_type(code) {
                Some(dt) => assert_eq!(type_code(dt).unwrap(), code),
                None => assert!(code >= 5),
            }
        }
        assert!(type_code(DataType::Utf8).is_err());
    }
}
