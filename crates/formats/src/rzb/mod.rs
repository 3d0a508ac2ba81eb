//! The `.rzb` blocked-compressed container.
//!
//! Any raw file (CSV, fbin, ibin, …) can be wrapped in an `.rzb`
//! container: the payload is split into fixed-size *uncompressed* blocks
//! (default 256 KiB), each compressed independently by the [`codec`] and
//! checksummed, with a footer index mapping uncompressed block spans to
//! compressed byte ranges. Independent blocks plus the index are what
//! make compression compatible with the engine's parallel cold path:
//! a morsel's availability gate decodes exactly the blocks covering its
//! uncompressed byte range (see [`decode`]), while positional maps,
//! shreds, and morsel grids keep working in uncompressed coordinates.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! ```text
//! offset      size  field
//! 0           8     magic  89 52 5A 42 0D 0A 1A 00   ("\x89RZB\r\n\x1a\x00")
//! 8           4     version (= 1)
//! 12          4     block_bytes: uncompressed bytes per block (last may be short)
//! 16          8     uncompressed_len
//! 24          …     block payloads, concatenated (see codec for payload format)
//! footer_off  16·n  block index: { comp_off: u64, comp_len: u32, crc32: u32 }
//!                   crc32 is over the *uncompressed* block bytes
//! len-24      8     footer_off
//! len-16      4     block_count n
//! len-12      4     crc32 of the footer bytes
//! len-8       8     tail magic "RZBINDEX"
//! ```
//!
//! The fixed-size tail lets a reader find the index with three seeks
//! (tail → footer → header) before any sequential streaming starts.

pub mod codec;
pub mod decode;

use std::fs;
use std::io::{Read as _, Seek, SeekFrom};
use std::ops::Range;
use std::path::Path;

use crate::cursor::ByteCursor;
use crate::error::{FormatError, Result};
use raw_trace::EngineMetrics;

pub use decode::RzbDecoder;

/// Container magic: non-ASCII lead byte plus CR/LF/EOF bytes to catch
/// text-mode mangling, PNG-style.
pub const MAGIC: [u8; 8] = *b"\x89RZB\x0d\x0a\x1a\x00";
/// Trailing magic closing the fixed-size tail.
pub const TAIL_MAGIC: [u8; 8] = *b"RZBINDEX";
/// Current container version.
pub const VERSION: u32 = 1;
/// Default uncompressed block size (`EngineConfig::rzb_block_bytes`).
pub const DEFAULT_BLOCK_BYTES: usize = 256 << 10;

const HEADER_BYTES: usize = 24;
const TAIL_BYTES: usize = 24;
const ENTRY_BYTES: usize = 16;

/// One footer entry: where block `i`'s payload lives and what its
/// uncompressed bytes must hash to.
#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    comp_off: u64,
    comp_len: u32,
    crc: u32,
}

/// The parsed container index: enough to map any uncompressed byte range
/// to the compressed blocks covering it, without touching block data.
#[derive(Debug, Clone)]
pub struct RzbIndex {
    block_bytes: usize,
    uncompressed_len: usize,
    file_len: usize,
    entries: Vec<BlockEntry>,
}

impl RzbIndex {
    /// Uncompressed bytes per block (the last block may be shorter).
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Total uncompressed payload length.
    pub fn uncompressed_len(&self) -> usize {
        self.uncompressed_len
    }

    /// Total container file length (header + payloads + footer + tail).
    pub fn file_len(&self) -> usize {
        self.file_len
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.entries.len()
    }

    /// Uncompressed byte span of block `i`.
    pub fn block_span(&self, i: usize) -> Range<usize> {
        let start = i * self.block_bytes;
        start..(start + self.block_bytes).min(self.uncompressed_len)
    }

    /// Compressed byte range of block `i`'s payload within the file.
    pub fn comp_range(&self, i: usize) -> Range<usize> {
        let e = &self.entries[i];
        e.comp_off as usize..e.comp_off as usize + e.comp_len as usize
    }

    /// Stored CRC-32 of block `i`'s uncompressed bytes.
    pub fn crc(&self, i: usize) -> u32 {
        self.entries[i].crc
    }

    /// Index of the block containing uncompressed offset `off`, found by
    /// binary search over the block starts — O(log n) random access.
    pub fn block_containing(&self, off: usize) -> Option<usize> {
        if off >= self.uncompressed_len || self.entries.is_empty() {
            return None;
        }
        // partition_point: first block whose span starts beyond `off`;
        // the block containing `off` is the one before it.
        let mut lo = 0usize;
        let mut hi = self.entries.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if mid * self.block_bytes <= off {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(lo - 1)
    }

    /// Half-open block-index range covering the uncompressed byte
    /// `range` (clamped to the payload; empty ranges cover no blocks).
    pub fn blocks_for(&self, range: Range<usize>) -> Range<usize> {
        let start = range.start.min(self.uncompressed_len);
        let end = range.end.min(self.uncompressed_len);
        if start >= end {
            return 0..0;
        }
        let first = match self.block_containing(start) {
            Some(i) => i,
            None => return 0..0,
        };
        let last = match self.block_containing(end - 1) {
            Some(i) => i,
            None => return 0..0,
        };
        first..last + 1
    }
}

/// Whether `path` names an `.rzb` container (by extension; the table
/// path keeps its inner extension, e.g. `t.csv.rzb`).
pub fn is_rzb_path(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("rzb")
}

/// Whether `data` starts with the container magic.
pub fn sniff(data: &[u8]) -> bool {
    data.len() >= MAGIC.len() && data[..MAGIC.len()] == MAGIC
}

fn corrupt(context: String, offset: Option<u64>) -> FormatError {
    FormatError::Corrupt { context, offset }
}

/// Compress `src` into a complete in-memory `.rzb` container image.
pub fn compress(src: &[u8], block_bytes: usize) -> Vec<u8> {
    let block_bytes = block_bytes.max(1);
    assert!(block_bytes <= u32::MAX as usize, "rzb block size exceeds u32");
    let mut out = Vec::with_capacity(HEADER_BYTES + src.len() / 2 + TAIL_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(block_bytes as u32).to_le_bytes());
    out.extend_from_slice(&(src.len() as u64).to_le_bytes());
    let mut entries: Vec<BlockEntry> = Vec::new();
    for chunk in src.chunks(block_bytes) {
        let comp_off = out.len() as u64;
        codec::encode_block(chunk, &mut out);
        entries.push(BlockEntry {
            comp_off,
            comp_len: (out.len() as u64 - comp_off) as u32,
            crc: codec::crc32(chunk),
        });
    }
    let footer_off = out.len() as u64;
    for e in &entries {
        out.extend_from_slice(&e.comp_off.to_le_bytes());
        out.extend_from_slice(&e.comp_len.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
    }
    let footer_crc = codec::crc32(&out[footer_off as usize..]);
    out.extend_from_slice(&footer_off.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    out.extend_from_slice(&footer_crc.to_le_bytes());
    out.extend_from_slice(&TAIL_MAGIC);
    out
}

/// Compress the file at `src` into an `.rzb` container at `dst`.
pub fn write_file(src: &Path, dst: &Path, block_bytes: usize) -> Result<RzbIndex> {
    let data = fs::read(src).map_err(|e| FormatError::io(src, e))?;
    let packed = compress(&data, block_bytes);
    fs::write(dst, &packed).map_err(|e| FormatError::io(dst, e))?;
    parse_index(&packed)
}

/// Shared validation over the three fixed regions of the container.
fn parse_parts(header: &[u8], footer: &[u8], tail: &[u8], file_len: usize) -> Result<RzbIndex> {
    let mut h = ByteCursor::new(header, "rzb header");
    h.magic(&MAGIC)?;
    let version = h.u32()?;
    if version != VERSION {
        return Err(h.corrupt_at(8, format!("unsupported version {version}")));
    }
    let block_bytes = h.u32()? as usize;
    if block_bytes == 0 {
        return Err(h.corrupt_at(12, "zero block size"));
    }
    let uncompressed_len = h.u64()? as usize;
    let mut t = ByteCursor::new(tail, "rzb tail").based(file_len - TAIL_BYTES);
    let footer_off = t.u64()?;
    let block_count = t.u32()?;
    let footer_crc = t.u32()?;
    t.magic(&TAIL_MAGIC)?;
    let expected_blocks = uncompressed_len.div_ceil(block_bytes);
    if block_count as usize != expected_blocks {
        return Err(t.corrupt_at(
            8,
            format!(
                "{block_count} blocks indexed, {expected_blocks} expected for \
                 {uncompressed_len} bytes"
            ),
        ));
    }
    let mut f = ByteCursor::new(footer, "rzb footer").based(footer_off as usize);
    let block_count = f.count(block_count.into(), ENTRY_BYTES)?;
    if f.remaining() != block_count * ENTRY_BYTES
        || footer_off.checked_add((footer.len() + TAIL_BYTES) as u64) != Some(file_len as u64)
    {
        return Err(t.corrupt_at(0, "footer bounds out of range"));
    }
    if codec::crc32(footer) != footer_crc {
        return Err(f.corrupt("index CRC mismatch"));
    }
    let mut entries = Vec::with_capacity(block_count);
    for i in 0..block_count {
        let at = f.pos();
        let e = BlockEntry { comp_off: f.u64()?, comp_len: f.u32()?, crc: f.u32()? };
        let end = e.comp_off.checked_add(e.comp_len.into());
        if e.comp_off < HEADER_BYTES as u64 || end.is_none_or(|end| end > footer_off) {
            return Err(f.corrupt_at(at, format!("block {i} payload outside the data region")));
        }
        // Block `i` starts below `uncompressed_len` (the block count
        // matches), so the span arithmetic cannot overflow.
        let span = block_bytes.min(uncompressed_len - i * block_bytes) as u64;
        if span > codec::MAX_EXPANSION * u64::from(e.comp_len) {
            return Err(f.corrupt_at(
                at,
                format!(
                    "block {i} claims {span} bytes from a {}-byte payload \
                     (more than {}x expansion)",
                    e.comp_len,
                    codec::MAX_EXPANSION
                ),
            ));
        }
        entries.push(e);
    }
    Ok(RzbIndex { block_bytes, uncompressed_len, file_len, entries })
}

/// The footer offset a tail records, checked to lie before the tail.
fn footer_off(tail: &[u8], file_len: usize) -> Result<usize> {
    let at = file_len - TAIL_BYTES;
    let mut t = ByteCursor::new(tail, "rzb tail").based(at);
    match t.u64()? {
        off if off <= at as u64 => Ok(off as usize),
        _ => Err(t.corrupt_at(0, "footer offset past the tail")),
    }
}

/// Parse the index out of a complete in-memory container image.
pub fn parse_index(data: &[u8]) -> Result<RzbIndex> {
    let footer_end = data.len().checked_sub(TAIL_BYTES).filter(|&e| e >= HEADER_BYTES);
    let Some(footer_end) = footer_end else { return Err(too_short(data.len())) };
    let tail = &data[footer_end..];
    let footer_off = footer_off(tail, data.len())?;
    parse_parts(&data[..HEADER_BYTES], &data[footer_off..footer_end], tail, data.len())
}

fn too_short(len: usize) -> FormatError {
    corrupt(format!("reading rzb container: {len} bytes is shorter than header + tail"), None)
}

/// Read just the index from an `.rzb` file on disk: three small reads
/// (tail → footer → header), no payload bytes touched. This is how the
/// streaming path learns the block map *before* the sequential
/// compressed stream starts.
pub fn read_index(path: &Path) -> Result<RzbIndex> {
    let io = |e: std::io::Error| FormatError::io(path, e);
    let mut f = fs::File::open(path).map_err(io)?;
    let file_len = f.metadata().map_err(io)?.len() as usize;
    if file_len < HEADER_BYTES + TAIL_BYTES {
        return Err(too_short(file_len));
    }
    let mut tail = [0u8; TAIL_BYTES];
    f.seek(SeekFrom::End(-(TAIL_BYTES as i64))).map_err(io)?;
    f.read_exact(&mut tail).map_err(io)?;
    let footer_off = footer_off(&tail, file_len)?;
    let mut footer = vec![0u8; file_len - TAIL_BYTES - footer_off];
    f.seek(SeekFrom::Start(footer_off as u64)).map_err(io)?;
    f.read_exact(&mut footer).map_err(io)?;
    let mut header = [0u8; HEADER_BYTES];
    f.seek(SeekFrom::Start(0)).map_err(io)?;
    f.read_exact(&mut header).map_err(io)?;
    parse_parts(&header, &footer, &tail, file_len)
}

/// Decode block `i` from its compressed `payload` into `dst`
/// (`dst.len()` must equal the block's uncompressed span) and verify its
/// CRC. The single checked-decode helper shared by the blocking and
/// parallel paths.
pub(crate) fn decode_block_checked(
    index: &RzbIndex,
    i: usize,
    payload: &[u8],
    dst: &mut [u8],
) -> Result<()> {
    let at = index.entries[i].comp_off;
    codec::decode_block(payload, dst)
        .map_err(|e| corrupt(format!("decoding rzb block {i}: {e}"), Some(at)))?;
    let crc = codec::crc32(dst);
    if crc != index.crc(i) {
        return Err(corrupt(
            format!(
                "decoding rzb block {i}: CRC mismatch \
                 (stored {:08x}, computed {crc:08x})",
                index.crc(i)
            ),
            Some(at),
        ));
    }
    Ok(())
}

/// Decompress a complete in-memory container (the blocking read path),
/// verifying every block CRC; decode work is recorded in `metrics`.
pub fn decompress_all(
    data: &[u8],
    index: &RzbIndex,
    metrics: Option<&EngineMetrics>,
) -> Result<Vec<u8>> {
    let mut out = vec![0u8; index.uncompressed_len()];
    for i in 0..index.block_count() {
        let t0 = std::time::Instant::now();
        let comp = index.comp_range(i);
        let payload = data.get(comp.clone()).ok_or_else(|| {
            corrupt(
                format!("decoding rzb block {i}: payload range {comp:?} past end of file"),
                Some(comp.start as u64),
            )
        })?;
        let span = index.block_span(i);
        decode_block_checked(index, i, payload, &mut out[span.clone()])?;
        if let Some(m) = metrics {
            m.rzb_block_decoded(
                comp.len() as u64,
                span.len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 57) as u8 ^ (i / 311) as u8).collect()
    }

    #[test]
    fn container_round_trips_across_block_sizes() {
        for (len, bb) in [(0, 64), (1, 64), (63, 64), (64, 64), (65, 64), (10_000, 256)] {
            let src = sample(len);
            let packed = compress(&src, bb);
            assert!(sniff(&packed));
            let index = parse_index(&packed).unwrap();
            assert_eq!(index.uncompressed_len(), len);
            assert_eq!(index.block_count(), len.div_ceil(bb));
            let out = decompress_all(&packed, &index, None).unwrap();
            assert_eq!(out, src);
        }
    }

    #[test]
    fn block_lookup_is_consistent_with_spans() {
        let src = sample(5000);
        let index = parse_index(&compress(&src, 512)).unwrap();
        for off in [0, 1, 511, 512, 513, 4095, 4999] {
            let i = index.block_containing(off).unwrap();
            let span = index.block_span(i);
            assert!(span.contains(&off), "offset {off} not in {span:?} (block {i})");
        }
        assert_eq!(index.block_containing(5000), None);
        assert_eq!(index.blocks_for(0..0), 0..0);
        assert_eq!(index.blocks_for(0..512), 0..1);
        assert_eq!(index.blocks_for(511..513), 0..2);
        assert_eq!(index.blocks_for(4999..9999), 9..10);
    }

    #[test]
    fn read_index_matches_parse_index() {
        let dir = std::env::temp_dir().join(format!("rzb-idx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = sample(3000);
        let packed = compress(&src, 256);
        let path = dir.join("t.bin.rzb");
        std::fs::write(&path, &packed).unwrap();
        assert!(is_rzb_path(&path));
        let a = parse_index(&packed).unwrap();
        let b = read_index(&path).unwrap();
        assert_eq!(a.block_count(), b.block_count());
        assert_eq!(a.uncompressed_len(), b.uncompressed_len());
        assert_eq!(a.file_len(), b.file_len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_payload_and_footer_surface_format_errors() {
        let src = sample(4096);
        let good = compress(&src, 1024);
        let index = parse_index(&good).unwrap();

        // Flip a payload byte: block CRC catches it.
        let mut bad = good.clone();
        let at = index.comp_range(1).start + 1;
        bad[at] ^= 0xFF;
        let err = decompress_all(&bad, &index, None).unwrap_err();
        assert!(err.to_string().contains("block 1"), "{err}");

        // Flip a footer byte: footer CRC catches it at parse time.
        let mut bad = good.clone();
        let flen = good.len();
        bad[flen - TAIL_BYTES - 3] ^= 0xFF;
        assert!(parse_index(&bad).is_err());

        // Truncations never panic.
        for cut in [0, 7, 23, 40, good.len() - 1] {
            assert!(parse_index(&good[..cut]).is_err());
        }
    }
}
