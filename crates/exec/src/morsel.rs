//! The partitioner: split a raw file into record-aligned morsels.
//!
//! A morsel is a contiguous run of whole records described both as a byte
//! range (what text scans walk) and a global row range (what row-addressed
//! scans walk, and what makes every morsel's outputs — provenance ids,
//! positional-map fragments, shred row ranges — compose globally).
//!
//! ## The per-format segmentation contract
//!
//! Morsel boundaries must respect the format's native granularity, so each
//! format family gets its own partitioner:
//!
//! - **Record-aligned** (CSV): boundaries snap to record starts discovered
//!   by a dialect-matched probe. [`partition_csv`] splits on raw newlines
//!   (the JIT dialect, which never embeds newlines in fields) and
//!   [`partition_csv_quoted`] interprets quotes and escapes (the
//!   general-purpose in-situ dialect, where a quoted field may contain a
//!   newline). Planners pick the probe matching the scan they will build;
//!   [`partition_csv_with_map`] replays the probe's grid from a positional
//!   map without re-reading the file. On cold streamed reads the
//!   `_streaming` probe variants run **incrementally** over the in-flight
//!   [`raw_formats::file_buffer::ColdRead`], following the read (or the
//!   block decode) instead of starting after it — the same probe code
//!   over the same bytes, so the grid is identical by construction.
//! - **Row-arithmetic** (fbin, rootsim events): positions are deterministic,
//!   so [`partition_rows`] splits by pure arithmetic — no I/O.
//! - **Page-aligned** (ibin): boundaries snap to multiples of the file's
//!   `rows_per_page` via [`partition_pages`], so every morsel owns whole
//!   pages and per-morsel zone-index pruning over a partition of the pages
//!   reproduces the whole-file candidate set (and pruning counters) exactly.
//! - **Item-range** (rootsim collections): morsel row ranges are **event**
//!   ranges — items must stay with their owning event — but sizing walks
//!   the collection's cumulative offsets table via [`partition_items`] so
//!   each morsel covers a balanced share of the exploded *item* rows, not
//!   of the (possibly empty) events. Scans resolve each event range to its
//!   global item slice from the same offsets, so item rows concatenate
//!   deterministically in morsel order.
//!
//! The morsel grid is a function of the **file only**, never of the worker
//! count, so merged results are identical for any number of threads.

use raw_formats::csv::kernels;
use raw_formats::csv::tokenizer::{general_dialect_step, DialectByte, GeneralDialectState};
use raw_formats::csv::{ESCAPE, NEWLINE, QUOTE};
use raw_formats::error::FormatError;
use raw_formats::file_buffer::ColdRead;
use raw_posmap::{Lookup, PositionalMap};

/// Bytes the quote-aware probe bulk-scans per fast-path decision. Within a
/// chunk free of quote/escape bytes the probe degenerates to the same
/// accumulate-over-compare newline count as the raw probe, so quote-free
/// stretches (the common case) still run at memory speed.
const PROBE_CHUNK: usize = 4096;

/// One record-aligned slice of a raw file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Position in the morsel grid (also the deterministic merge order).
    pub index: usize,
    /// Global row id of the first record.
    pub first_row: u64,
    /// Exclusive global row bound.
    pub end_row: u64,
    /// Byte offset of the first record (text formats; 0 for row-addressed
    /// formats, which partition purely by row arithmetic).
    pub byte_start: usize,
    /// Exclusive byte bound on a record boundary (text formats; 0 for
    /// row-addressed formats).
    pub byte_end: usize,
}

impl Morsel {
    /// Rows covered.
    pub fn rows(&self) -> u64 {
        self.end_row - self.first_row
    }
}

/// A partitioned CSV file: the morsel grid plus facts the probe established
/// on the way.
#[derive(Debug, Clone)]
pub struct CsvPartition {
    /// Record-aligned morsels covering the whole buffer, in file order.
    pub morsels: Vec<Morsel>,
    /// Total records in the buffer.
    pub total_rows: u64,
    /// Whether the buffer contains any quote (`"`) byte. [`partition_csv`]
    /// splits on raw newlines (the workspace's JIT CSV dialect) and only
    /// reports quotes; callers planning for the quote-aware general-purpose
    /// scan use [`partition_csv_quoted`], whose grid interprets them.
    pub saw_quote: bool,
}

/// Plan-time morsel-grid validator — the `checked` build's tiling
/// sanitizer, called by every partitioner before its grid escapes. Asserts
/// the grid tiles its row space `[0, total_rows)` exactly once: indices
/// dense from 0, row ranges contiguous (each morsel starts where the
/// previous ended), first at 0, last ending at `total_rows` — so no row is
/// scanned twice and none is dropped. When `total_bytes` is given
/// (byte-mapped CSV grids) the byte ranges must tile `[0, total_bytes)`
/// the same way. An empty grid is never validated here: partitioners
/// legitimately return no morsels for empty inputs or `target == 0`.
///
/// Always compiled (so the seeded-violation tests run in every
/// configuration); the partitioners only *call* it under
/// `feature = "checked"`.
pub fn validate_grid(morsels: &[Morsel], total_rows: u64, total_bytes: Option<usize>) {
    if morsels.is_empty() {
        return;
    }
    let mut row = 0u64;
    let mut byte = 0usize;
    for (i, m) in morsels.iter().enumerate() {
        assert_eq!(m.index, i, "checked: morsel index {} at grid position {i}", m.index);
        assert_eq!(
            m.first_row, row,
            "checked: morsel {i} starts at row {} but the grid has covered rows up to {row} — the grid must tile the row space exactly once",
            m.first_row
        );
        assert!(
            m.end_row >= m.first_row,
            "checked: morsel {i} has inverted row range {}..{}",
            m.first_row,
            m.end_row
        );
        row = m.end_row;
        if total_bytes.is_some() {
            assert_eq!(
                m.byte_start, byte,
                "checked: morsel {i} starts at byte {} but the grid has covered bytes up to {byte}",
                m.byte_start
            );
            assert!(
                m.byte_end >= m.byte_start,
                "checked: morsel {i} has inverted byte range {}..{}",
                m.byte_start,
                m.byte_end
            );
            byte = m.byte_end;
        }
    }
    assert_eq!(
        row, total_rows,
        "checked: grid covers rows [0, {row}) but the input has {total_rows} rows"
    );
    if let Some(total) = total_bytes {
        assert_eq!(
            byte, total,
            "checked: grid covers bytes [0, {byte}) but the input has {total} bytes"
        );
    }
}

/// Split `total_rows` row-addressed records (fbin, rootsim events) into at
/// most `target` balanced morsels — pure arithmetic, no I/O.
pub fn partition_rows(total_rows: u64, target: usize) -> Vec<Morsel> {
    if total_rows == 0 || target == 0 {
        return Vec::new();
    }
    let target = (target as u64).min(total_rows);
    let base = total_rows / target;
    let extra = total_rows % target;
    let mut morsels = Vec::with_capacity(target as usize);
    let mut row = 0u64;
    for index in 0..target {
        let len = base + u64::from(index < extra);
        morsels.push(Morsel {
            index: index as usize,
            first_row: row,
            end_row: row + len,
            byte_start: 0,
            byte_end: 0,
        });
        row += len;
    }
    #[cfg(feature = "checked")]
    validate_grid(&morsels, total_rows, None);
    morsels
}

/// Split `total_rows` rows stored in fixed-size pages of `rows_per_page`
/// rows into at most `target` **page-aligned** morsels: every boundary
/// except the final row count lands on a page boundary, so each morsel owns
/// whole pages (the last page may be short). Page counts per morsel are
/// balanced (they differ by at most one), which keeps morsel sizes balanced
/// too.
pub fn partition_pages(total_rows: u64, rows_per_page: u32, target: usize) -> Vec<Morsel> {
    if total_rows == 0 || rows_per_page == 0 || target == 0 {
        return Vec::new();
    }
    let rpp = u64::from(rows_per_page);
    let pages = total_rows.div_ceil(rpp);
    let morsels: Vec<Morsel> = partition_rows(pages, target)
        .into_iter()
        .map(|m| Morsel {
            index: m.index,
            first_row: m.first_row * rpp,
            end_row: (m.end_row * rpp).min(total_rows),
            byte_start: 0,
            byte_end: 0,
        })
        .collect();
    #[cfg(feature = "checked")]
    validate_grid(&morsels, total_rows, None);
    morsels
}

/// Split the events of a variable-length collection into at most `target`
/// morsels of roughly equal **item** counts. `offsets` is the collection's
/// cumulative offsets table (`offsets[e]` = items before event `e`, length
/// `events + 1`, `offsets[0] == 0`) — the same structure the scan resolves
/// item slices from, so sizing charges what the scan will actually read.
///
/// Morsel row ranges are **event** ranges: an event's items never split
/// across morsels, so parent-scalar replication and item provenance stay
/// whole per morsel, and consecutive morsels cover consecutive global item
/// slices `offsets[first_row]..offsets[end_row]`.
pub fn partition_items(offsets: &[u64], target: usize) -> Vec<Morsel> {
    let Some((&total_items, _)) = offsets.split_last() else { return Vec::new() };
    let events = (offsets.len() - 1) as u64;
    if events == 0 || target == 0 {
        return Vec::new();
    }
    if total_items == 0 {
        // Nothing to balance by; fall back to balanced event counts.
        return partition_rows(events, target);
    }
    let stride = total_items.div_ceil(target as u64).max(1);

    let mut morsels = Vec::new();
    let mut first_event = 0u64;
    loop {
        // Cut at the first event boundary at or past this morsel's item
        // quota. `offsets[first_event] < quota` always (stride >= 1), so the
        // cut advances by at least one event.
        let quota = offsets[first_event as usize] + stride;
        let next = offsets.partition_point(|&o| o < quota) as u64;
        if next >= events || morsels.len() + 1 >= target {
            break;
        }
        morsels.push(Morsel {
            index: morsels.len(),
            first_row: first_event,
            end_row: next,
            byte_start: 0,
            byte_end: 0,
        });
        first_event = next;
    }
    // Everything after the last cut — including any trailing empty events —
    // is the final morsel.
    morsels.push(Morsel {
        index: morsels.len(),
        first_row: first_event,
        end_row: events,
        byte_start: 0,
        byte_end: 0,
    });
    #[cfg(feature = "checked")]
    validate_grid(&morsels, events, None);
    morsels
}

/// Sequentially-consumed probe input. `ensure(upto)` blocks until bytes
/// `..upto` are readable — a no-op for fully-resident slices, a
/// [`ColdRead::ensure`] for cold streamed reads. The
/// probes guarantee by construction that they never read a byte position
/// they have not ensured, which is what makes the streaming and resident
/// variants produce identical grids: they are the *same* code.
trait ProbeBytes {
    /// Block until bytes `..upto` (clamped to the file) are readable.
    fn ensure(&mut self, upto: usize) -> Result<(), FormatError>;
    /// The underlying bytes. Positions `>= ensured` must not be read.
    fn bytes(&self) -> &[u8];
}

/// Fully-resident input: every byte readable, `ensure` free.
struct Resident<'a>(&'a [u8]);

impl ProbeBytes for Resident<'_> {
    #[inline]
    fn ensure(&mut self, _upto: usize) -> Result<(), FormatError> {
        Ok(())
    }
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.0
    }
}

/// Cold streamed input: `ensure` waits on (or decodes) the read, with a
/// watermark so re-ensuring an available prefix costs one comparison.
struct Streamed<'a> {
    cold: &'a ColdRead,
    ensured: usize,
}

impl ProbeBytes for Streamed<'_> {
    #[inline]
    fn ensure(&mut self, upto: usize) -> Result<(), FormatError> {
        let upto = upto.min(self.cold.len());
        if upto > self.ensured {
            self.cold.ensure(self.ensured..upto)?;
            self.ensured = upto;
        }
        Ok(())
    }
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.cold.bytes()
    }
}

/// Split a CSV buffer into at most `target` morsels by probing newlines.
///
/// The probe is one sequential pass (far cheaper than parsing: no
/// tokenizing, no conversion) that counts records and snaps morsel
/// boundaries to record starts once a morsel has reached its byte quota.
/// Newlines inside a morsel's body are bulk-counted over whole slices (a
/// shape LLVM vectorizes), and only the few bytes around each boundary are
/// walked individually, so the probe runs at memory speed rather than
/// tokenizer speed — it must not become the serial Amdahl term of the
/// parallel scan it enables. A final record without a trailing newline is
/// still a record, matching the scan operators.
pub fn partition_csv(buf: &[u8], target: usize) -> CsvPartition {
    partition_csv_impl(&mut Resident(buf), buf.len(), target).expect("resident probe cannot fail")
}

/// [`partition_csv`] over a cold, still-in-flight read: the probe follows
/// the reader thread (or decodes a compressed file's blocks as it reaches
/// them), so probing overlaps the read instead of starting after it. The
/// grid is byte-identical to [`partition_csv`] on the finished file — both
/// run the same probe over the same bytes. Errors surface the read's
/// failure.
pub fn partition_csv_streaming(
    cold: &ColdRead,
    target: usize,
) -> Result<CsvPartition, FormatError> {
    partition_csv_impl(&mut Streamed { cold, ensured: 0 }, cold.len(), target)
}

fn partition_csv_impl<B: ProbeBytes>(
    input: &mut B,
    len: usize,
    target: usize,
) -> Result<CsvPartition, FormatError> {
    if len == 0 || target == 0 {
        return Ok(CsvPartition { morsels: Vec::new(), total_rows: 0, saw_quote: false });
    }
    let stride = len.div_ceil(target).max(1);

    let mut morsels = Vec::with_capacity(target);
    let mut cur_byte = 0usize;
    let mut newlines = 0u64; // records completed (newline seen) before `pos`
    let mut saw_quote = false;
    let mut pos = 0usize;
    while pos < len {
        // Bulk-scan up to this morsel's byte quota...
        let quota = (cur_byte + stride).min(len);
        if pos < quota {
            input.ensure(quota)?;
            let (n, q) = scan_chunk(&input.bytes()[pos..quota]);
            newlines += n;
            saw_quote |= q;
            pos = quota;
        }
        if pos >= len {
            break;
        }
        // ...then walk to the next record boundary to snap the cut there,
        // in bounded windows so a streamed probe never waits past the
        // boundary it needs.
        let mut cut = None;
        while pos < len {
            let wend = (pos + PROBE_CHUNK).min(len);
            input.ensure(wend)?;
            let window = &input.bytes()[pos..wend];
            match kernels::memchr(NEWLINE, window) {
                Some(nl) => {
                    saw_quote |= kernels::memchr(QUOTE, &window[..nl]).is_some();
                    newlines += 1;
                    cut = Some(pos + nl + 1);
                    pos += nl + 1;
                    break;
                }
                None => {
                    saw_quote |= kernels::memchr(QUOTE, window).is_some();
                    pos = wend;
                }
            }
        }
        if let Some(next) = cut {
            if next < len {
                morsels.push(Morsel {
                    index: morsels.len(),
                    first_row: morsels.last().map_or(0, |m: &Morsel| m.end_row),
                    end_row: newlines,
                    byte_start: cur_byte,
                    byte_end: next,
                });
                cur_byte = next;
            }
        }
    }
    // Everything after the last cut is the final morsel; an unterminated
    // final line is still a record.
    input.ensure(len)?;
    let total_rows = newlines + u64::from(input.bytes()[len - 1] != NEWLINE);
    let first_row = morsels.last().map_or(0, |m| m.end_row);
    morsels.push(Morsel {
        index: morsels.len(),
        first_row,
        end_row: total_rows,
        byte_start: cur_byte,
        byte_end: len,
    });
    #[cfg(feature = "checked")]
    validate_grid(&morsels, total_rows, Some(len));
    Ok(CsvPartition { morsels, total_rows, saw_quote })
}

/// Count newline bytes and detect quote bytes in `chunk` in one pass — a
/// thin wrapper over the shared SWAR classifier
/// ([`raw_formats::csv::kernels::count2`]), the same kernel the scans
/// tokenize with, so probe and scan can never disagree on what counts as a
/// newline or quote byte.
#[inline]
fn scan_chunk(chunk: &[u8]) -> (u64, bool) {
    let (newlines, quotes) = kernels::count2(NEWLINE, QUOTE, chunk);
    (newlines, quotes > 0)
}

/// Advance the shared general-dialect state machine
/// ([`raw_formats::csv::tokenizer::general_dialect_step`] — the same byte
/// classifier the in-situ scan tokenizes with, so probe and scan agree on
/// record boundaries by construction); returns whether the byte ended a
/// record.
#[inline]
fn dialect_step(state: &mut GeneralDialectState, b: u8) -> bool {
    general_dialect_step(state, b) == DialectByte::RecordEnd
}

/// Bulk-count newline/quote/escape bytes via the shared SWAR classifier
/// ([`raw_formats::csv::kernels::count3`]) — the one newline/quote/escape
/// counting kernel in the tree.
#[inline]
fn count_dialect_bytes(chunk: &[u8]) -> (u64, u64, u64) {
    kernels::count3(NEWLINE, QUOTE, ESCAPE, chunk)
}

/// Split a CSV buffer into at most `target` morsels under the
/// **general-purpose (in-situ) dialect**: a newline inside a quoted field —
/// or escaped by `\` — is field content, not a record boundary.
///
/// Same boundary-snapping rule as [`partition_csv`] (cut at the end of the
/// record containing each byte quota), so a warm, positional-map-hinted
/// partition of the same file replays this probe's grid exactly. Chunks
/// free of quote/escape bytes take the bulk counting path, so the probe
/// stays at memory speed on quote-free stretches and only drops to the
/// byte-at-a-time state machine where the dialect demands it.
pub fn partition_csv_quoted(buf: &[u8], target: usize) -> CsvPartition {
    partition_csv_quoted_impl(&mut Resident(buf), buf.len(), target)
        .expect("resident probe cannot fail")
}

/// [`partition_csv_quoted`] over a cold, still-in-flight read — the
/// general-dialect twin of [`partition_csv_streaming`], same guarantees.
pub fn partition_csv_quoted_streaming(
    cold: &ColdRead,
    target: usize,
) -> Result<CsvPartition, FormatError> {
    partition_csv_quoted_impl(&mut Streamed { cold, ensured: 0 }, cold.len(), target)
}

fn partition_csv_quoted_impl<B: ProbeBytes>(
    input: &mut B,
    len: usize,
    target: usize,
) -> Result<CsvPartition, FormatError> {
    if len == 0 || target == 0 {
        return Ok(CsvPartition { morsels: Vec::new(), total_rows: 0, saw_quote: false });
    }
    let stride = len.div_ceil(target).max(1);

    let mut morsels = Vec::with_capacity(target);
    let mut cur_byte = 0usize;
    let mut records = 0u64; // records completed (boundary seen) before `pos`
    let mut saw_quote = false;
    let mut state = GeneralDialectState::default();
    // Whether the most recently processed byte ended a record (decides if
    // the file's tail is an unterminated final record).
    let mut ended_on_boundary = false;
    let mut pos = 0usize;
    while pos < len {
        // Bulk-scan up to this morsel's byte quota...
        let quota = (cur_byte + stride).min(len);
        while pos < quota {
            let chunk_end = quota.min(pos + PROBE_CHUNK);
            input.ensure(chunk_end)?;
            let chunk = &input.bytes()[pos..chunk_end];
            let (newlines, quotes, escapes) = count_dialect_bytes(chunk);
            saw_quote |= quotes > 0;
            if quotes == 0 && escapes == 0 && !state.escaped {
                // Dialect-inert chunk: every newline is a boundary iff we
                // are at top level; none is if we are inside quotes.
                if !state.in_quotes {
                    records += newlines;
                    ended_on_boundary = chunk[chunk.len() - 1] == NEWLINE;
                } else {
                    // Everything in the chunk is quoted field content.
                    ended_on_boundary = false;
                }
            } else {
                for &b in chunk {
                    ended_on_boundary = dialect_step(&mut state, b);
                    records += u64::from(ended_on_boundary);
                }
            }
            pos = chunk_end;
        }
        if pos >= len {
            break;
        }
        // ...then walk to the next record boundary to snap the cut there
        // (ensuring ahead one probe window at a time; the watermark makes
        // repeated ensures free).
        let mut cut = None;
        while pos < len {
            input.ensure((pos + PROBE_CHUNK).min(len))?;
            let b = input.bytes()[pos];
            saw_quote |= b == QUOTE;
            ended_on_boundary = dialect_step(&mut state, b);
            pos += 1;
            if ended_on_boundary {
                records += 1;
                cut = Some(pos);
                break;
            }
        }
        match cut {
            Some(next) if next < len => {
                morsels.push(Morsel {
                    index: morsels.len(),
                    first_row: morsels.last().map_or(0, |m: &Morsel| m.end_row),
                    end_row: records,
                    byte_start: cur_byte,
                    byte_end: next,
                });
                cur_byte = next;
            }
            _ => break, // boundary at EOF (or none before it): tail below
        }
    }
    // Everything after the last cut is the final morsel; an unterminated
    // final record (EOF without a closing boundary) is still a record.
    let total_rows = records + u64::from(!ended_on_boundary);
    let first_row = morsels.last().map_or(0, |m| m.end_row);
    morsels.push(Morsel {
        index: morsels.len(),
        first_row,
        end_row: total_rows,
        byte_start: cur_byte,
        byte_end: len,
    });
    #[cfg(feature = "checked")]
    validate_grid(&morsels, total_rows, Some(len));
    Ok(CsvPartition { morsels, total_rows, saw_quote })
}

/// Split a CSV buffer using an existing positional map as split hints: when
/// the map tracks column 0, its positions *are* the record starts, so the
/// partitioner needs no probe pass at all. Returns `None` when the map
/// cannot serve (column 0 untracked, or no rows).
///
/// Boundaries replay [`partition_csv`]'s byte-quota rule against the
/// recorded record starts (binary search instead of byte probing), so a
/// warm run partitions **exactly** like the cold probe did — the morsel
/// grid, and therefore the float-summation tree of merged partial
/// aggregates, is identical cold and warm.
pub fn partition_csv_with_map(
    map: &PositionalMap,
    buf_len: usize,
    target: usize,
) -> Option<Vec<Morsel>> {
    let Lookup::Exact { positions, .. } = map.lookup(0) else {
        return None;
    };
    let total_rows = map.rows();
    if total_rows == 0 || target == 0 || buf_len == 0 {
        return None;
    }
    let stride = buf_len.div_ceil(target).max(1);

    let mut morsels = Vec::with_capacity(target);
    let mut cur_byte = 0usize;
    let mut cur_row = 0usize;
    loop {
        let quota = cur_byte + stride;
        if quota >= buf_len {
            break;
        }
        // The probe cuts at the first record start strictly past the quota.
        let i = positions.partition_point(|&p| (p as usize) <= quota);
        if i >= positions.len() {
            break;
        }
        let next = positions[i] as usize;
        morsels.push(Morsel {
            index: morsels.len(),
            first_row: cur_row as u64,
            end_row: i as u64,
            byte_start: cur_byte,
            byte_end: next,
        });
        cur_byte = next;
        cur_row = i;
    }
    morsels.push(Morsel {
        index: morsels.len(),
        first_row: cur_row as u64,
        end_row: total_rows,
        byte_start: cur_byte,
        byte_end: buf_len,
    });
    #[cfg(feature = "checked")]
    validate_grid(&morsels, total_rows, Some(buf_len));
    Some(morsels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raw_formats::file_buffer::ChunkedFileBuffer;
    use raw_posmap::PosMapBuilder;
    use std::sync::Arc;

    fn csv(rows: usize, field: &str) -> Vec<u8> {
        (0..rows).map(|i| format!("{i},{field}\n")).collect::<String>().into_bytes()
    }

    fn assert_covers(p: &CsvPartition, buf: &[u8]) {
        let mut byte = 0usize;
        let mut row = 0u64;
        for (i, m) in p.morsels.iter().enumerate() {
            assert_eq!(m.index, i);
            assert_eq!(m.byte_start, byte, "byte-contiguous");
            assert_eq!(m.first_row, row, "row-contiguous");
            assert!(m.end_row > m.first_row, "no empty morsels");
            assert!(
                m.byte_start == 0 || buf[m.byte_start - 1] == b'\n',
                "morsel starts on a record boundary"
            );
            byte = m.byte_end;
            row = m.end_row;
        }
        assert_eq!(byte, buf.len(), "morsels cover the buffer");
        assert_eq!(row, p.total_rows, "morsels cover every row");
    }

    #[test]
    fn csv_partition_covers_and_aligns() {
        let buf = csv(100, "abc,def");
        let p = partition_csv(&buf, 7);
        assert_eq!(p.total_rows, 100);
        assert!(p.morsels.len() >= 2 && p.morsels.len() <= 7);
        assert_covers(&p, &buf);
    }

    #[test]
    fn csv_partition_counts_unterminated_final_row() {
        let mut buf = csv(10, "x");
        buf.pop(); // drop the trailing newline
        let p = partition_csv(&buf, 3);
        assert_eq!(p.total_rows, 10, "final unterminated line is a record");
        assert_covers(&p, &buf);
    }

    #[test]
    fn csv_partition_short_file_yields_one_morsel() {
        let buf = csv(2, "y");
        let p = partition_csv(&buf, 8);
        assert!(p.morsels.len() <= 2);
        assert_covers(&p, &buf);
        let empty = partition_csv(b"", 4);
        assert!(empty.morsels.is_empty());
        assert_eq!(empty.total_rows, 0);
    }

    #[test]
    fn quoted_probe_equals_raw_probe_on_quote_free_input() {
        let buf = csv(100, "abc,def");
        for target in 1..9 {
            let raw = partition_csv(&buf, target);
            let quoted = partition_csv_quoted(&buf, target);
            assert_eq!(quoted.morsels, raw.morsels, "target {target}");
            assert_eq!(quoted.total_rows, raw.total_rows);
            assert!(!quoted.saw_quote);
        }
    }

    #[test]
    fn quoted_probe_keeps_quoted_newlines_inside_records() {
        // Two records under the general dialect; three raw newlines.
        let buf = b"1,\"a\nb\"\n2,c\n";
        let q = partition_csv_quoted(buf, 4);
        assert_eq!(q.total_rows, 2, "quoted newline is field content");
        assert!(q.saw_quote);
        assert_covers(&q, buf);
        for m in &q.morsels {
            // Neither cut may land inside the quoted field (bytes 2..7).
            assert!(m.byte_end <= 2 || m.byte_end >= 8, "cut at {}", m.byte_end);
        }
        // The raw probe still counts raw newlines (the JIT dialect).
        assert_eq!(partition_csv(buf, 4).total_rows, 3);
    }

    #[test]
    fn quoted_probe_handles_escapes_and_unterminated_tails() {
        // `\`-escaped newline outside quotes is content; unterminated
        // final record still counts.
        let buf = b"a,b\\\nc\nd,e";
        let q = partition_csv_quoted(buf, 4);
        assert_eq!(q.total_rows, 2);
        assert_covers(&q, buf);

        // Unbalanced quote swallowing the rest of the file: one record.
        let buf = b"a,\"b\nc\nd";
        let q = partition_csv_quoted(buf, 4);
        assert_eq!(q.total_rows, 1);
        assert_eq!(q.morsels.len(), 1);

        let empty = partition_csv_quoted(b"", 4);
        assert!(empty.morsels.is_empty());
        assert_eq!(empty.total_rows, 0);
    }

    #[test]
    fn quoted_probe_bulk_path_agrees_with_state_machine_across_chunks() {
        // A quoted section spanning multiple probe chunks: the bulk path
        // must stay suppressed until the closing quote.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"head,x\n");
        buf.extend_from_slice(b"k,\"");
        buf.resize(buf.len() + 3 * PROBE_CHUNK, b'\n'); // quoted newlines: all content
        buf.extend_from_slice(b"\"\n");
        for i in 0..50 {
            buf.extend_from_slice(format!("{i},tail\n").as_bytes());
        }
        let q = partition_csv_quoted(&buf, 6);
        assert_eq!(q.total_rows, 52);
        assert_covers(&q, &buf);
    }

    #[test]
    fn row_partition_balances() {
        let ms = partition_rows(10, 4);
        assert_eq!(ms.len(), 4);
        let sizes: Vec<u64> = ms.iter().map(Morsel::rows).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        assert_eq!(ms.last().unwrap().end_row, 10);

        assert_eq!(partition_rows(3, 8).len(), 3, "never more morsels than rows");
        assert!(partition_rows(0, 4).is_empty());
    }

    #[test]
    fn page_partition_snaps_to_page_boundaries() {
        // 100 rows in pages of 16: 7 pages (last one short).
        let ms = partition_pages(100, 16, 3);
        assert_eq!(ms.len(), 3);
        let mut row = 0u64;
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(m.index, i);
            assert_eq!(m.first_row, row, "row-contiguous");
            assert_eq!(m.first_row % 16, 0, "starts on a page boundary");
            row = m.end_row;
        }
        assert_eq!(row, 100, "covers every row");
        for m in &ms[..ms.len() - 1] {
            assert_eq!(m.end_row % 16, 0, "interior cut on a page boundary");
        }
        // Never more morsels than pages.
        assert_eq!(partition_pages(100, 16, 50).len(), 7);
        assert!(partition_pages(0, 16, 4).is_empty());
        assert!(partition_pages(100, 0, 4).is_empty());
        assert!(partition_pages(100, 16, 0).is_empty());
    }

    #[test]
    fn item_partition_balances_items_not_events() {
        // 6 events with item counts [0, 10, 0, 0, 10, 0]: cuts must land
        // where the items are, keeping empty events attached.
        let counts = [0u64, 10, 0, 0, 10, 0];
        let mut offsets = vec![0u64];
        for c in counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let ms = partition_items(&offsets, 2);
        assert_eq!(ms.len(), 2);
        let items = |m: &Morsel| offsets[m.end_row as usize] - offsets[m.first_row as usize];
        assert_eq!(items(&ms[0]), 10);
        assert_eq!(items(&ms[1]), 10);
        let mut event = 0u64;
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(m.index, i);
            assert_eq!(m.first_row, event, "event-contiguous");
            assert!(m.end_row > m.first_row, "at least one event per morsel");
            event = m.end_row;
        }
        assert_eq!(event, 6, "covers every event, trailing empties included");

        // All-empty collections fall back to balanced event counts.
        let empty_items = partition_items(&[0, 0, 0, 0, 0], 2);
        assert_eq!(empty_items.len(), 2);
        assert_eq!(empty_items.last().unwrap().end_row, 4);

        assert!(partition_items(&[0], 4).is_empty(), "zero events");
        assert!(partition_items(&[], 4).is_empty());
        assert!(partition_items(&[0, 5], 0).is_empty());
    }

    /// In-memory [`raw_formats::file_buffer::ChunkSource`] serving `data`,
    /// so a live reader thread can race the streamed probes.
    struct VecSource(Vec<u8>);

    impl raw_formats::file_buffer::ChunkSource for VecSource {
        fn read_chunk(&mut self, offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
            let start = offset as usize;
            dst.copy_from_slice(&self.0[start..start + dst.len()]);
            Ok(())
        }
    }

    #[test]
    fn streaming_probes_match_resident_probes() {
        // Content variants: plain, quoted newlines, unterminated tail. The
        // streamed probe races a live reader thread filling tiny chunks and
        // must land on the identical grid.
        let mut quoted = csv(300, "aa,bb");
        quoted.extend_from_slice(b"1,\"x\ny\"\n2,z");
        for content in [csv(500, "abc,def"), quoted] {
            for chunk in [7usize, 64, 4096] {
                for target in [1usize, 3, 8] {
                    let chunked = ColdRead::Plain(ChunkedFileBuffer::spawn(
                        "/virtual/probe",
                        VecSource(content.clone()),
                        content.len(),
                        chunk,
                        None,
                        None,
                    ));
                    let raw = partition_csv(&content, target);
                    let raw_streamed = partition_csv_streaming(&chunked, target).unwrap();
                    assert_eq!(raw_streamed.morsels, raw.morsels, "raw chunk={chunk}");
                    assert_eq!(raw_streamed.total_rows, raw.total_rows);
                    assert_eq!(raw_streamed.saw_quote, raw.saw_quote);

                    let q = partition_csv_quoted(&content, target);
                    let q_streamed = partition_csv_quoted_streaming(&chunked, target).unwrap();
                    assert_eq!(q_streamed.morsels, q.morsels, "quoted chunk={chunk}");
                    assert_eq!(q_streamed.total_rows, q.total_rows);
                    assert_eq!(q_streamed.saw_quote, q.saw_quote);
                }
            }
        }
    }

    #[test]
    fn streaming_probe_surfaces_reader_failure() {
        let chunked = Arc::new(ChunkedFileBuffer::new_manual("/virtual/probefail", 1 << 20, 4096));
        chunked.complete_chunk(0);
        chunked.fail(std::io::Error::other("disk gone"));
        let buf = ColdRead::Plain(chunked);
        let err = partition_csv_streaming(&buf, 8).unwrap_err();
        assert!(err.to_string().contains("disk gone"), "{err}");
        let err = partition_csv_quoted_streaming(&buf, 8).unwrap_err();
        assert!(err.to_string().contains("disk gone"), "{err}");
    }

    #[test]
    fn map_hints_reproduce_probe_grid_exactly() {
        let buf = csv(50, "hello,world");
        // Build the map a full scan would: col 0 tracked, one entry per row.
        let mut b = PosMapBuilder::new(vec![0]);
        let mut pos = 0u64;
        for i in 0..50 {
            let line_len = format!("{i},hello,world\n").len() as u64;
            b.record(0, pos, i.to_string().len() as u32);
            pos += line_len;
        }
        let map = b.finish().unwrap();
        for target in 1..9 {
            let probe = partition_csv(&buf, target);
            let hinted = partition_csv_with_map(&map, buf.len(), target).unwrap();
            // Cold (probe) and warm (map-hinted) runs must use the *same*
            // grid, so merged float aggregates are bitwise cold/warm stable.
            assert_eq!(hinted, probe.morsels, "target {target}");
        }

        // A map without column 0 cannot hint.
        let mut odd = PosMapBuilder::new(vec![2]);
        odd.record(0, 3, 1);
        let odd = odd.finish().unwrap();
        assert!(partition_csv_with_map(&odd, buf.len(), 4).is_none());
    }
}
