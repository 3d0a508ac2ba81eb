//! The `.rzb` block codec: a dependency-free LZ77-class byte compressor.
//!
//! Each block is compressed independently so blocks decode in parallel
//! and in any order. The wire format is a sequence of LZ4-style tokens:
//!
//! ```text
//! payload   := tag body
//! tag       := 0x00 (raw literal block) | 0x01 (LZ sequences)
//! raw body  := the uncompressed bytes verbatim
//! lz body   := sequence* trailer?
//! sequence  := token [lit-ext] literal* distance(2, LE) [match-ext]
//! trailer   := token [lit-ext] literal*          (ends exactly at input end)
//! token     := (literal_len.min(15) << 4) | (match_len - 4).min(15)
//! *-ext     := 0xFF* final(<0xFF)                (each byte adds 0..=255)
//! ```
//!
//! The compressor is a greedy hash-chain matcher (4-byte hash heads plus
//! a previous-position chain, bounded walk depth). When the LZ encoding
//! of a block would be no smaller than the input, the block is re-emitted
//! as a raw literal block — incompressible input never expands by more
//! than the one tag byte, which the container accounts for.
//!
//! Decoding writes into an exact-size output slice and is fully
//! panic-free: every malformed input — truncation, a distance reaching
//! before the block start, output over- or underrun — surfaces as a
//! [`CodecError`], which the container layer maps to `FormatError`.
//!
//! ## The decode fast path
//!
//! [`decode_block`] and [`crc32`] run on the cold compressed path ahead
//! of every scan, so they move bytes in wide words rather than one at a
//! time, in safe Rust:
//!
//! - **Slack rule.** A literal run of at most 16 bytes is copied with
//!   one fixed 16-byte copy, and a match whose distance is at least 8 is
//!   copied 8 or 16 bytes per step — but only while that many bytes of
//!   slack remain in both the payload and the output. The bytes a wide
//!   copy writes past the end of its run are scratch: they lie beyond
//!   the decode cursor, and the next sequence overwrites them before
//!   anything reads them. A match step reads `dst[out - dist + k..]
//!   [..step]` with `step <= dist`, so every byte it loads is already
//!   final. Near the end of a block, and for overlapping matches with
//!   `dist < 8`, the exact copies of the byte loop run.
//! - **Same checks, same errors.** Token, length-extension and distance
//!   checks run once per sequence, in the order the byte loop runs
//!   them, so every malformed payload fails with the same
//!   [`CodecError`] variant as the reference. Only the scratch bytes of
//!   a failed decode may differ; a successful decode is byte-identical.
//! - **No access out of bounds.** Every load and store is a checked
//!   slice operation inside `payload` and `dst`, and the slack rule
//!   guarantees none of those checks can fail.
//! - **CRC.** [`crc32`] is slicing-by-16: sixteen compile-time tables
//!   fold 16 input bytes per step; the 0–15-byte tail uses the byte
//!   table.
//!
//! The [`scalar`] submodule keeps the byte-at-a-time decoder and CRC as
//! the reference; the proptests in `crates/formats/tests/rzb_roundtrip.rs`
//! pin the fast code to it on outputs and on error variants.

use std::fmt;

/// Shortest match the LZ encoding can express (token match nibble 0).
pub const MIN_MATCH: usize = 4;
/// Match distances are 16-bit; a block never references further back.
const MAX_DISTANCE: usize = 65_535;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Bounded hash-chain walk: compression stays O(n · depth) on
/// adversarial input (e.g. a block of one repeated byte).
const CHAIN_DEPTH: usize = 32;

/// Most output bytes one payload byte can decode to, under either tag: a
/// raw byte yields one, and an LZ byte at most 255 (an `0xFF` length
/// extension). A block whose uncompressed span exceeds
/// `MAX_EXPANSION × comp_len` cannot be valid, which the container
/// checks from the footer alone, before allocating for the span.
pub const MAX_EXPANSION: u64 = 255;

/// Payload tag: the block is stored as uncompressed literal bytes.
pub const TAG_RAW: u8 = 0;
/// Payload tag: the block is a stream of LZ sequences.
pub const TAG_LZ: u8 = 1;

/// Why a block payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended inside a token, length extension, literal run,
    /// or distance field.
    Truncated,
    /// The payload's first byte is neither [`TAG_RAW`] nor [`TAG_LZ`].
    BadTag,
    /// A match distance of zero, or one reaching before the block start.
    BadDistance,
    /// The decoded bytes do not fill the output slice exactly.
    LengthMismatch,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CodecError::Truncated => "payload truncated mid-sequence",
            CodecError::BadTag => "unknown block tag",
            CodecError::BadDistance => "match distance outside the decoded prefix",
            CodecError::LengthMismatch => "decoded length does not match the block size",
        };
        f.write_str(msg)
    }
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) slicing tables, built at
/// compile time. `T[0]` is the classic byte table; `T[k][n]` is the CRC
/// of byte `n` followed by `k` zero bytes, so one step can fold 16 input
/// bytes with 16 independent lookups.
const fn build_crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            n += 1;
        }
        t += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = build_crc32_tables();

/// One byte-table step of the CRC.
#[inline]
fn crc32_byte(c: u32, b: u8) -> u32 {
    CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC-32 (IEEE) of `bytes` — the per-block integrity check stored in
/// the container footer. Slicing-by-16; [`scalar::crc32`] is the
/// byte-at-a-time reference.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (words, tail) = bytes.as_chunks::<16>();
    let mut c = 0xFFFF_FFFFu32;
    for w in words {
        // Bytes 4..16 do not depend on the running CRC: fold them first
        // so the loop-carried chain is one lookup and two XOR levels.
        let rest = (t[11][w[4] as usize] ^ t[10][w[5] as usize])
            ^ (t[9][w[6] as usize] ^ t[8][w[7] as usize])
            ^ ((t[7][w[8] as usize] ^ t[6][w[9] as usize])
                ^ (t[5][w[10] as usize] ^ t[4][w[11] as usize]))
            ^ ((t[3][w[12] as usize] ^ t[2][w[13] as usize])
                ^ (t[1][w[14] as usize] ^ t[0][w[15] as usize]));
        let x = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = rest
            ^ ((t[15][(x & 0xFF) as usize] ^ t[14][((x >> 8) & 0xFF) as usize])
                ^ (t[13][((x >> 16) & 0xFF) as usize] ^ t[12][(x >> 24) as usize]));
    }
    for &b in tail {
        c = crc32_byte(c, b);
    }
    c ^ 0xFFFF_FFFF
}

#[inline]
fn hash4(word: u32) -> usize {
    // Knuth multiplicative hash over the 4-byte window.
    (word.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn load_u32(src: &[u8], i: usize) -> u32 {
    let mut w = [0u8; 4];
    w.copy_from_slice(&src[i..i + 4]);
    u32::from_le_bytes(w)
}

#[inline]
fn load_u64(src: &[u8], i: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&src[i..i + 8]);
    u64::from_le_bytes(w)
}

/// Length of the common prefix of `src[a..]` and `src[b..]` (`a < b`),
/// capped at the end of `src`. Compares 8 bytes per step, SWAR-style.
fn common_prefix(src: &[u8], a: usize, b: usize) -> usize {
    let max = src.len() - b;
    let mut n = 0;
    while n + 8 <= max {
        let x = load_u64(src, a + n) ^ load_u64(src, b + n);
        if x != 0 {
            return n + (x.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max && src[a + n] == src[b + n] {
        n += 1;
    }
    n
}

/// Append `extra` as a varint run: 0xFF bytes each adding 255, then a
/// final byte < 0xFF.
fn emit_varlen(dst: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        dst.push(255);
        extra -= 255;
    }
    dst.push(extra as u8);
}

/// Emit one full sequence: pending literals, then a match.
fn emit_sequence(dst: &mut Vec<u8>, literals: &[u8], match_len: usize, dist: usize) {
    debug_assert!(match_len >= MIN_MATCH && (1..=MAX_DISTANCE).contains(&dist));
    let lit_nib = literals.len().min(15);
    let m = match_len - MIN_MATCH;
    let m_nib = m.min(15);
    dst.push(((lit_nib as u8) << 4) | m_nib as u8);
    if lit_nib == 15 {
        emit_varlen(dst, literals.len() - 15);
    }
    dst.extend_from_slice(literals);
    dst.push(dist as u8);
    dst.push((dist >> 8) as u8);
    if m_nib == 15 {
        emit_varlen(dst, m - 15);
    }
}

/// Emit the final literal-only trailer (no distance follows; the decoder
/// recognizes the trailer by reaching the end of the payload).
fn emit_trailer(dst: &mut Vec<u8>, literals: &[u8]) {
    if literals.is_empty() {
        return;
    }
    let lit_nib = literals.len().min(15);
    dst.push((lit_nib as u8) << 4);
    if lit_nib == 15 {
        emit_varlen(dst, literals.len() - 15);
    }
    dst.extend_from_slice(literals);
}

/// Insert position `j` into the hash chain (no-op near the block tail
/// where a full 4-byte window no longer fits).
#[inline]
fn insert_pos(head: &mut [i32], prev: &mut [i32], src: &[u8], j: usize) {
    if j + MIN_MATCH > src.len() {
        return;
    }
    let h = hash4(load_u32(src, j));
    prev[j] = head[h];
    head[h] = j as i32;
}

/// Greedy LZ pass: walk the input, emitting a sequence whenever the hash
/// chain yields a match of at least [`MIN_MATCH`] bytes.
fn compress_lz(src: &[u8], dst: &mut Vec<u8>) {
    // Scratch tables are allocated once per block, outside the scan loop.
    let mut head = vec![-1i32; HASH_SIZE];
    let mut prev = vec![-1i32; src.len()];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= src.len() {
        let h = hash4(load_u32(src, i));
        let mut cand = head[h];
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut depth = 0usize;
        while cand >= 0 && depth < CHAIN_DEPTH {
            let c = cand as usize;
            if i - c > MAX_DISTANCE {
                break;
            }
            let l = common_prefix(src, c, i);
            if l > best_len {
                best_len = l;
                best_dist = i - c;
            }
            cand = prev[c];
            depth += 1;
        }
        if best_len >= MIN_MATCH {
            emit_sequence(dst, &src[lit_start..i], best_len, best_dist);
            // Index every position the match covers so later references
            // can land inside it; stop where the 4-byte window runs out.
            let insert_end = (i + best_len).min(src.len() + 1 - MIN_MATCH);
            let mut j = i;
            while j < insert_end {
                insert_pos(&mut head, &mut prev, src, j);
                j += 1;
            }
            i += best_len;
            lit_start = i;
        } else {
            insert_pos(&mut head, &mut prev, src, i);
            i += 1;
        }
    }
    emit_trailer(dst, &src[lit_start..]);
}

/// Compress one block, appending the tagged payload to `dst`. Falls back
/// to a raw literal block when LZ does not win, so the payload is never
/// more than `src.len() + 1` bytes.
pub fn encode_block(src: &[u8], dst: &mut Vec<u8>) {
    // Positions are stored in i32 chains.
    assert!(src.len() <= i32::MAX as usize, "rzb block larger than 2 GiB");
    let start = dst.len();
    dst.push(TAG_LZ);
    compress_lz(src, dst);
    if dst.len() - start > src.len() {
        dst.truncate(start);
        dst.push(TAG_RAW);
        dst.extend_from_slice(src);
    }
}

/// Read a length extension: `base` plus the varint run at `*pos`.
fn read_varlen(src: &[u8], pos: &mut usize, base: usize) -> Result<usize, CodecError> {
    let mut total = base;
    loop {
        let b = *src.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        total = total.checked_add(b as usize).ok_or(CodecError::LengthMismatch)?;
        if b != 255 {
            return Ok(total);
        }
    }
}

/// Width of one wide copy on the decode fast path (see module docs).
const WIDE: usize = 16;
/// Payload bytes a shortcut sequence reads from its token on: the token
/// and one 16-byte literal copy, which also covers the distance behind
/// at most 14 literals.
const SHORT_SRC_SLACK: usize = 1 + WIDE;
/// Output bytes a shortcut sequence may touch: 14 literals, then an
/// 18-byte match copied in 16-byte steps (two steps, 32 bytes).
const SHORT_DST_SLACK: usize = 14 + 2 * WIDE;

/// Copy `N` bytes of `dst` from `from` to `to` through a register-sized
/// buffer (`from + N <= to`, so the ranges never overlap).
#[inline(always)]
fn copy_within_wide<const N: usize>(dst: &mut [u8], from: usize, to: usize) {
    let mut w = [0u8; N];
    w.copy_from_slice(&dst[from..][..N]);
    dst[to..][..N].copy_from_slice(&w);
}

/// Copy the match at `out - dist` of `mlen` bytes to `out`. The caller
/// has checked `1 <= dist <= out` and `out + mlen <= dst.len()`. Wide
/// steps run only with slack for their overshoot and with `step <= dist`,
/// so each load reads bytes that are already final.
#[inline]
fn copy_match(dst: &mut [u8], out: usize, dist: usize, mlen: usize) {
    let from = out - dist;
    let slack = dst.len() - out - mlen;
    if dist >= WIDE && slack >= WIDE - 1 {
        let mut k = 0;
        while k < mlen {
            copy_within_wide::<WIDE>(dst, from + k, out + k);
            k += WIDE;
        }
    } else if dist >= 8 && slack >= 7 {
        let mut k = 0;
        while k < mlen {
            copy_within_wide::<8>(dst, from + k, out + k);
            k += 8;
        }
    } else if dist >= mlen {
        dst.copy_within(from..from + mlen, out);
    } else {
        // Overlapping copy (e.g. RLE with dist 1): byte-by-byte, in
        // order, so earlier output feeds later output.
        let mut k = 0;
        while k < mlen {
            dst[out + k] = dst[from + k];
            k += 1;
        }
    }
}

/// Decode an LZ payload body into the exact-size `dst` (the fast path;
/// [`scalar`] holds the reference loop it must match).
fn decode_lz(src: &[u8], dst: &mut [u8]) -> Result<(), CodecError> {
    let mut pos = 0usize;
    let mut out = 0usize;
    while pos < src.len() {
        let token = src[pos];
        let short = token >> 4 < 15 && token & 0x0F < 15 && dst.len() - out >= SHORT_DST_SLACK;
        if let (true, Some(win)) = (short, src[pos..].first_chunk::<SHORT_SRC_SLACK>()) {
            // Shortcut for the common sequence: no extensions, so the
            // literals (<= 14), the distance and the match (<= 18) all
            // sit inside the slack and only the distance needs a check.
            let lit = (token >> 4) as usize;
            dst[out..][..WIDE].copy_from_slice(&win[1..1 + WIDE]);
            let dist = win[1 + lit] as usize | (win[2 + lit] as usize) << 8;
            pos += 3 + lit;
            out += lit;
            if dist == 0 || dist > out {
                return Err(CodecError::BadDistance);
            }
            let mlen = (token & 0x0F) as usize + MIN_MATCH;
            let from = out - dist;
            // At most two 16-byte steps; inlined here rather than
            // through `copy_match`, whose general loop costs about a
            // third of the decode rate on short matches.
            if dist >= WIDE {
                copy_within_wide::<WIDE>(dst, from, out);
                if mlen > WIDE {
                    copy_within_wide::<WIDE>(dst, from + WIDE, out + WIDE);
                }
            } else {
                copy_match(dst, out, dist, mlen);
            }
            out += mlen;
            continue;
        }
        pos += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit = read_varlen(src, &mut pos, 15)?;
        }
        if lit <= WIDE && src.len() - pos >= WIDE && dst.len() - out >= WIDE {
            // One fixed-width copy; the bytes past `lit` are scratch the
            // next sequence overwrites.
            dst[out..][..WIDE].copy_from_slice(&src[pos..][..WIDE]);
        } else {
            let lit_end = pos.checked_add(lit).ok_or(CodecError::Truncated)?;
            let lit_src = src.get(pos..lit_end).ok_or(CodecError::Truncated)?;
            let out_end = out.checked_add(lit).ok_or(CodecError::LengthMismatch)?;
            let lit_dst = dst.get_mut(out..out_end).ok_or(CodecError::LengthMismatch)?;
            lit_dst.copy_from_slice(lit_src);
        }
        pos += lit;
        out += lit;
        if pos == src.len() {
            // Trailer: literals ran to the end of the payload.
            break;
        }
        let d = src.get(pos..pos + 2).ok_or(CodecError::Truncated)?;
        let dist = d[0] as usize | (d[1] as usize) << 8;
        pos += 2;
        if dist == 0 || dist > out {
            return Err(CodecError::BadDistance);
        }
        let mut mlen = (token & 0x0F) as usize;
        if mlen == 15 {
            mlen = read_varlen(src, &mut pos, 15)?;
        }
        mlen += MIN_MATCH;
        let out_end = out.checked_add(mlen).ok_or(CodecError::LengthMismatch)?;
        if out_end > dst.len() {
            return Err(CodecError::LengthMismatch);
        }
        copy_match(dst, out, dist, mlen);
        out = out_end;
    }
    if out == dst.len() {
        Ok(())
    } else {
        Err(CodecError::LengthMismatch)
    }
}

/// Dispatch a tagged payload: raw blocks copy verbatim, LZ bodies go to
/// `lz` — shared by the fast decoder and the [`scalar`] reference.
fn decode_tagged(
    payload: &[u8],
    dst: &mut [u8],
    lz: fn(&[u8], &mut [u8]) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    match payload.split_first() {
        None => {
            if dst.is_empty() {
                Ok(())
            } else {
                Err(CodecError::Truncated)
            }
        }
        Some((&TAG_RAW, body)) => {
            if body.len() != dst.len() {
                return Err(CodecError::LengthMismatch);
            }
            dst.copy_from_slice(body);
            Ok(())
        }
        Some((&TAG_LZ, body)) => lz(body, dst),
        Some(_) => Err(CodecError::BadTag),
    }
}

/// Decode one tagged block payload into the exact-size `dst`.
pub fn decode_block(payload: &[u8], dst: &mut [u8]) -> Result<(), CodecError> {
    decode_tagged(payload, dst, decode_lz)
}

/// Byte-at-a-time reference implementations of the decoder and the CRC:
/// the loops the fast path replaced, kept so tests and benches can check
/// and measure the fast code against them.
pub mod scalar {
    use super::{crc32_byte, decode_tagged, read_varlen, CodecError, MIN_MATCH};

    /// Reference [`super::crc32`]: one byte-table step per input byte.
    pub fn crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = crc32_byte(c, b);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Reference [`super::decode_block`].
    pub fn decode_block(payload: &[u8], dst: &mut [u8]) -> Result<(), CodecError> {
        decode_tagged(payload, dst, decode_lz)
    }

    /// Reference LZ body decoder: exact-length copies, every check per
    /// byte run.
    fn decode_lz(src: &[u8], dst: &mut [u8]) -> Result<(), CodecError> {
        let mut pos = 0usize;
        let mut out = 0usize;
        while pos < src.len() {
            let token = src[pos];
            pos += 1;
            let mut lit = (token >> 4) as usize;
            if lit == 15 {
                lit = read_varlen(src, &mut pos, 15)?;
            }
            let lit_end = pos.checked_add(lit).ok_or(CodecError::Truncated)?;
            let lit_src = src.get(pos..lit_end).ok_or(CodecError::Truncated)?;
            let out_end = out.checked_add(lit).ok_or(CodecError::LengthMismatch)?;
            let lit_dst = dst.get_mut(out..out_end).ok_or(CodecError::LengthMismatch)?;
            lit_dst.copy_from_slice(lit_src);
            pos = lit_end;
            out = out_end;
            if pos == src.len() {
                // Trailer: literals ran to the end of the payload.
                break;
            }
            let d = src.get(pos..pos + 2).ok_or(CodecError::Truncated)?;
            let dist = d[0] as usize | (d[1] as usize) << 8;
            pos += 2;
            if dist == 0 || dist > out {
                return Err(CodecError::BadDistance);
            }
            let mut mlen = (token & 0x0F) as usize;
            if mlen == 15 {
                mlen = read_varlen(src, &mut pos, 15)?;
            }
            mlen += MIN_MATCH;
            let out_end = out.checked_add(mlen).ok_or(CodecError::LengthMismatch)?;
            if out_end > dst.len() {
                return Err(CodecError::LengthMismatch);
            }
            if dist >= mlen {
                dst.copy_within(out - dist..out - dist + mlen, out);
            } else {
                // Overlapping copy (e.g. RLE with dist 1): byte-by-byte,
                // in order, so earlier output feeds later output.
                let mut k = 0;
                while k < mlen {
                    dst[out + k] = dst[out + k - dist];
                    k += 1;
                }
            }
            out = out_end;
        }
        if out == dst.len() {
            Ok(())
        } else {
            Err(CodecError::LengthMismatch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &[u8]) -> Vec<u8> {
        let mut packed = Vec::new();
        encode_block(src, &mut packed);
        let mut out = vec![0u8; src.len()];
        decode_block(&packed, &mut out).unwrap();
        out
    }

    #[test]
    fn empty_and_tiny_blocks_round_trip() {
        assert_eq!(round_trip(b""), b"");
        assert_eq!(round_trip(b"a"), b"a");
        assert_eq!(round_trip(b"abc"), b"abc");
    }

    #[test]
    fn repetitive_input_compresses_and_round_trips() {
        let src: Vec<u8> = b"the quick brown fox,".repeat(500);
        let mut packed = Vec::new();
        encode_block(&src, &mut packed);
        assert!(packed.len() < src.len() / 4, "{} vs {}", packed.len(), src.len());
        let mut out = vec![0u8; src.len()];
        decode_block(&packed, &mut out).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn rle_overlapping_matches_round_trip() {
        let src = vec![7u8; 10_000];
        assert_eq!(round_trip(&src), src);
    }

    #[test]
    fn incompressible_input_expands_by_at_most_one_byte() {
        // A de Bruijn-ish pseudo-random stream with no 4-byte repeats.
        let mut src = Vec::with_capacity(4096);
        let mut x = 0x9E37_79B9u32;
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            src.push((x >> 24) as u8);
        }
        let mut packed = Vec::new();
        encode_block(&src, &mut packed);
        assert!(packed.len() <= src.len() + 1);
        assert_eq!(packed[0], TAG_RAW);
        let mut out = vec![0u8; src.len()];
        decode_block(&packed, &mut out).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn long_literal_and_match_extensions_round_trip() {
        // >15 literals then a >19-byte match forces both varint paths.
        let mut src: Vec<u8> = (0u8..=255).collect();
        src.extend_from_slice(&vec![42u8; 1000]);
        assert_eq!(round_trip(&src), src);
    }

    #[test]
    fn truncated_payload_errors_not_panics() {
        let src: Vec<u8> = b"abcabcabcabcabcabc".repeat(40);
        let mut packed = Vec::new();
        encode_block(&src, &mut packed);
        for cut in 0..packed.len().min(64) {
            let mut out = vec![0u8; src.len()];
            assert!(decode_block(&packed[..cut], &mut out).is_err() || cut == 0 && src.is_empty());
        }
    }

    #[test]
    fn bad_tag_and_bad_distance_are_rejected() {
        let mut out = vec![0u8; 4];
        assert_eq!(decode_block(&[9, 1, 2], &mut out), Err(CodecError::BadTag));
        // Token promises a match at distance 2 with nothing decoded yet.
        let payload = [TAG_LZ, 0x00, 2, 0];
        assert_eq!(decode_lz(&payload[1..], &mut out), Err(CodecError::BadDistance));
    }

    #[test]
    fn wrong_output_size_is_length_mismatch() {
        let src = b"hello world hello world hello world";
        let mut packed = Vec::new();
        encode_block(src, &mut packed);
        let mut short = vec![0u8; src.len() - 1];
        assert_eq!(decode_block(&packed, &mut short), Err(CodecError::LengthMismatch));
        let mut long = vec![0u8; src.len() + 1];
        assert_eq!(decode_block(&packed, &mut long), Err(CodecError::LengthMismatch));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
