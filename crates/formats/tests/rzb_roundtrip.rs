//! Property tests for the `.rzb` block codec and container:
//! compress∘decompress ≡ identity on adversarial inputs (small palettes
//! full of matches, incompressible noise, block-boundary straddles), the
//! block index's binary search agrees with direct arithmetic, and corrupt
//! or truncated containers surface `FormatError`s — never panics — from
//! parsing and decoding alike.

use proptest::prelude::*;

use raw_formats::rzb::{self, codec};
use raw_formats::FormatError;

/// Adversarial payload generator of up to `max_len` bytes: palette size
/// controls match density (palette 1–4 = long runs and dense LZ matches;
/// 255 = mostly literals).
fn payload_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    (1u16..=255, 0usize..max_len).prop_flat_map(|(palette, len)| {
        proptest::collection::vec((0u16..palette).prop_map(|v| v as u8), len)
    })
}

/// Block sizes that force boundary straddles on unaligned payloads.
fn block_strategy() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [512, 1000, 4096][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole-container round trip at block sizes that force straddles:
    /// payloads rarely align to 512/1024-byte blocks, so morsel-shaped
    /// reads cross block boundaries constantly.
    #[test]
    fn container_roundtrip_is_identity(src in payload_strategy(20_000), block in block_strategy()) {
        let packed = rzb::compress(&src, block);
        prop_assert!(rzb::sniff(&packed));
        let index = rzb::parse_index(&packed).unwrap();
        prop_assert_eq!(index.uncompressed_len(), src.len());
        prop_assert_eq!(index.block_count(), src.len().div_ceil(block));
        let out = rzb::decompress_all(&packed, &index, None).unwrap();
        prop_assert_eq!(out, src);
    }

    /// Single-block codec round trip, including incompressible noise that
    /// must take the raw-literal fallback without expanding past len + 1.
    #[test]
    fn block_roundtrip_is_identity(src in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let mut packed = Vec::new();
        codec::encode_block(&src, &mut packed);
        prop_assert!(packed.len() <= src.len() + 1, "never expands past the tag byte");
        let mut out = vec![0u8; src.len()];
        codec::decode_block(&packed, &mut out).unwrap();
        prop_assert_eq!(out, src);
    }

    /// The index's binary search agrees with direct block arithmetic for
    /// every offset, and `blocks_for` covers exactly the touched blocks.
    #[test]
    fn block_index_search_matches_arithmetic(
        len in 0usize..30_000,
        block in block_strategy(),
        probe in 0usize..40_000,
    ) {
        let src: Vec<u8> = (0..len).map(|i| (i % 7) as u8).collect();
        let packed = rzb::compress(&src, block);
        let index = rzb::parse_index(&packed).unwrap();
        let expect = (probe < len).then_some(probe / block);
        prop_assert_eq!(index.block_containing(probe), expect);
        if let Some(b) = expect {
            let span = index.block_span(b);
            prop_assert!(span.contains(&probe));
            // A range around the probe covers exactly the straddled blocks.
            let end = (probe + block).min(len);
            let covered = index.blocks_for(probe..end);
            prop_assert_eq!(covered.start, b);
            prop_assert_eq!(covered.end, (end - 1) / block + 1);
        }
        prop_assert_eq!(index.blocks_for(len..len + 10).len(), 0, "past-end ranges cover nothing");
    }

    /// Truncating a valid container anywhere yields a `FormatError` from
    /// index parsing or block decoding — never a panic.
    #[test]
    fn truncated_containers_error_cleanly(src in payload_strategy(20_000), cut_frac in 0.0f64..1.0) {
        let packed = rzb::compress(&src, 1024);
        let cut = ((packed.len() as f64) * cut_frac) as usize;
        if cut == packed.len() {
            return Ok(()); // not truncated
        }
        let truncated = &packed[..cut];
        match rzb::parse_index(truncated) {
            Err(_) => {} // the common case: the tail/footer is gone
            Ok(index) => {
                // Index survived (cut inside payload area is impossible —
                // entries are bounds-checked against footer_off — so any
                // parsed index implies decode must fail or succeed cleanly).
                let _ = rzb::decompress_all(truncated, &index, None);
            }
        }
    }

    /// Flipping any single byte of the container yields a `FormatError`
    /// from parsing or decoding, or (for flips inside literal runs that
    /// happen to keep the LZ stream well-formed) a CRC mismatch — never a
    /// panic, never silent wrong bytes.
    #[test]
    fn corrupt_containers_error_or_fail_crc(src in payload_strategy(20_000), at_frac in 0.0f64..1.0, flip in 1u8..=255) {
        if src.is_empty() {
            return Ok(()); // nothing to flip that blocks read
        }
        let mut packed = rzb::compress(&src, 1024);
        let at = (((packed.len() - 1) as f64) * at_frac) as usize;
        packed[at] ^= flip;
        match rzb::parse_index(&packed) {
            Err(_) => {}
            Ok(index) => match rzb::decompress_all(&packed, &index, None) {
                Err(FormatError::Corrupt { .. }) => {}
                Err(_) => {}
                Ok(out) => {
                    // The flip landed somewhere the decode path never reads
                    // (e.g. padding-free containers have none, but a flip in
                    // an unread index *copy* of redundant data could). The
                    // output must still be exactly the source.
                    prop_assert_eq!(out, src.clone(), "silent corruption");
                }
            },
        }
    }
}

/// Deterministic spot checks that the proptest generators may not hit.
#[test]
fn known_edge_cases_roundtrip() {
    for (src, block) in [
        (Vec::new(), 512usize),
        (vec![0u8; 1], 512),
        (vec![7u8; 100_000], 4096), // one long run
        ((0..100_000u32).flat_map(|i| i.to_le_bytes()).collect(), 4096), // structured
    ] {
        let packed = rzb::compress(&src, block);
        let index = rzb::parse_index(&packed).unwrap();
        assert_eq!(rzb::decompress_all(&packed, &index, None).unwrap(), src);
    }
}

/// A CRC flip that preserves LZ structure is still caught: corrupt the
/// stored CRC itself.
#[test]
fn stored_crc_flip_is_caught() {
    let src: Vec<u8> = (0..5000).map(|i| (i % 13) as u8).collect();
    let packed = rzb::compress(&src, 1024);
    let clean = rzb::parse_index(&packed).unwrap();
    // The footer holds 16-byte entries with the CRC in bytes 12..16; flip
    // block 2's stored CRC and re-parse (the footer CRC guards the footer
    // bytes, so re-parsing must fail instead).
    let footer_off = packed.len() - 24 - clean.block_count() * 16;
    let mut bad = packed.clone();
    bad[footer_off + 2 * 16 + 12] ^= 0xFF;
    assert!(rzb::parse_index(&bad).is_err(), "footer CRC catches index tampering");
}

// -- fast decoder and CRC ≡ the scalar reference ------------------------

/// Decode `payload` into a `dst_len`-byte buffer with both decoders and
/// require the same outcome: equal bytes on success, the same
/// `CodecError` variant on failure.
fn assert_decoders_agree(payload: &[u8], dst_len: usize) -> Result<(), TestCaseError> {
    let mut fast = vec![0u8; dst_len];
    let mut reference = vec![0u8; dst_len];
    let got = codec::decode_block(payload, &mut fast);
    let want = codec::scalar::decode_block(payload, &mut reference);
    prop_assert_eq!(got, want, "payload {:?} into {} bytes", payload, dst_len);
    if want.is_ok() {
        prop_assert_eq!(fast, reference);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On every truncation and on a byte flip at every position of an
    /// encoded block, into exact, short and long outputs, the fast
    /// decoder returns what the reference returns.
    #[test]
    fn fast_decode_matches_scalar_on_truncations_and_flips(
        src in payload_strategy(2048),
        flip in 1u8..=255,
        slop in 0usize..20,
    ) {
        let mut packed = Vec::new();
        codec::encode_block(&src, &mut packed);
        for dst_len in [src.len(), src.len().saturating_sub(slop), src.len() + slop] {
            assert_decoders_agree(&packed, dst_len)?;
        }
        for cut in 0..packed.len() {
            assert_decoders_agree(&packed[..cut], src.len())?;
        }
        for at in 0..packed.len() {
            let mut bad = packed.clone();
            bad[at] ^= flip;
            assert_decoders_agree(&bad, src.len())?;
        }
    }

    /// Arbitrary bytes under the LZ tag: random tokens, distances and
    /// extensions reach every error branch of both decoders.
    #[test]
    fn fast_decode_matches_scalar_on_arbitrary_lz_bodies(
        body in proptest::collection::vec(any::<u8>(), 0..512),
        dst_len in 0usize..2048,
    ) {
        let mut payload = vec![codec::TAG_LZ];
        payload.extend_from_slice(&body);
        assert_decoders_agree(&payload, dst_len)?;
    }

    /// The slicing CRC equals the byte-table CRC on arbitrary input.
    #[test]
    fn fast_crc_matches_scalar(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(codec::crc32(&bytes), codec::scalar::crc32(&bytes));
    }
}

/// Append a length extension for `extra` (the count past the nibble's 15).
fn push_ext(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

/// Hand-built LZ body plus the bytes it must decode to, materialized by
/// the format's byte-at-a-time semantics.
#[derive(Default)]
struct Stream {
    body: Vec<u8>,
    plain: Vec<u8>,
}

impl Stream {
    /// Literal bytes that never repeat within a test block.
    fn literals(&self, n: usize) -> Vec<u8> {
        (0..n).map(|i| ((self.plain.len() + i) * 37 % 251) as u8).collect()
    }

    fn token(&mut self, lit: usize, match_nibble: usize) {
        self.body.push(((lit.min(15) as u8) << 4) | match_nibble as u8);
        if lit >= 15 {
            push_ext(&mut self.body, lit - 15);
        }
        let lits = self.literals(lit);
        self.body.extend_from_slice(&lits);
        self.plain.extend_from_slice(&lits);
    }

    /// A sequence: `lit` literals, then a `mlen`-byte match `dist` back.
    fn sequence(&mut self, lit: usize, dist: usize, mlen: usize) -> &mut Stream {
        let m = mlen - codec::MIN_MATCH;
        self.token(lit, m.min(15));
        self.body.extend_from_slice(&(dist as u16).to_le_bytes());
        if m >= 15 {
            push_ext(&mut self.body, m - 15);
        }
        for _ in 0..mlen {
            let b = self.plain[self.plain.len() - dist];
            self.plain.push(b);
        }
        self
    }

    /// The literal-only trailer (nothing is emitted for zero literals).
    fn trailer(&mut self, lit: usize) -> &mut Stream {
        if lit > 0 {
            self.token(lit, 0);
        }
        self
    }

    /// Both decoders must produce exactly `plain`.
    fn check(&self) {
        let mut payload = vec![codec::TAG_LZ];
        payload.extend_from_slice(&self.body);
        let mut fast = vec![0u8; self.plain.len()];
        let mut reference = vec![0u8; self.plain.len()];
        assert_eq!(codec::decode_block(&payload, &mut fast), Ok(()));
        assert_eq!(codec::scalar::decode_block(&payload, &mut reference), Ok(()));
        assert_eq!(reference, self.plain, "reference decoder");
        assert_eq!(fast, self.plain, "fast decoder");
    }
}

/// Every overlap distance 1–16 (and a few wider ones) with match lengths
/// around the 8- and 16-byte steps, ending 0–16 bytes before the block
/// end (the tail is a literal trailer of that length), after prefixes
/// that put the match on both sides of the fast path's slack — both as
/// a sequence with a long literal run and as a short sequence (≤ 14
/// literals, ≤ 18-byte match) that takes the shortcut when it can.
#[test]
fn hand_built_streams_hit_every_copy_edge() {
    let mlens = [4, 5, 7, 8, 9, 15, 16, 17, 18, 19, 20, 31, 32, 33, 40];
    for dist in (1..=16usize).chain([17, 31, 32, 100]) {
        for mlen in mlens {
            for tail in 0..=16 {
                for prefix in [dist, dist + 7, dist.max(48)] {
                    let mut s = Stream::default();
                    s.sequence(prefix, dist, mlen).trailer(tail);
                    s.check();
                    for lit in [0, 7, 14] {
                        // The second sequence's wide copies land on the
                        // first one's scratch bytes.
                        let mut s = Stream::default();
                        s.sequence(prefix, dist, 4).sequence(lit, dist, mlen).trailer(tail);
                        s.check();
                    }
                }
            }
        }
    }
}

/// Literal runs of 0–16 bytes right at the block end, behind matches far
/// and near, with and without enough output left for a wide copy.
#[test]
fn hand_built_streams_with_short_literal_tails() {
    for lit in 0..=16 {
        for dist in [1, 7, 8, 15, 16, 17, 64] {
            let mut s = Stream::default();
            s.sequence(64, dist, 4).sequence(lit, dist, 4).trailer(lit);
            s.check();
            let mut s = Stream::default();
            s.sequence(64, dist, 20).trailer(lit);
            s.check();
        }
    }
}

/// Literal and match extensions that end exactly on and just past a
/// 255-byte extension step (`0xFF 0x00` and `0xFF 0x01`).
#[test]
fn hand_built_streams_with_long_extensions() {
    for extra in [254, 255, 256, 509, 510, 511] {
        for dist in [1, 3, 8, 16, 200] {
            let mut s = Stream::default();
            s.sequence(15 + extra, dist, codec::MIN_MATCH + 15 + extra).trailer(15 + extra);
            s.check();
            let mut s = Stream::default();
            s.sequence(300, dist, codec::MIN_MATCH + 15 + extra).sequence(0, dist, 4);
            s.check();
        }
    }
}

/// The slicing CRC equals the byte-table CRC at every length 0–64 and at
/// every start offset within a 16-byte step, and matches the IEEE test
/// vector.
#[test]
fn fast_crc_matches_scalar_at_every_length_and_offset() {
    let buf: Vec<u8> = (0..96u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    for off in 0..16 {
        for len in 0..=64 {
            let bytes = &buf[off..off + len];
            assert_eq!(codec::crc32(bytes), codec::scalar::crc32(bytes), "off {off} len {len}");
        }
    }
    let fox = b"The quick brown fox jumps over the lazy dog";
    assert_eq!(codec::crc32(fox), 0x414F_A339);
    assert_eq!(codec::scalar::crc32(fox), 0x414F_A339);
}

// -- forged containers ---------------------------------------------------

/// A ~4 KiB container whose header claims 256 blocks of `u32::MAX` bytes
/// (about 2⁴⁰ bytes) backed by one-byte payloads: the block count
/// matches and the footer CRC is valid, so only the expansion bound can
/// reject it.
fn forged_container() -> Vec<u8> {
    const BLOCKS: u64 = 256;
    let block_bytes = u32::MAX;
    let mut out = Vec::new();
    out.extend_from_slice(&rzb::MAGIC);
    out.extend_from_slice(&rzb::VERSION.to_le_bytes());
    out.extend_from_slice(&block_bytes.to_le_bytes());
    out.extend_from_slice(&(BLOCKS * block_bytes as u64).to_le_bytes());
    out.push(codec::TAG_RAW);
    let footer_off = out.len();
    for _ in 0..BLOCKS {
        out.extend_from_slice(&24u64.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
    }
    let footer_crc = codec::crc32(&out[footer_off..]);
    out.extend_from_slice(&(footer_off as u64).to_le_bytes());
    out.extend_from_slice(&(BLOCKS as u32).to_le_bytes());
    out.extend_from_slice(&footer_crc.to_le_bytes());
    out.extend_from_slice(&rzb::TAIL_MAGIC);
    out
}

/// The forged container is rejected as corrupt from the footer alone —
/// by the in-memory and on-disk index parsers and by both file-pool
/// reads — before anything allocates for the claimed 2⁴⁰ bytes.
#[test]
fn forged_huge_container_is_corrupt_not_an_abort() {
    use raw_formats::file_buffer::FileBufferPool;

    let packed = forged_container();
    assert!(packed.len() <= 4200, "{} bytes", packed.len());
    let is_corrupt = |r: Result<(), FormatError>, what: &str| match r {
        Err(FormatError::Corrupt { context, .. }) => {
            assert!(context.contains("expansion"), "{what}: {context}")
        }
        other => panic!("{what}: expected FormatError::Corrupt, got {other:?}"),
    };
    is_corrupt(rzb::parse_index(&packed).map(drop), "parse_index");

    let dir = std::env::temp_dir().join(format!("rzb-forged-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("forged.csv.rzb");
    std::fs::write(&path, &packed).unwrap();
    is_corrupt(rzb::read_index(&path).map(drop), "read_index");
    let pool = FileBufferPool::new();
    is_corrupt(pool.read(&path).map(drop), "FileBufferPool::read");
    is_corrupt(pool.read_streaming(&path, 4096).map(drop), "FileBufferPool::read_streaming");
    std::fs::remove_dir_all(&dir).ok();
}
