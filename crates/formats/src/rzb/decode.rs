//! Parallel block decode for `.rzb` containers: the block-state machine
//! extending the `FileBuf` chunk protocol.
//!
//! A decoder is one kind of in-flight source of the file pool: the
//! pool's `read_streaming` starts one for an `.rzb` path and hands it out
//! as [`ColdRead::Rzb`](crate::file_buffer::ColdRead), whose `ensure` is
//! [`RzbDecoder::ensure_decoded`]. Consumers above the pool never name
//! the decoder; compression is a byte source under the scans.
//!
//! An [`RzbDecoder`] owns two [`ChunkedFileBuffer`]s over one container:
//!
//! - the **compressed** buffer, filled sequentially by the usual reader
//!   thread streaming the raw container bytes off disk;
//! - the **decoded** buffer, a manual buffer whose chunk grid *is* the
//!   block grid, filled by whichever threads ensure a range — scan
//!   workers' availability gates decode the blocks their own morsel
//!   needs, a plan-time CSV probe the blocks it reaches.
//!
//! Each block moves through **Unwritten → Decoding → Published**:
//! [`RzbDecoder::ensure_decoded`] claims Unwritten blocks (so decode
//! work is never duplicated), decodes them outside the state lock, and
//! publishes them through [`ChunkedFileBuffer::complete_chunk`] — which
//! means the happens-before edge for decoded bytes is *the same
//! mutex-release/acquire edge* the plain chunk protocol already has
//! (CONCURRENCY.md): decode writes precede `complete_chunk`'s release,
//! and any reader that observed the chunk done under that lock sees the
//! plaintext. The decoder's own state mutex only arbitrates claims; it
//! publishes no bytes. Workers racing for the same block park on a
//! condvar until the claimant publishes or fails.
//!
//! A decode failure (stream I/O error, corrupt payload, CRC mismatch) is
//! terminal: it is recorded in the state machine *and* fails the decoded
//! buffer, so every current and future waiter — gated morsels included —
//! surfaces a `FormatError` instead of hanging.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use raw_trace::EngineMetrics;

use crate::error::{FormatError, Result};
use crate::file_buffer::{ChunkedFileBuffer, FileBytes};

use super::RzbIndex;

/// Decode lifecycle of one block. The only legal path is
/// Unwritten → Decoding → Published; a failed decode pins the whole
/// decoder instead of rolling the block back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    /// No worker has claimed the block.
    Unwritten,
    /// Exactly one worker holds the decode claim.
    Decoding,
    /// Decoded, CRC-verified, and published through `complete_chunk`.
    Published,
}

/// Claim a block for decoding. In `checked` builds an illegal transition
/// aborts — the block-state arm of the shadow sanitizer.
fn claim_block(blocks: &mut [BlockState], i: usize) {
    #[cfg(feature = "checked")]
    assert!(
        blocks[i] == BlockState::Unwritten,
        "checked: rzb block {i} claimed for decode while {:?} — Unwritten→Decoding→Published is the only legal path",
        blocks[i]
    );
    blocks[i] = BlockState::Decoding;
}

/// Publish a decoded block. In `checked` builds publishing without a
/// Decoding claim aborts.
fn publish_block(blocks: &mut [BlockState], i: usize) {
    #[cfg(feature = "checked")]
    assert!(
        blocks[i] == BlockState::Decoding,
        "checked: rzb block {i} published while {:?} — only the holder of a Decoding claim may publish",
        blocks[i]
    );
    blocks[i] = BlockState::Published;
}

struct DecodeState {
    blocks: Vec<BlockState>,
    /// Distinct threads that decoded at least one block, in first-decode
    /// order — the observability hook behind the ≥2-workers proof.
    workers: Vec<ThreadId>,
    /// First decode failure, rendered; terminal for the whole decoder.
    failed: Option<String>,
}

/// Parallel block decoder for one `.rzb` container (see module docs).
pub struct RzbDecoder {
    index: RzbIndex,
    compressed: Arc<ChunkedFileBuffer>,
    decoded: Arc<ChunkedFileBuffer>,
    state: Mutex<DecodeState>,
    /// Signals block publication and failure to claim-waiters.
    published: Condvar,
    metrics: Option<Arc<EngineMetrics>>,
}

impl std::fmt::Debug for RzbDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        let done = st.blocks.iter().filter(|b| **b == BlockState::Published).count();
        write!(
            f,
            "RzbDecoder({} -> {} bytes, {}/{} blocks, failed: {})",
            self.index.file_len(),
            self.index.uncompressed_len(),
            done,
            st.blocks.len(),
            st.failed.is_some()
        )
    }
}

impl RzbDecoder {
    /// Wire a decoder over a parsed index and the (usually in-flight)
    /// compressed-byte stream. The decoded buffer's chunk grid is the
    /// block grid, so block publication *is* chunk publication.
    pub fn new(
        path: impl Into<PathBuf>,
        index: RzbIndex,
        compressed: Arc<ChunkedFileBuffer>,
        metrics: Option<Arc<EngineMetrics>>,
    ) -> Arc<RzbDecoder> {
        let path = path.into();
        let decoded = Arc::new(ChunkedFileBuffer::new_manual(
            &path,
            index.uncompressed_len(),
            index.block_bytes(),
        ));
        // Blocks decode on whichever worker's gate claims them first, so
        // the decoded buffer legitimately has many writer threads; the
        // shadow keeps checking span exclusivity and write-after-publish.
        #[cfg(feature = "checked")]
        decoded.bytes().allow_multi_writer();
        Arc::new(RzbDecoder {
            state: Mutex::new(DecodeState {
                blocks: vec![BlockState::Unwritten; index.block_count()],
                workers: Vec::new(),
                failed: None,
            }),
            index,
            compressed,
            decoded,
            published: Condvar::new(),
            metrics,
        })
    }

    /// The decoded (uncompressed-coordinate) buffer: what the pool's
    /// [`ColdRead`](crate::file_buffer::ColdRead) hands to scans. Reading a
    /// range is only sound once [`RzbDecoder::ensure_decoded`] returned
    /// `Ok` for it.
    pub fn decoded(&self) -> &Arc<ChunkedFileBuffer> {
        &self.decoded
    }

    /// Uncompressed payload length.
    pub fn len(&self) -> usize {
        self.index.uncompressed_len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compressed container length on disk.
    pub fn compressed_len(&self) -> usize {
        self.index.file_len()
    }

    /// Number of blocks in the container.
    pub fn block_count(&self) -> usize {
        self.index.block_count()
    }

    /// Uncompressed bytes per block.
    pub fn block_bytes(&self) -> usize {
        self.index.block_bytes()
    }

    /// Whether every block is decoded and published.
    pub fn is_complete(&self) -> bool {
        self.decoded.is_complete()
    }

    /// Whether decoding failed terminally.
    pub fn is_failed(&self) -> bool {
        self.state.lock().failed.is_some() || self.compressed.is_failed()
    }

    /// Blocks published so far.
    pub fn blocks_published(&self) -> usize {
        let st = self.state.lock();
        st.blocks.iter().filter(|b| **b == BlockState::Published).count()
    }

    /// The distinct threads that decoded at least one block, in
    /// first-decode order.
    pub fn decode_workers(&self) -> Vec<ThreadId> {
        self.state.lock().workers.clone()
    }

    /// Make the uncompressed byte `range` resident: decode exactly the
    /// blocks covering it — claiming Unwritten blocks, waiting out
    /// blocks another worker is already Decoding — and return once every
    /// covering block is Published. This is the morsel gate's body.
    pub fn ensure_decoded(&self, range: Range<usize>) -> Result<()> {
        for i in self.index.blocks_for(range) {
            self.ensure_block(i)?;
        }
        Ok(())
    }

    /// Decode everything and return the shared decoded bytes — the
    /// bridge back to blocking `read` semantics.
    pub fn wait_all(&self) -> Result<FileBytes> {
        self.ensure_decoded(0..self.index.uncompressed_len())?;
        Ok(Arc::clone(self.decoded.bytes()))
    }

    fn replay_failure(&self, msg: &str) -> FormatError {
        FormatError::Corrupt { context: msg.to_string(), offset: None }
    }

    fn ensure_block(&self, i: usize) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            if let Some(msg) = &st.failed {
                return Err(self.replay_failure(msg));
            }
            match st.blocks[i] {
                BlockState::Published => return Ok(()),
                BlockState::Decoding => {
                    // Another worker holds the claim; park until it
                    // publishes or fails.
                    self.published.wait(&mut st);
                }
                BlockState::Unwritten => {
                    claim_block(&mut st.blocks, i);
                    drop(st);
                    let res = self.decode_block(i);
                    let mut st = self.state.lock();
                    match &res {
                        Ok(()) => {
                            publish_block(&mut st.blocks, i);
                            let me = thread::current().id();
                            if !st.workers.contains(&me) {
                                st.workers.push(me);
                            }
                        }
                        Err(e) => {
                            let rendered = e.to_string();
                            st.failed.get_or_insert(rendered.clone());
                            // Fail the decoded buffer too: waiters gated
                            // directly on it (and `wait_available`
                            // callers) must error, not hang.
                            self.decoded.fail(std::io::Error::other(rendered));
                        }
                    }
                    drop(st);
                    self.published.notify_all();
                    return res;
                }
            }
        }
    }

    /// Decode one claimed block: wait for its compressed bytes, inflate
    /// into the block's chunk of the decoded buffer, CRC-check, publish.
    fn decode_block(&self, i: usize) -> Result<()> {
        let comp = self.index.comp_range(i);
        // Deterministic I/O accounting: the last block also drains the
        // stream through the footer and tail, so any run that decodes to
        // EOF charges exactly the compressed file length — same as the
        // blocking path, independent of reader-thread timing.
        if i + 1 == self.index.block_count() {
            self.compressed.wait_available(0..self.index.file_len())?;
        } else {
            self.compressed.wait_available(comp.clone())?;
        }
        // The decode clock starts once the compressed bytes are resident:
        // a stall is already charged to `chunk_wait_nanos`.
        let t0 = Instant::now();
        let raw = self.compressed.bytes();
        let payload = raw.get(comp.clone()).ok_or_else(|| FormatError::Corrupt {
            context: format!("decoding rzb block {i}: payload range {comp:?} past end of file"),
            offset: Some(comp.start as u64),
        })?;
        let span = self.index.block_span(i);
        // SAFETY: this thread holds block `i`'s exclusive Decoding claim
        // (the state machine admits one claimant per block), the decoded
        // buffer's chunk grid equals the block grid, and chunk `i` stays
        // unpublished until `complete_chunk` below — so this is the only
        // live writer of these bytes. The shadow sanitizer still checks
        // span exclusivity in checked builds (multi-writer mode).
        let dst = unsafe { self.decoded.bytes().chunk_mut(span.clone()) };
        super::decode_block_checked(&self.index, i, payload, dst)?;
        // Publication point: `complete_chunk`'s mutex release/acquire is
        // the happens-before edge carrying the decoded bytes to readers.
        self.decoded.complete_chunk(i);
        if let Some(m) = &self.metrics {
            m.rzb_block_decoded(
                comp.len() as u64,
                span.len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_buffer::file_bytes;
    use crate::rzb;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 97) as u8 ^ (i / 129) as u8).collect()
    }

    fn decoder_over(src: &[u8], block_bytes: usize) -> (Arc<RzbDecoder>, Vec<u8>) {
        let packed = rzb::compress(src, block_bytes);
        let index = rzb::parse_index(&packed).unwrap();
        let compressed = Arc::new(ChunkedFileBuffer::completed(
            "/virtual/t.rzb",
            file_bytes(packed.clone()),
            4096,
        ));
        (RzbDecoder::new("/virtual/t.rzb", index, compressed, None), packed)
    }

    #[test]
    fn ensure_decoded_decodes_only_covering_blocks() {
        let src = sample(10_000);
        let (dec, _) = decoder_over(&src, 1024);
        dec.ensure_decoded(2048..3000).unwrap();
        assert_eq!(dec.blocks_published(), 1, "exactly the covering block");
        assert!(dec.decoded().is_available(2048..3000));
        assert!(!dec.decoded().is_available(0..1024), "uncovered blocks stay undecoded");
        dec.ensure_decoded(0..10_000).unwrap();
        assert!(dec.is_complete());
        assert_eq!(&dec.wait_all().unwrap()[..], &src[..]);
    }

    #[test]
    fn concurrent_gates_decode_each_block_once() {
        let src = sample(64 * 1024);
        let (dec, _) = decoder_over(&src, 4096);
        let blocks = dec.block_count();
        std::thread::scope(|s| {
            for t in 0..4 {
                let dec = Arc::clone(&dec);
                let len = src.len();
                s.spawn(move || {
                    // Overlapping ranges from four threads: claims must
                    // dedup to one decode per block.
                    let quarter = len / 4;
                    let start = t * quarter;
                    dec.ensure_decoded(start.saturating_sub(quarter / 2)..len).unwrap();
                });
            }
        });
        assert!(dec.is_complete());
        assert_eq!(dec.blocks_published(), blocks);
        assert_eq!(&dec.wait_all().unwrap()[..], &src[..]);
        assert!(!dec.decode_workers().is_empty());
    }

    #[test]
    fn corrupt_block_fails_every_waiter() {
        let src = sample(8192);
        let mut packed = rzb::compress(&src, 1024);
        let index = rzb::parse_index(&packed).unwrap();
        // Flip a byte inside block 3's payload: CRC must catch it.
        let at = index.comp_range(3).start;
        packed[at + 1] ^= 0x55;
        let compressed =
            Arc::new(ChunkedFileBuffer::completed("/virtual/bad.rzb", file_bytes(packed), 4096));
        let dec = RzbDecoder::new("/virtual/bad.rzb", index, compressed, None);
        let err = dec.ensure_decoded(3 * 1024..4 * 1024).unwrap_err();
        assert!(err.to_string().contains("block 3"), "{err}");
        assert!(dec.is_failed());
        // Every later request errors too — including blocks that would
        // have decoded fine — and nothing hangs.
        assert!(dec.ensure_decoded(0..1024).is_err());
        assert!(dec.wait_all().is_err());
        assert!(dec.decoded().wait_available(0..1).is_err(), "decoded buffer failed too");
    }

    #[test]
    fn completed_decoder_is_a_no_op_wrapper() {
        // Once every block is published, further requests decode nothing:
        // the decoder is a plain wrapper over its resident bytes.
        let src = sample(5000);
        let packed = rzb::compress(&src, 1024);
        let index = rzb::parse_index(&packed).unwrap();
        let compressed =
            Arc::new(ChunkedFileBuffer::completed("/virtual/warm", file_bytes(packed), 4096));
        let metrics = Arc::new(EngineMetrics::new());
        let dec = RzbDecoder::new("/virtual/warm", index, compressed, Some(Arc::clone(&metrics)));
        let decoded =
            || metrics.snapshot().into_iter().find(|(n, _)| *n == "rzb_blocks_decoded").unwrap().1;
        assert_eq!(&dec.wait_all().unwrap()[..], &src[..]);
        assert!(dec.is_complete());
        assert_eq!(decoded(), dec.block_count() as u64);
        dec.ensure_decoded(0..5000).unwrap();
        assert_eq!(&dec.wait_all().unwrap()[..], &src[..]);
        assert_eq!(decoded(), dec.block_count() as u64, "nothing decoded twice");
    }

    /// Serves a container image as one chunk, `delay` late.
    struct LateSource {
        data: Vec<u8>,
        delay: std::time::Duration,
    }

    impl crate::file_buffer::ChunkSource for LateSource {
        fn read_chunk(&mut self, offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
            std::thread::sleep(self.delay);
            let at = offset as usize;
            dst.copy_from_slice(&self.data[at..at + dst.len()]);
            Ok(())
        }
    }

    #[test]
    fn stalled_compressed_read_is_charged_as_a_wait_not_as_decode() {
        let src = sample(8192);
        let packed = rzb::compress(&src, 4096);
        let index = rzb::parse_index(&packed).unwrap();
        let len = packed.len();
        let stall = std::time::Duration::from_millis(50);
        let metrics = Arc::new(EngineMetrics::new());
        // The compressed stream's one chunk is completed by its reader
        // thread 50 ms after the decoder starts waiting on it.
        let compressed = ChunkedFileBuffer::spawn(
            "/virtual/late.rzb",
            LateSource { data: packed, delay: stall },
            len,
            len,
            None,
            Some(Arc::clone(&metrics)),
        );
        let dec =
            RzbDecoder::new("/virtual/late.rzb", index, compressed, Some(Arc::clone(&metrics)));
        assert_eq!(&dec.wait_all().unwrap()[..], &src[..]);
        let snap: std::collections::HashMap<_, _> = metrics.snapshot().into_iter().collect();
        let stall_ns = stall.as_nanos() as u64;
        assert!(snap["chunk_wait_nanos"] >= stall_ns, "the stall is a chunk wait: {snap:?}");
        assert!(snap["rzb_decode_nanos"] < stall_ns, "the stall is not decode time: {snap:?}");
    }

    #[test]
    fn empty_payload_decodes_trivially() {
        let (dec, _) = decoder_over(&[], 1024);
        assert!(dec.is_complete());
        assert_eq!(dec.wait_all().unwrap().len(), 0);
    }
}

/// Seeded violations proving the block-state sanitizer is live (the
/// decoder counterpart of `file_buffer`'s `checked_tests`).
#[cfg(all(test, feature = "checked"))]
mod checked_tests {
    use super::*;
    use crate::file_buffer::file_bytes;
    use crate::rzb;

    fn small_decoder() -> Arc<RzbDecoder> {
        let src = vec![5u8; 4096];
        let packed = rzb::compress(&src, 1024);
        let index = rzb::parse_index(&packed).unwrap();
        let compressed =
            Arc::new(ChunkedFileBuffer::completed("/virtual/ck.rzb", file_bytes(packed), 4096));
        RzbDecoder::new("/virtual/ck.rzb", index, compressed, None)
    }

    #[test]
    fn multi_writer_decode_flow_is_clean_under_shadow() {
        // Four threads decoding disjoint blocks of one buffer: legal in
        // multi-writer mode, and the shadow must stay silent.
        let dec = small_decoder();
        std::thread::scope(|s| {
            for t in 0..4 {
                let dec = Arc::clone(&dec);
                s.spawn(move || dec.ensure_decoded(t * 1024..(t + 1) * 1024).unwrap());
            }
        });
        assert!(dec.is_complete());
    }

    #[test]
    #[should_panic(expected = "only the holder of a Decoding claim")]
    fn seeded_publish_without_claim_aborts() {
        let dec = small_decoder();
        let mut st = dec.state.lock();
        // Deliberate violation: publish with no Decoding claim.
        publish_block(&mut st.blocks, 0);
    }

    #[test]
    #[should_panic(expected = "the only legal path")]
    fn seeded_double_claim_aborts() {
        let dec = small_decoder();
        let mut st = dec.state.lock();
        claim_block(&mut st.blocks, 1);
        // Deliberate violation: claiming a block already Decoding.
        claim_block(&mut st.blocks, 1);
    }

    #[test]
    #[should_panic(expected = "checked: write")]
    fn seeded_write_after_decode_publish_aborts() {
        // Even in multi-writer mode, rewriting a published block must
        // abort: multi-writer relaxes the one-thread rule only.
        let dec = small_decoder();
        dec.ensure_decoded(0..1024).unwrap();
        // SAFETY: deliberate protocol violation (re-writing a published
        // block); the shadow aborts before the slice exists.
        let _ = unsafe { dec.decoded().bytes().chunk_mut(0..1024) };
    }
}
