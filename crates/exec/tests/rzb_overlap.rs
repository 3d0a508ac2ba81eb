//! Deterministic proof of compressed-path overlap: with availability-driven
//! dispatch over an [`RzbDecoder`], a morsel whose blocks are decoded
//! completes its scan **while later blocks are still being read AND still
//! undecoded** — and the decode work itself fans out across at least two
//! distinct worker threads.
//!
//! Like `cold_overlap.rs`, the compressed reader is throttled through a
//! channel-gated [`ChunkSource`], so every claim is a happens-before
//! argument, not a timing race.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use raw_columnar::ops::{BatchSource, Operator};
use raw_columnar::{Batch, ColumnarError};
use raw_exec::pool::JobCtx;
use raw_exec::{execute_morsels, GlobalPool, MergePlan, MorselGate};
use raw_formats::file_buffer::{file_bytes, ChunkSource, ChunkedFileBuffer};
use raw_formats::rzb::{self, RzbDecoder};

const LEN: usize = 64 * 1024;
const BLOCK: usize = 4 * 1024;

/// Deterministic, compressible-but-not-trivial payload.
fn payload() -> Vec<u8> {
    (0..LEN).map(|i| ((i % 251) as u8).wrapping_add((i / 1024) as u8)).collect()
}

/// Serves the compressed container bytes; blocks before every chunk after
/// the first until released, and records when the final chunk was served.
struct GatedSource {
    data: Vec<u8>,
    release: mpsc::Receiver<()>,
    finished: Arc<AtomicBool>,
}

impl ChunkSource for GatedSource {
    fn read_chunk(&mut self, offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
        if offset > 0 {
            self.release.recv().expect("releaser alive");
        }
        let offset = offset as usize;
        dst.copy_from_slice(&self.data[offset..offset + dst.len()]);
        if offset + dst.len() == self.data.len() {
            self.finished.store(true, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// Morsel 0 (block 0) scans while the compressed reader still has chunks
/// outstanding and every later block is undecoded; a second worker then
/// decodes the tail blocks, so decode work provably lands on two distinct
/// threads.
#[test]
fn early_morsel_scans_while_later_blocks_are_undecoded() {
    let src = payload();
    let packed = rzb::compress(&src, BLOCK);
    let index = rzb::parse_index(&packed).unwrap();
    assert!(index.block_count() >= 8, "fixture must span many blocks");
    // Compressed chunk 0 covers exactly block 0's payload, so morsel 0's
    // decode never needs a gated chunk; everything later does.
    let chunk0 = index.comp_range(0).end;
    let comp_len = packed.len();

    let (tx, rx) = mpsc::channel();
    let finished = Arc::new(AtomicBool::new(false));
    let compressed = ChunkedFileBuffer::spawn(
        "/virtual/overlap.rzb",
        GatedSource { data: packed, release: rx, finished: Arc::clone(&finished) },
        comp_len,
        chunk0,
        None,
        None,
    );
    let dec = RzbDecoder::new("/virtual/overlap.rzb", index, compressed, None);

    let last_span = dec.len() - BLOCK..dec.len();
    let chunks = ChunkedFileBuffer::chunk_count(comp_len, chunk0);
    let overlap_seen = Arc::new(AtomicBool::new(false));

    type Gate = Box<dyn FnOnce() -> Result<(), (usize, bool)> + Send>;
    type Job = Box<dyn for<'s> FnOnce(JobCtx<'s, ()>) -> (usize, bool) + Send>;
    let jobs: Vec<(Gate, Job)> = vec![
        (
            {
                let dec = Arc::clone(&dec);
                Box::new(move || dec.ensure_decoded(0..BLOCK).map_err(|_| (0, false)))
            },
            {
                let dec = Arc::clone(&dec);
                let src = src.clone();
                let finished = Arc::clone(&finished);
                let overlap_seen = Arc::clone(&overlap_seen);
                let last_span = last_span.clone();
                Box::new(move |_| {
                    // "Scan" morsel 0: its block is decoded and correct...
                    assert_eq!(&dec.decoded().bytes()[..BLOCK], &src[..BLOCK]);
                    // ...while the compressed reader is still mid-file and
                    // every later block is unpublished.
                    let reader_done = finished.load(Ordering::SeqCst);
                    let later_decoded = dec.decoded().is_available(last_span.clone());
                    overlap_seen.store(!reader_done && !later_decoded, Ordering::SeqCst);
                    assert_eq!(dec.blocks_published(), 1, "only morsel 0's block is decoded");
                    // Release the rest of the compressed stream, then hold
                    // this worker hostage until the *other* worker has
                    // decoded the tail block — the two-distinct-decoders
                    // proof cannot race.
                    for _ in 1..chunks {
                        tx.send(()).expect("reader alive");
                    }
                    dec.decoded().wait_available(last_span).expect("tail decode succeeds");
                    (0, reader_done)
                })
            },
        ),
        (
            {
                let dec = Arc::clone(&dec);
                let last_span = last_span.clone();
                Box::new(move || dec.ensure_decoded(last_span).map_err(|_| (1, false)))
            },
            {
                let dec = Arc::clone(&dec);
                let src = src.clone();
                Box::new(move |_| {
                    let span = dec.len() - BLOCK..dec.len();
                    assert_eq!(&dec.decoded().bytes()[span.clone()], &src[span]);
                    (1, true)
                })
            },
        ),
    ];

    let (results, _) = GlobalPool::new(2, 0).run_on(jobs, None);
    assert_eq!(results.len(), 2);
    assert!(
        overlap_seen.load(Ordering::SeqCst),
        "morsel 0 must scan while the reader has chunks outstanding and later blocks are undecoded"
    );
    // Morsel 0's worker decoded block 0; a different worker (blocked-out of
    // morsel 0's still-running body) decoded the tail.
    let workers = dec.decode_workers();
    assert!(workers.len() >= 2, "decode work on >= 2 distinct threads, saw {}", workers.len());

    // Finish the file and verify the whole image round-trips.
    assert_eq!(&dec.wait_all().unwrap()[..], &src[..]);
    assert!(finished.load(Ordering::SeqCst), "reader drained the container");
}

/// A corrupt block (CRC mismatch) fails **every** gated morsel — merged
/// execution errors instead of hanging or returning partial results, and no
/// pipeline behind a failed gate ever drains.
#[test]
fn corrupt_block_fails_every_gated_morsel_without_hanging() {
    let src = payload();
    let mut packed = rzb::compress(&src, BLOCK);
    let index = rzb::parse_index(&packed).unwrap();
    // Flip a byte inside block 0's payload: every prefix-covering gate must
    // hit the CRC failure.
    let at = index.comp_range(0).start;
    packed[at + 1] ^= 0x55;
    let compressed =
        Arc::new(ChunkedFileBuffer::completed("/virtual/bad.rzb", file_bytes(packed), 4096));
    let dec = RzbDecoder::new("/virtual/bad.rzb", index, compressed, None);

    let drained = Arc::new(AtomicUsize::new(0));
    let morsels = 4usize;
    let per_morsel = LEN / morsels;
    let (pipelines, gates): (Vec<Box<dyn Operator>>, Vec<Option<MorselGate>>) = (0..morsels)
        .map(|i| {
            let drained = Arc::clone(&drained);
            let counting: Box<dyn Operator> = Box::new(CountingSource {
                inner: BatchSource::new(vec![Batch::new(vec![vec![i as i64].into()]).unwrap()]),
                drained,
            });
            let dec = Arc::clone(&dec);
            let gate: MorselGate = Box::new(move || {
                dec.ensure_decoded(0..(i + 1) * per_morsel)
                    .map_err(|e| ColumnarError::External { message: e.to_string() })
            });
            (counting, Some(gate))
        })
        .unzip();

    let err = execute_morsels(&GlobalPool::new(4, 0), pipelines, gates, &MergePlan::Concat, None)
        .unwrap_err();
    let msg = err.to_string();
    // Depending on which byte the flip lands on, the codec's structural
    // validation or the CRC check catches it — either way a corrupt-data
    // error naming the block, never a panic or a hang.
    assert!(msg.contains("corrupt data"), "corruption surfaces as a decode error: {msg}");
    assert!(msg.contains("block 0"), "failure names the block: {msg}");
    assert!(dec.is_failed());
    assert_eq!(drained.load(Ordering::SeqCst), 0, "morsels behind a failed gate must not drain");
}

/// Wraps an operator and counts drains, to prove failed-gate morsels never
/// run their pipelines.
struct CountingSource {
    inner: BatchSource,
    drained: Arc<AtomicUsize>,
}

impl Operator for CountingSource {
    fn next_batch(&mut self) -> Result<Option<Batch>, ColumnarError> {
        self.drained.fetch_add(1, Ordering::SeqCst);
        self.inner.next_batch()
    }
    fn name(&self) -> &'static str {
        "CountingSource"
    }
}
