//! Deterministic proof of cold-path overlap: with availability-driven
//! dispatch ([`raw_exec::GlobalPool::run_on`]) over a chunk-streamed buffer, a
//! morsel whose byte range is resident completes **while the reader thread
//! is still reading the rest of the file** — the property that lets cold
//! throughput scale past serial-read-then-warm-scan.
//!
//! The reader is throttled through a [`ChunkSource`] test seam gated on a
//! channel, so the proof is a happens-before argument, not a timing race:
//! chunk 0 is released immediately, every later chunk blocks until the
//! first morsel's job has finished and observed the reader mid-file.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use raw_columnar::ops::{BatchSource, Operator};
use raw_columnar::{Batch, ColumnarError};
use raw_exec::pool::JobCtx;
use raw_exec::{execute_morsels, GlobalPool, MergePlan, MorselGate};
use raw_formats::file_buffer::{ChunkSource, ChunkedFileBuffer};

const LEN: usize = 64 * 1024;
const CHUNK: usize = 4 * 1024;

/// Serves deterministic bytes; blocks before every chunk after the first
/// until released, and records when the final chunk has been served.
struct GatedSource {
    release: mpsc::Receiver<()>,
    finished: Arc<AtomicBool>,
}

impl ChunkSource for GatedSource {
    fn read_chunk(&mut self, offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
        if offset > 0 {
            self.release.recv().expect("releaser alive");
        }
        for (i, b) in dst.iter_mut().enumerate() {
            *b = ((offset as usize + i) % 251) as u8;
        }
        if offset as usize + dst.len() == LEN {
            self.finished.store(true, Ordering::SeqCst);
        }
        Ok(())
    }
}

#[test]
fn first_morsel_completes_before_reader_finishes_the_file() {
    let (tx, rx) = mpsc::channel();
    let finished = Arc::new(AtomicBool::new(false));
    let stream = ChunkedFileBuffer::spawn(
        "/virtual/overlap.bin",
        GatedSource { release: rx, finished: Arc::clone(&finished) },
        LEN,
        CHUNK,
    );

    // Two "morsels": the first covers chunk 0 (released immediately), the
    // second needs the whole file (held back until the first completes).
    let chunks = ChunkedFileBuffer::chunk_count(LEN, CHUNK);
    let overlap_seen = Arc::new(AtomicBool::new(false));

    type Gate = Box<dyn FnOnce() -> Result<(), (usize, bool)> + Send>;
    type Job = Box<dyn for<'s> FnOnce(JobCtx<'s, ()>) -> (usize, bool) + Send>;
    let jobs: Vec<(Gate, Job)> = vec![
        (
            {
                let stream = Arc::clone(&stream);
                Box::new(move || stream.wait_available(0..CHUNK).map_err(|_| (0, false)))
            },
            {
                let stream = Arc::clone(&stream);
                let finished = Arc::clone(&finished);
                let overlap_seen = Arc::clone(&overlap_seen);
                Box::new(move |_| {
                    // "Scan" the morsel: its bytes are resident and correct.
                    let bytes = &stream.bytes()[..CHUNK];
                    assert!(bytes.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
                    let reader_done = finished.load(Ordering::SeqCst);
                    overlap_seen.store(!reader_done, Ordering::SeqCst);
                    // Only now let the reader pull the remaining chunks.
                    for _ in 1..chunks {
                        tx.send(()).expect("reader alive");
                    }
                    (0, reader_done)
                })
            },
        ),
        (
            {
                let stream = Arc::clone(&stream);
                Box::new(move || stream.wait_available(0..LEN).map_err(|_| (1, false)))
            },
            {
                let stream = Arc::clone(&stream);
                Box::new(move |_| {
                    let bytes = &stream.bytes()[..];
                    assert!(bytes.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
                    (1, true)
                })
            },
        ),
    ];

    let (results, _) = GlobalPool::new(2, 0).run_on(jobs, None);
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].0, 0);
    assert_eq!(results[1].0, 1);
    assert!(
        overlap_seen.load(Ordering::SeqCst),
        "morsel 0 must complete while the reader thread still has chunks outstanding"
    );
    assert!(finished.load(Ordering::SeqCst), "reader eventually finished");
    assert!(stream.is_complete());
}

/// Serves chunks until `fail_at`, then reports an I/O error — the reader
/// thread records it as the stream's terminal state.
struct FailingSource {
    fail_at: usize,
    served: usize,
}

impl ChunkSource for FailingSource {
    fn read_chunk(&mut self, _offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
        if self.served == self.fail_at {
            return Err(std::io::Error::other("mid-file disk failure"));
        }
        self.served += 1;
        dst.fill(b'r');
        Ok(())
    }
}

/// Fault injection at the executor level: a reader failing mid-file makes
/// every availability-gated morsel surface the I/O error — the merged run
/// fails (no hang, no partial-result success), with the first morsel's
/// error winning in morsel order, and pipelines behind failed gates never
/// drain.
#[test]
fn reader_failure_fails_every_gated_morsel_without_hanging() {
    let stream = ChunkedFileBuffer::spawn(
        "/virtual/failing.bin",
        FailingSource { fail_at: 2, served: 0 },
        LEN,
        CHUNK,
    );

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
            let st = Arc::clone(&stream);
            let gate: MorselGate = Box::new(move || {
                st.wait_available(i * per_morsel..(i + 1) * per_morsel)
                    .map_err(|e| ColumnarError::External { message: e.to_string() })
            });
            (counting, Some(gate))
        })
        .unzip();

    let err = execute_morsels(&GlobalPool::new(4, 0), pipelines, gates, &MergePlan::Concat, None)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("mid-file disk failure"), "I/O failure surfaces: {msg}");
    assert!(msg.contains("/virtual/failing.bin"), "failure names the file: {msg}");
    // The failure hits chunk 2, inside morsel 0's four-chunk range: every
    // morsel's gate fails, so no pipeline ever drains — the error replaces
    // the work instead of racing it.
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
