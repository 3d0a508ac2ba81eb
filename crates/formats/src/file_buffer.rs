//! In-process file buffers with an explicit cold/warm switch and an
//! overlapped (chunk-streamed) cold path.
//!
//! The paper memory-maps raw files and relies on the OS page cache; cold
//! runs flush the file system caches, warm runs reuse them — and, crucially,
//! mmap'd scans *overlap* I/O with processing: early pages fault in and are
//! tokenized while later pages are still on disk. Reproducing the page cache
//! faithfully would make experiments depend on host state, so RAW-rs
//! replaces it with an explicit pool, and reproduces the overlap explicitly:
//!
//! - **Warm**: files live in the pool as shared [`FileBytes`] buffers;
//!   repeated reads hit the pool and cost nothing.
//! - **Cold, blocking** ([`FileBufferPool::read`]): the whole file is read
//!   before the call returns — the pre-streaming model, still the serial
//!   engine's path and the baseline the equivalence suites compare against.
//! - **Cold, streamed** ([`FileBufferPool::read_streaming`]): the read
//!   starts in the background and returns at once with a [`ColdRead`]
//!   handle; consumers call [`ColdRead::ensure`] for the byte ranges they
//!   are about to scan, so early morsels run while later bytes are still
//!   on disk. A plain file is filled by a dedicated reader thread in
//!   fixed-size chunks (the `read_chunk_bytes` / `RAW_READ_CHUNK_BYTES`
//!   knob), each chunk's completion published through
//!   [`ChunkedFileBuffer`]. An `.rzb` container is the same stream over
//!   its *compressed* bytes plus an [`RzbDecoder`] that decodes the blocks
//!   covering an ensured range on the calling thread — compression is a
//!   byte source under the scans, not a format the planner sees. `read`
//!   on an in-flight path joins the read (drives it to completion)
//!   instead of issuing a second disk read, keeping the `bytes_from_disk`
//!   and hit/miss counters identical to the blocking path.
//!
//! All scan paths go through this layer, so cold-run experiments charge the
//! read (and the pool counts bytes read from disk for reporting).
//!
//! The single-writer chunk protocol, its one happens-before edge, and the
//! `checked`-build shadow sanitizer are documented normatively in the
//! repo-root `CONCURRENCY.md`.
//!
//! ## The cold/warm model, post-streaming
//!
//! "Cold" now means *chunk-streamed*, not whole-file-blocking: a cold
//! parallel run's reader thread and scan workers proceed concurrently, and
//! only [`FileBufferPool::read`]'s contract ("the returned bytes are fully
//! resident") forces a full wait. The buffer identity rules: one path has
//! at most one live buffer and at most one in-flight read, every consumer
//! shares it, and a completed read publishes into the warm pool — unless an
//! [`insert`](FileBufferPool::insert) raced it, in which case the insert
//! wins (see `read_streaming` for the full race contract).

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use raw_trace::EngineMetrics;

use crate::error::{FormatError, Result};
use crate::rzb::{self, RzbDecoder};

/// Shared, immutable-once-published bytes of one file.
pub type FileBytes = Arc<FileBuf>;

/// Build a [`FileBytes`] from owned bytes (tests, generated datasets).
pub fn file_bytes(data: Vec<u8>) -> FileBytes {
    Arc::new(FileBuf::from(data))
}

/// The byte storage behind [`FileBytes`].
///
/// Behaves as `[u8]` (via `Deref`) for every consumer. The bytes live in
/// `UnsafeCell`s for exactly one writer: a [`ChunkedFileBuffer`]'s reader
/// thread, which fills chunks in place before publishing their completion
/// through the chunk state (a `Mutex` release/acquire pair, so completed
/// bytes happen-before any reader that waited on them). Cell-per-byte
/// storage keeps the writer's `&mut` views confined to the chunk being
/// filled — never the whole buffer. Safety protocol:
///
/// - only the owning reader thread ever writes, and only to chunks it has
///   not yet marked complete;
/// - consumers read only byte ranges whose covering chunks are complete
///   (enforced by `wait_available` / the availability-gated scheduler);
/// - once every chunk is complete (or for buffers built from a `Vec`),
///   the bytes are immutable forever.
///
/// Residual caveat, shared with the `mmap` model this layer stands in
/// for: `Deref` hands out a whole-buffer `&[u8]`, so during an in-flight
/// stream a consumer's slice *spans* unpublished bytes it must not read.
/// The protocol prevents any dynamic race on bytes actually accessed, but
/// a whole-span shared slice coexisting with the writer's chunk `&mut` is
/// not something the strictest aliasing models bless — exactly the
/// long-standing status of `&[u8]` over a concurrently-faulted mmap. A
/// fully blessed design would thread ensured-range views through every
/// scan operator; revisit if tooling starts exploiting it.
pub struct FileBuf {
    data: Box<[UnsafeCell<u8>]>,
    /// `checked`-build shadow write states (see [`shadow`]).
    #[cfg(feature = "checked")]
    shadow: shadow::ShadowState,
}

/// The `checked` build's homegrown write sanitizer for [`FileBuf`] (this
/// offline toolchain has no Miri/TSan): a shadow per-chunk state machine
/// **Unwritten → Writing → Published** maintained alongside the real
/// bytes. `chunk_mut` asserts exclusive writership (one writer thread,
/// no overlap with in-flight or published chunks), `complete_chunk`
/// records publication, and the gated read paths
/// ([`ChunkedFileBuffer::wait_available`] /
/// [`ChunkedFileBuffer::is_available`]) cross-check the chunk
/// bookkeeping's "resident" answer against the shadow — catching a
/// buffer whose bookkeeping and actual writes ever disagree. The shadow
/// lock is independent of the production protocol, so enabling it
/// cannot mask an ordering bug by accident; it only adds aborts.
#[cfg(feature = "checked")]
mod shadow {
    use std::ops::Range;
    use std::thread::{self, ThreadId};

    use parking_lot::Mutex;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum WriteState {
        Writing,
        Published,
    }

    #[derive(Debug)]
    struct Span {
        start: usize,
        end: usize,
        state: WriteState,
    }

    /// Shadow write-state for one buffer. Bytes covered by no span are
    /// Unwritten; spans are created by writes (Writing) or publication
    /// (Published, directly for manual buffers that publish zero-filled
    /// chunks without writing).
    pub(super) struct ShadowState {
        inner: Mutex<Inner>,
    }

    struct Inner {
        spans: Vec<Span>,
        writer: Option<ThreadId>,
        /// Multi-writer mode (rzb block decode): many threads may write,
        /// each to its own exclusive span. Only the one-thread assert is
        /// relaxed — overlap and write-after-publish still abort.
        multi_writer: bool,
    }

    impl ShadowState {
        /// All `len` bytes Published — warm buffers built from owned
        /// bytes (`From<Vec<u8>>`) were never partially written.
        pub(super) fn published(len: usize) -> ShadowState {
            let spans = if len > 0 {
                vec![Span { start: 0, end: len, state: WriteState::Published }]
            } else {
                Vec::new()
            };
            ShadowState { inner: Mutex::new(Inner { spans, writer: None, multi_writer: false }) }
        }

        /// Reset every byte to Unwritten — a streaming target starts
        /// blank and must be written and published chunk by chunk.
        pub(super) fn reset_unwritten(&self) {
            let mut inner = self.inner.lock();
            inner.spans.clear();
            inner.writer = None;
        }

        /// Switch to multi-writer mode (see [`Inner::multi_writer`]).
        pub(super) fn allow_multi_writer(&self) {
            self.inner.lock().multi_writer = true;
        }

        /// `chunk_mut` entry: record `range` as Writing, asserting the
        /// single-writer protocol.
        pub(super) fn begin_write(&self, range: Range<usize>) {
            if range.start >= range.end {
                return;
            }
            let mut inner = self.inner.lock();
            let me = thread::current().id();
            if !inner.multi_writer {
                match inner.writer {
                    Some(writer) => assert!(
                        writer == me,
                        "checked: second writer thread {me:?} (after {writer:?}) — the chunk protocol allows exactly one writer per buffer"
                    ),
                    None => inner.writer = Some(me),
                }
            }
            for s in &inner.spans {
                assert!(
                    range.end <= s.start || s.end <= range.start,
                    "checked: write of {range:?} overlaps {:?} chunk {}..{} — published bytes are immutable and in-flight writes are exclusive",
                    s.state,
                    s.start,
                    s.end
                );
            }
            inner.spans.push(Span {
                start: range.start,
                end: range.end,
                state: WriteState::Writing,
            });
        }

        /// `complete_chunk` entry: mark `range` Published. Valid from
        /// Writing (the reader thread's write→publish step) and from
        /// Unwritten (manual buffers publish zero-filled chunks).
        pub(super) fn publish(&self, range: Range<usize>) {
            if range.start >= range.end {
                return;
            }
            let mut inner = self.inner.lock();
            if let Some(s) =
                inner.spans.iter_mut().find(|s| s.start == range.start && s.end == range.end)
            {
                s.state = WriteState::Published;
                return;
            }
            for s in &inner.spans {
                assert!(
                    range.end <= s.start || s.end <= range.start,
                    "checked: publish of {range:?} partially overlaps shadow chunk {}..{} — publication must match the write grid",
                    s.start,
                    s.end
                );
            }
            inner.spans.push(Span {
                start: range.start,
                end: range.end,
                state: WriteState::Published,
            });
        }

        /// Gated-read entry: every byte of `range` must be Published.
        pub(super) fn assert_resident(&self, range: Range<usize>) {
            if range.start >= range.end {
                return;
            }
            let inner = self.inner.lock();
            let mut published: Vec<(usize, usize)> = inner
                .spans
                .iter()
                .filter(|s| s.state == WriteState::Published)
                .map(|s| (s.start, s.end))
                .collect();
            published.sort_unstable();
            let mut covered = range.start;
            for (start, end) in published {
                if start > covered {
                    break;
                }
                covered = covered.max(end);
                if covered >= range.end {
                    break;
                }
            }
            assert!(
                covered >= range.end,
                "checked: gated read of {range:?} reaches unpublished byte {covered} — chunk bookkeeping says resident, shadow write states disagree"
            );
        }
    }
}

// SAFETY: `FileBuf` owns its bytes; sending it (or an `Arc` of it) to
// another thread moves plain `u8` storage with no thread-affine state.
unsafe impl Send for FileBuf {}
// SAFETY: mutation happens only through `chunk_mut`, whose caller must be
// the buffer's single writer; every other access is read-only and gated
// on chunk completion, with the mutex+condvar in `ChunkedFileBuffer`
// providing the write→read happens-before edge (see CONCURRENCY.md).
unsafe impl Sync for FileBuf {}

impl FileBuf {
    /// A zero-filled buffer of `len` bytes (the streaming reader's target).
    fn zeroed(len: usize) -> FileBuf {
        let buf = FileBuf::from(vec![0u8; len]);
        // A streaming target starts blank: every chunk must be written and
        // published before gated reads may see it.
        #[cfg(feature = "checked")]
        buf.shadow.reset_unwritten();
        buf
    }

    /// Relax the `checked` shadow to multi-writer mode for this buffer:
    /// the rzb block decoder legitimately writes from many worker
    /// threads, one exclusive block span each. Overlap and
    /// write-after-publish checks stay armed.
    #[cfg(feature = "checked")]
    pub(crate) fn allow_multi_writer(&self) {
        self.shadow.allow_multi_writer();
    }

    /// Writable view of `range`, for the buffer's writer(s) only: the
    /// streaming reader thread, or — for an rzb decoded buffer — the
    /// worker holding the block's exclusive Decoding claim.
    ///
    /// # Safety
    /// The caller must hold exclusive write rights to `range` under the
    /// chunk protocol (single writer, or one claimed block per thread in
    /// the decoder's multi-writer extension) and must not have published
    /// (marked complete) any chunk overlapping `range`.
    // The &self → &mut shape is the point: the writer mutates through
    // the cells while readers hold the same Arc, under the protocol
    // documented on the type; the &mut covers only the unpublished range.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn chunk_mut(&self, range: Range<usize>) -> &mut [u8] {
        #[cfg(feature = "checked")]
        self.shadow.begin_write(range.clone());
        let cells = &self.data[range];
        std::slice::from_raw_parts_mut(cells.as_ptr() as *mut u8, cells.len())
    }
}

impl std::ops::Deref for FileBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `UnsafeCell<u8>` is layout-identical to `u8`. Readers
        // only dereference byte positions whose chunks are complete (see
        // the type-level protocol); completed bytes are never written
        // again.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<u8>(), self.data.len()) }
    }
}

impl From<Vec<u8>> for FileBuf {
    fn from(data: Vec<u8>) -> FileBuf {
        #[cfg(feature = "checked")]
        let len = data.len();
        let raw = Box::into_raw(data.into_boxed_slice());
        FileBuf {
            // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, so
            // the boxed slice can be reinterpreted in place — no copy. `raw`
            // comes from `Box::into_raw` on this same allocation, and the
            // cast preserves both element layout and slice length, so
            // `Box::from_raw` reclaims exactly the allocation it was given.
            data: unsafe { Box::from_raw(raw as *mut [UnsafeCell<u8>]) },
            #[cfg(feature = "checked")]
            shadow: shadow::ShadowState::published(len),
        }
    }
}

impl std::fmt::Debug for FileBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FileBuf({} bytes)", self.len())
    }
}

/// Where a streaming read's bytes come from: the production implementation
/// is a plain file ([`FileChunkSource`]); tests inject throttled or failing
/// sources to prove overlap and error propagation deterministically.
pub trait ChunkSource: Send + 'static {
    /// Fill `dst` with the file bytes at `offset`. Called sequentially,
    /// in offset order, by the single reader thread.
    fn read_chunk(&mut self, offset: u64, dst: &mut [u8]) -> std::io::Result<()>;
}

/// [`ChunkSource`] over a real file.
pub struct FileChunkSource {
    file: std::fs::File,
}

impl FileChunkSource {
    /// Open `path` for chunked reading.
    pub fn open(path: &Path) -> std::io::Result<FileChunkSource> {
        Ok(FileChunkSource { file: std::fs::File::open(path)? })
    }
}

impl ChunkSource for FileChunkSource {
    fn read_chunk(&mut self, offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(dst)
    }
}

/// A failure recorded by the reader thread, replayed to every waiter.
#[derive(Debug, Clone)]
struct StreamFailure {
    kind: std::io::ErrorKind,
    message: String,
}

#[derive(Debug, Default)]
struct ChunkState {
    /// Per-chunk completion flags.
    done: Vec<bool>,
    /// Number of `true` entries in `done` (cheap all-complete check).
    completed: usize,
    /// Bytes covered by completed chunks — the "partial prefix" a failed
    /// stream reports to the metrics registry.
    bytes_done: u64,
    /// Set once by the reader on I/O failure; terminal.
    failed: Option<StreamFailure>,
}

/// A file buffer being filled in fixed-size chunks by a reader thread,
/// with per-chunk completion tracking and a `wait_available` primitive.
///
/// The chunk grid tiles the file exactly once: chunk `i` covers bytes
/// `i*chunk_bytes .. min((i+1)*chunk_bytes, len)`. Consumers wait on byte
/// ranges; the buffer resolves them to covering chunks. A reader failure is
/// terminal and surfaces as [`FormatError::Io`] to every current and future
/// waiter — no waiter hangs, none sees partial data as success.
pub struct ChunkedFileBuffer {
    bytes: FileBytes,
    chunk_bytes: usize,
    path: PathBuf,
    state: Mutex<ChunkState>,
    available: Condvar,
    /// Byte counter credited as chunks complete (the pool's
    /// `bytes_from_disk`): a successful stream charges exactly the file
    /// length, like a blocking read, while a failed stream charges only
    /// what was actually read. `None` for manual/warm buffers.
    charge: Option<Arc<AtomicU64>>,
    /// Engine-lifetime observability: chunk completions, blocking
    /// chunk-waits, and terminal stream failures (with the partial byte
    /// prefix) are recorded here. `None` for manual/warm buffers and
    /// pools without a registry.
    metrics: Option<Arc<EngineMetrics>>,
}

impl std::fmt::Debug for ChunkedFileBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "ChunkedFileBuffer({} bytes, {}/{} chunks, failed: {})",
            self.bytes.len(),
            st.completed,
            st.done.len(),
            st.failed.is_some()
        )
    }
}

impl ChunkedFileBuffer {
    /// Number of chunks a `len`-byte file splits into at `chunk_bytes` per
    /// chunk (0 for an empty file).
    pub fn chunk_count(len: usize, chunk_bytes: usize) -> usize {
        len.div_ceil(chunk_bytes.max(1))
    }

    /// The half-open byte range of chunk `i` in a `len`-byte file.
    pub fn chunk_span(len: usize, chunk_bytes: usize, i: usize) -> Range<usize> {
        let chunk_bytes = chunk_bytes.max(1);
        (i * chunk_bytes).min(len)..((i + 1) * chunk_bytes).min(len)
    }

    /// A buffer with no reader thread whose chunks are completed manually
    /// via [`ChunkedFileBuffer::complete_chunk`] — the test seam behind the
    /// chunk-bookkeeping proptests and the scheduler's overlap proofs.
    pub fn new_manual(
        path: impl Into<PathBuf>,
        len: usize,
        chunk_bytes: usize,
    ) -> ChunkedFileBuffer {
        let chunk_bytes = chunk_bytes.max(1);
        ChunkedFileBuffer {
            bytes: Arc::new(FileBuf::zeroed(len)),
            chunk_bytes,
            path: path.into(),
            state: Mutex::new(ChunkState {
                done: vec![false; ChunkedFileBuffer::chunk_count(len, chunk_bytes)],
                completed: 0,
                bytes_done: 0,
                failed: None,
            }),
            available: Condvar::new(),
            charge: None,
            metrics: None,
        }
    }

    /// Wrap already-resident bytes as a fully-complete buffer (warm hits).
    pub fn completed(
        path: impl Into<PathBuf>,
        bytes: FileBytes,
        chunk_bytes: usize,
    ) -> ChunkedFileBuffer {
        let chunk_bytes = chunk_bytes.max(1);
        let chunks = ChunkedFileBuffer::chunk_count(bytes.len(), chunk_bytes);
        let bytes_done = bytes.len() as u64;
        ChunkedFileBuffer {
            bytes,
            chunk_bytes,
            path: path.into(),
            state: Mutex::new(ChunkState {
                done: vec![true; chunks],
                completed: chunks,
                bytes_done,
                failed: None,
            }),
            available: Condvar::new(),
            charge: None,
            metrics: None,
        }
    }

    /// Start a streaming read: allocate the buffer and spawn the dedicated
    /// reader thread pulling `len` bytes from `source` chunk by chunk.
    ///
    /// `charge` is credited per completed chunk (the pool's
    /// `bytes_from_disk`), so a failed stream charges only the bytes
    /// actually read; `metrics` records chunk completions, blocking waits,
    /// and terminal failures (with the completed byte prefix) as they
    /// happen. Pass `None` for either to leave it unobserved.
    pub fn spawn(
        path: impl Into<PathBuf>,
        mut source: impl ChunkSource,
        len: usize,
        chunk_bytes: usize,
        charge: Option<Arc<AtomicU64>>,
        metrics: Option<Arc<EngineMetrics>>,
    ) -> Arc<ChunkedFileBuffer> {
        let mut buf = ChunkedFileBuffer::new_manual(path, len, chunk_bytes);
        buf.charge = charge;
        buf.metrics = metrics;
        let buf = Arc::new(buf);
        let reader = Arc::clone(&buf);
        std::thread::spawn(move || {
            for i in 0..ChunkedFileBuffer::chunk_count(len, reader.chunk_bytes) {
                let span = ChunkedFileBuffer::chunk_span(len, reader.chunk_bytes, i);
                // SAFETY: this thread is the single writer and chunk `i` is
                // not yet complete (chunks complete in order, below).
                let dst = unsafe { reader.bytes.chunk_mut(span.clone()) };
                match source.read_chunk(span.start as u64, dst) {
                    Ok(()) => reader.complete_chunk(i),
                    Err(e) => {
                        reader.fail(e);
                        return;
                    }
                }
            }
        });
        buf
    }

    /// The underlying shared bytes. Full deref is only sound once the
    /// ranges being read are available — schedule against
    /// [`ChunkedFileBuffer::wait_available`].
    pub fn bytes(&self) -> &FileBytes {
        &self.bytes
    }

    /// The file this buffer holds.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total file length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.len() == 0
    }

    /// The configured chunk size in bytes.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Mark chunk `i` complete and wake waiters (reader thread; manual
    /// buffers' tests). Completing a chunk twice is a no-op.
    ///
    /// This is the **publication point** of the single-writer protocol
    /// (CONCURRENCY.md): the reader thread's writes to the chunk's bytes
    /// precede this call in program order, and the mutex hand-off below
    /// carries them to every consumer.
    pub fn complete_chunk(&self, i: usize) {
        // ORDERING: the mutex release at the end of this critical section
        // pairs with the acquire in `wait_available` / `is_available` —
        // a consumer that observes `done[i] == true` under the lock also
        // observes every byte the writer stored before publishing (write
        // → release → acquire → read). This lock hand-off is the
        // protocol's ONLY happens-before edge; no raw atomic ordering is
        // involved (the `charge` counter below is an independent Relaxed
        // statistic, see trace::metrics).
        let mut st = self.state.lock();
        if let Some(flag) = st.done.get_mut(i) {
            if !*flag {
                *flag = true;
                st.completed += 1;
                let span = ChunkedFileBuffer::chunk_span(self.bytes.len(), self.chunk_bytes, i);
                #[cfg(feature = "checked")]
                self.bytes.shadow.publish(span.clone());
                st.bytes_done += span.len() as u64;
                if let Some(charge) = &self.charge {
                    charge.fetch_add(span.len() as u64, Ordering::Relaxed);
                }
                if let Some(m) = &self.metrics {
                    m.chunk_completed(span.len() as u64);
                }
            }
        }
        drop(st);
        self.available.notify_all();
    }

    /// Record a terminal reader failure and wake every waiter. The metrics
    /// registry (when attached) records the failure together with the
    /// partial byte prefix the stream had completed — fault observability,
    /// not just propagation.
    pub fn fail(&self, error: std::io::Error) {
        let mut st = self.state.lock();
        if st.failed.is_none() {
            st.failed = Some(StreamFailure { kind: error.kind(), message: error.to_string() });
            if let Some(m) = &self.metrics {
                m.stream_failed(st.bytes_done);
            }
        }
        drop(st);
        self.available.notify_all();
    }

    fn covering_chunks(&self, range: &Range<usize>) -> Range<usize> {
        let len = self.bytes.len();
        let start = range.start.min(len);
        let end = range.end.min(len);
        if start >= end {
            return 0..0;
        }
        (start / self.chunk_bytes)..(end - 1) / self.chunk_bytes + 1
    }

    fn failure_error(&self, f: &StreamFailure) -> FormatError {
        FormatError::io(&self.path, std::io::Error::new(f.kind, f.message.clone()))
    }

    /// Block until every chunk covering `range` (clamped to the file) is
    /// complete, or surface the reader's I/O failure. Never returns `Ok`
    /// before the covering chunks have all completed.
    ///
    /// A call that actually blocks charges one `chunk_waits` event (and the
    /// blocked nanoseconds) to the attached metrics registry; a call whose
    /// range is already resident charges nothing — so the counter measures
    /// real overlap stalls, not polling traffic.
    pub fn wait_available(&self, range: Range<usize>) -> Result<()> {
        let chunks = self.covering_chunks(&range);
        // ORDERING: this lock acquire (and each reacquire inside the
        // condvar wait) pairs with the release in `complete_chunk`;
        // observing `done[i]` here is what makes reading chunk `i`'s
        // bytes race-free after we return `Ok`.
        let mut st = self.state.lock();
        let mut blocked_at: Option<Instant> = None;
        let outcome = loop {
            if let Some(f) = &st.failed {
                break Err(self.failure_error(f));
            }
            if chunks.clone().all(|i| st.done[i]) {
                break Ok(());
            }
            blocked_at.get_or_insert_with(Instant::now);
            self.available.wait(&mut st);
        };
        drop(st);
        if let (Some(m), Some(t0)) = (&self.metrics, blocked_at) {
            m.chunk_wait(t0.elapsed().as_nanos() as u64);
        }
        // Cross-check the bookkeeping's "resident" answer against the
        // shadow write states: the covering bytes must actually have been
        // published, not merely flagged done.
        #[cfg(feature = "checked")]
        if outcome.is_ok() {
            let len = self.bytes.len();
            self.bytes.shadow.assert_resident(range.start.min(len)..range.end.min(len));
        }
        outcome
    }

    /// Non-blocking availability probe for `range` (clamped to the file).
    /// A failed stream reports `false` — the range will never arrive.
    pub fn is_available(&self, range: Range<usize>) -> bool {
        let chunks = self.covering_chunks(&range);
        let st = self.state.lock();
        let available = st.failed.is_none() && chunks.clone().all(|i| st.done[i]);
        drop(st);
        // Same shadow cross-check as `wait_available`: an affirmative
        // availability answer promises published bytes.
        #[cfg(feature = "checked")]
        if available {
            let len = self.bytes.len();
            self.bytes.shadow.assert_resident(range.start.min(len)..range.end.min(len));
        }
        available
    }

    /// Whether every chunk has completed (the reader is finished).
    pub fn is_complete(&self) -> bool {
        let st = self.state.lock();
        st.completed == st.done.len() && st.failed.is_none()
    }

    /// Whether the reader failed.
    pub fn is_failed(&self) -> bool {
        self.state.lock().failed.is_some()
    }

    /// Block until the whole file is resident and return the shared bytes —
    /// the bridge back to [`FileBufferPool::read`] semantics.
    pub fn wait_all(&self) -> Result<FileBytes> {
        self.wait_available(0..self.bytes.len())?;
        Ok(Arc::clone(&self.bytes))
    }
}

/// One cold read that has started but may not have finished: the handle
/// the pool's in-flight map holds and hands to every consumer of the path.
///
/// The container is an implementation detail of the byte source below
/// the scans: a plain file streams chunk by chunk off disk, an `.rzb`
/// container streams its *compressed* bytes while [`ColdRead::ensure`]
/// decodes the blocks covering each requested range on the calling
/// thread. Either way consumers see the file's (decoded) bytes at file
/// coordinates and may read exactly the ranges they have ensured.
#[derive(Debug, Clone)]
pub enum ColdRead {
    /// A plain file filled by its reader thread (or, for warm hits,
    /// resident bytes wrapped as an already-complete buffer).
    Plain(Arc<ChunkedFileBuffer>),
    /// An `.rzb` container decoded block by block on demand.
    Rzb(Arc<RzbDecoder>),
}

impl ColdRead {
    /// Resident bytes (a warm hit) as an already-complete handle.
    fn resident(path: &Path, bytes: FileBytes, chunk_bytes: usize) -> ColdRead {
        ColdRead::Plain(Arc::new(ChunkedFileBuffer::completed(path, bytes, chunk_bytes)))
    }

    /// The buffer consumers read from, at file (decoded) coordinates.
    fn buffer(&self) -> &Arc<ChunkedFileBuffer> {
        match self {
            ColdRead::Plain(st) => st,
            ColdRead::Rzb(dec) => dec.decoded(),
        }
    }

    /// The file this read serves.
    pub fn path(&self) -> &Path {
        self.buffer().path()
    }

    /// The shared bytes. Reading a range is only sound once
    /// [`ColdRead::ensure`] returned `Ok` for it.
    pub fn bytes(&self) -> &FileBytes {
        self.buffer().bytes()
    }

    /// File length in bytes (decoded length for `.rzb`).
    pub fn len(&self) -> usize {
        self.buffer().len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Make `range` (clamped to the file) readable: wait on its covering
    /// chunks, or decode its covering blocks. Surfaces the read's I/O or
    /// decode failure; never returns `Ok` before the range is resident.
    pub fn ensure(&self, range: Range<usize>) -> Result<()> {
        match self {
            ColdRead::Plain(st) => st.wait_available(range),
            ColdRead::Rzb(dec) => dec.ensure_decoded(range),
        }
    }

    /// Make the whole file resident and return its shared bytes — the
    /// bridge back to [`FileBufferPool::read`] semantics.
    pub fn ensure_all(&self) -> Result<FileBytes> {
        match self {
            ColdRead::Plain(st) => st.wait_all(),
            ColdRead::Rzb(dec) => dec.wait_all(),
        }
    }

    /// Whether every byte is resident (and the read did not fail).
    pub fn is_complete(&self) -> bool {
        self.buffer().is_complete()
    }

    /// Whether the read failed terminally.
    pub fn is_failed(&self) -> bool {
        match self {
            ColdRead::Plain(st) => st.is_failed(),
            ColdRead::Rzb(dec) => dec.is_failed(),
        }
    }

    /// Bytes this read keeps allocated (both buffers of an `.rzb` read) —
    /// its share of the pool's resident-bytes gauge.
    fn held_bytes(&self) -> usize {
        match self {
            ColdRead::Plain(st) => st.len(),
            ColdRead::Rzb(dec) => dec.compressed_len() + dec.len(),
        }
    }

    /// Whether `self` and `other` are the same in-flight read.
    fn same(&self, other: &ColdRead) -> bool {
        Arc::ptr_eq(self.buffer(), other.buffer())
    }
}

/// The plan-description line for a cold read.
impl std::fmt::Display for ColdRead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColdRead::Plain(st) => write!(
                f,
                "cold stream: {} chunks x {} bytes",
                ChunkedFileBuffer::chunk_count(st.len(), st.chunk_bytes()),
                st.chunk_bytes()
            ),
            ColdRead::Rzb(dec) => write!(
                f,
                "cold rzb stream: {} blocks x {} bytes (compressed {} -> {} bytes)",
                dec.block_count(),
                dec.block_bytes(),
                dec.compressed_len(),
                dec.len()
            ),
        }
    }
}

/// One warm-map entry: the resident bytes plus the LRU clock stamp of
/// the last access.
#[derive(Debug)]
struct PoolEntry {
    bytes: FileBytes,
    last_used: u64,
}

/// A pool of file buffers: the stand-in for `mmap` + OS page cache.
///
/// The warm map is bounded by a byte budget (mirroring `ShredPool`'s
/// policy): when resident warm bytes exceed
/// [`FileBufferPool::set_budget_bytes`], least-recently-used entries are
/// evicted — never the entry just served — and each eviction is counted.
/// The default budget is unlimited, preserving the historical behavior
/// for pools that never set one. In-flight reads are transient and not
/// subject to the budget.
///
/// The two maps are separate leaf locks: every method takes them one
/// after the other, never nested (CONCURRENCY.md).
#[derive(Debug)]
pub struct FileBufferPool {
    buffers: Mutex<HashMap<PathBuf, PoolEntry>>,
    /// Cold reads in flight (or completed but not yet published —
    /// publication happens lazily when the next access observes
    /// completion). At most one per path.
    in_flight: Mutex<HashMap<PathBuf, ColdRead>>,
    /// Shared with each stream's reader thread, which credits it per
    /// completed chunk.
    bytes_from_disk: Arc<AtomicU64>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Warm-map byte budget; `u64::MAX` means unlimited (the default).
    budget_bytes: AtomicU64,
    /// LRU clock, bumped on every warm-map touch.
    clock: AtomicU64,
    /// Warm-map inserts, bumped under the warm-map lock by every insert.
    /// [`FileBufferPool::read_streaming`] reads it before its warm check
    /// and again under the in-flight lock, to learn whether a finished read
    /// may have moved from the in-flight map to the warm map between its
    /// two checks. `Relaxed` suffices: the two map locks order the bump
    /// before any in-flight removal that follows it.
    warm_inserts: AtomicU64,
    /// Warm-map entries evicted by the byte budget.
    evictions: AtomicU64,
    /// Engine-lifetime registry mirroring the pool counters and tracking
    /// the resident-buffer gauge. Set at construction
    /// ([`FileBufferPool::with_metrics`]); `None` means unobserved (the
    /// pool's own counters still work).
    metrics: Option<Arc<EngineMetrics>>,
}

impl Default for FileBufferPool {
    fn default() -> FileBufferPool {
        FileBufferPool {
            buffers: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
            bytes_from_disk: Arc::new(AtomicU64::new(0)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            budget_bytes: AtomicU64::new(u64::MAX),
            clock: AtomicU64::new(0),
            warm_inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            metrics: None,
        }
    }
}

impl FileBufferPool {
    /// An empty pool.
    pub fn new() -> FileBufferPool {
        FileBufferPool::default()
    }

    /// An empty pool recording into `metrics`: every hit/miss/disk-byte the
    /// pool counts is mirrored into the registry, reads started by this
    /// pool record chunk completions / waits / failures (and block
    /// decodes), and the `resident_bytes` gauge tracks the bytes held by
    /// the warm map plus in-flight reads (peak kept in
    /// `peak_resident_bytes`).
    pub fn with_metrics(metrics: Arc<EngineMetrics>) -> FileBufferPool {
        FileBufferPool { metrics: Some(metrics), ..FileBufferPool::default() }
    }

    /// One pool hit: the pool's own counter plus the registry mirror.
    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.file_hit();
        }
    }

    /// One pool miss: the pool's own counter plus the registry mirror.
    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.file_miss();
        }
    }

    /// Gauge bookkeeping: `n` buffer bytes entered a pool map.
    fn gauge_add(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.resident_add(n as u64);
        }
    }

    /// Gauge bookkeeping: `n` buffer bytes left a pool map.
    fn gauge_sub(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.resident_sub(n as u64);
        }
    }

    /// Next LRU clock stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Set the warm-map byte budget (`u64::MAX` = unlimited). Takes
    /// effect on the next insert; already-resident bytes are not
    /// retroactively evicted.
    pub fn set_budget_bytes(&self, bytes: u64) {
        self.budget_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Warm-map entries evicted by the byte budget since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Serve `path` from the warm map, stamping the LRU clock.
    fn warm_hit(&self, path: &Path) -> Option<FileBytes> {
        let mut buffers = self.buffers.lock();
        let entry = buffers.get_mut(path)?;
        entry.last_used = self.tick();
        let bytes = Arc::clone(&entry.bytes);
        drop(buffers);
        self.count_hit();
        Some(bytes)
    }

    /// The byte-budget LRU sweep: evict least-recently-used warm entries
    /// (never `keep`, the entry just served) until the warm map fits the
    /// budget, keeping the resident-byte gauge consistent per eviction.
    fn enforce_budget(&self, keep: &Path) {
        let budget = self.budget_bytes.load(Ordering::Relaxed);
        if budget == u64::MAX {
            return;
        }
        let mut buffers = self.buffers.lock();
        let mut total: u64 = buffers.values().map(|e| e.bytes.len() as u64).sum();
        while total > budget {
            let victim = buffers
                .iter()
                .filter(|(p, _)| p.as_path() != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(p, _)| p.clone());
            let Some(victim) = victim else { break };
            if let Some(old) = buffers.remove(&victim) {
                total -= old.bytes.len() as u64;
                self.gauge_sub(old.bytes.len());
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.file_evicted();
                }
            }
        }
    }

    /// Fetch the bytes of `path`, reading from disk on first access. The
    /// returned bytes are fully resident: a cold read in flight for
    /// `path` is joined (driven to completion) rather than duplicated, so
    /// one cold access costs exactly one disk read no matter how callers
    /// mix `read` and `read_streaming`.
    ///
    /// For an `.rzb` path the returned bytes are the *decoded* payload;
    /// `bytes_from_disk` charges the compressed file length — what was
    /// actually read — on both the blocking and streamed paths.
    pub fn read(&self, path: &Path) -> Result<FileBytes> {
        if let Some(buf) = self.warm_hit(path) {
            return Ok(buf);
        }
        if let Some(cold) = self.in_flight_for(path) {
            return match cold.ensure_all() {
                Ok(bytes) => {
                    self.count_hit();
                    Ok(self.publish(path, &cold, bytes))
                }
                Err(e) => {
                    self.forget_read(path, &cold);
                    Err(e)
                }
            };
        }
        if rzb::is_rzb_path(path) {
            return self.read_rzb_blocking(path);
        }
        let data = std::fs::read(path).map_err(|e| FormatError::io(path, e))?;
        self.publish_cold_read(path, data.len() as u64, data)
    }

    /// Blocking cold read of an `.rzb` container: read the compressed
    /// file, decompress every block (CRC-verified), and publish the
    /// decoded bytes under the container path. Charges the *compressed*
    /// length — the bytes that actually crossed the disk.
    fn read_rzb_blocking(&self, path: &Path) -> Result<FileBytes> {
        let data = std::fs::read(path).map_err(|e| FormatError::io(path, e))?;
        let index = rzb::parse_index(&data)?;
        let decoded = rzb::decompress_all(&data, &index, self.metrics.as_deref())?;
        self.publish_cold_read(path, data.len() as u64, decoded)
    }

    /// Shared tail of the blocking cold paths: insert-wins re-check,
    /// charge, publish, budget sweep.
    fn publish_cold_read(&self, path: &Path, disk_bytes: u64, data: Vec<u8>) -> Result<FileBytes> {
        // Two workers can both find the pool cold and read the same file;
        // re-check under the lock so the first insert wins, every caller
        // shares that buffer, and the losing read is discarded — served from
        // the pool, so counted as a hit, with no second disk read charged.
        // Counters stay consistent: one miss per charged read.
        let mut buffers = self.buffers.lock();
        if let Some(existing) = buffers.get_mut(path) {
            existing.last_used = self.tick();
            let bytes = Arc::clone(&existing.bytes);
            drop(buffers);
            self.count_hit();
            return Ok(bytes);
        }
        self.count_miss();
        self.bytes_from_disk.fetch_add(disk_bytes, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.disk_bytes(disk_bytes);
        }
        let buf = file_bytes(data);
        buffers.insert(
            path.to_path_buf(),
            PoolEntry { bytes: Arc::clone(&buf), last_used: self.tick() },
        );
        self.warm_inserts.fetch_add(1, Ordering::Relaxed);
        self.gauge_add(buf.len());
        drop(buffers);
        // A streamed read started while this one was on disk is now
        // unreachable behind the warm entry (`read_streaming` makes the
        // mirror-image check): forget it rather than pin its buffer.
        self.forget(&mut self.in_flight.lock(), path);
        self.enforce_budget(path);
        Ok(buf)
    }

    /// Start (or join) an overlapped cold read of `path`: returns
    /// immediately with the in-flight [`ColdRead`], whose bytes become
    /// resident in the background (plain files: a reader thread fills
    /// `chunk_bytes`-sized chunks) or on demand (`.rzb`: the compressed
    /// bytes stream in `chunk_bytes` chunks while [`ColdRead::ensure`]
    /// decodes the blocks a caller needs).
    ///
    /// - A warm path returns an already-complete handle (counted as a
    ///   hit, like `read`).
    /// - A read already in flight for `path` is shared (hit) — one disk
    ///   read, one buffer, identical counters to the blocking path.
    /// - Otherwise the read starts: one miss, charging the on-disk length
    ///   (compressed, for `.rzb`) as chunks complete. An `.rzb` index
    ///   peek (tail → footer → header) is uncharged: the stream charges
    ///   the whole container including those bytes.
    ///
    /// **Race contract with [`FileBufferPool::insert`]:** if `insert(path,
    /// …)` lands while a read of the same path is in flight, the *insert
    /// wins* — it is served to every subsequent `read`/`read_streaming`,
    /// and the completed read declines to publish over it. Holders of the
    /// in-flight handle keep their (internally consistent) bytes; the pool
    /// never exposes two live buffers for one path going forward.
    pub fn read_streaming(&self, path: &Path, chunk_bytes: usize) -> Result<ColdRead> {
        loop {
            let inserts = self.warm_inserts.load(Ordering::Relaxed);
            if let Some(buf) = self.warm_hit(path) {
                return Ok(ColdRead::resident(path, buf, chunk_bytes));
            }
            if let Some(cold) = self.in_flight_for(path) {
                if cold.is_complete() {
                    // Lazily publish to the warm pool and serve the winner.
                    self.count_hit();
                    let bytes = self.publish(path, &cold, Arc::clone(cold.bytes()));
                    return Ok(ColdRead::resident(path, bytes, chunk_bytes));
                }
                if !cold.is_failed() {
                    self.count_hit();
                    return Ok(cold);
                }
                // A failed read is terminal: the locked re-check below
                // forgets it and starts afresh.
            }
            // Open (and, for `.rzb`, read the block index) before taking
            // the map lock — blocking I/O must not stall unrelated paths —
            // then re-check under the lock, like `read` does for the warm
            // map: the first starter wins and later racers join its read.
            let source = FileChunkSource::open(path).map_err(|e| FormatError::io(path, e))?;
            let index = rzb::is_rzb_path(path).then(|| rzb::read_index(path)).transpose()?;
            let len = match &index {
                Some(index) => index.file_len(),
                None => {
                    std::fs::metadata(path).map_err(|e| FormatError::io(path, e))?.len() as usize
                }
            };
            let mut in_flight = self.in_flight.lock();
            if let Some(existing) = in_flight.get(path) {
                if !existing.is_failed() {
                    let joined = existing.clone();
                    drop(in_flight);
                    self.count_hit();
                    return Ok(joined);
                }
                self.forget(&mut in_flight, path);
            }
            if self.warm_inserts.load(Ordering::Relaxed) != inserts {
                // Something entered the warm map since the warm check. It
                // may be this path's read, finished and moved out of the
                // in-flight map between the two checks (`publish` inserts
                // the warm entry before it retires the in-flight one):
                // check again rather than read the file a second time.
                drop(in_flight);
                continue;
            }
            // The reader thread (spawned here, under the map lock) credits
            // `bytes_from_disk` per completed chunk: a successful read
            // charges exactly the on-disk length (identical to the blocking
            // path), a failed one only what it actually read.
            self.count_miss();
            let stream = ChunkedFileBuffer::spawn(
                path,
                source,
                len,
                chunk_bytes,
                Some(Arc::clone(&self.bytes_from_disk)),
                self.metrics.clone(),
            );
            let cold = match index {
                Some(index) => {
                    ColdRead::Rzb(RzbDecoder::new(path, index, stream, self.metrics.clone()))
                }
                None => ColdRead::Plain(stream),
            };
            in_flight.insert(path.to_path_buf(), cold.clone());
            self.gauge_add(cold.held_bytes());
            drop(in_flight);
            // A blocking read or `insert` that published after our warm
            // check has made this read unreachable; each side re-checks the
            // other's map after writing its own, so one of them forgets the
            // orphan.
            if self.buffers.lock().contains_key(path) {
                self.forget_read(path, &cold);
            }
            return Ok(cold);
        }
    }

    /// Account one consumer served from an in-flight read it already
    /// holds (the planner handing the read's bytes to a morsel pipeline).
    /// Equivalent to the pool hit the blocking path would have charged for
    /// the same access, keeping cold-streaming and cold-blocking counters
    /// identical.
    pub fn note_stream_hit(&self) {
        self.count_hit();
    }

    fn in_flight_for(&self, path: &Path) -> Option<ColdRead> {
        self.in_flight.lock().get(path).cloned()
    }

    /// Remove `path`'s in-flight read from the (locked) map and take its
    /// bytes off the gauge.
    fn forget(&self, in_flight: &mut HashMap<PathBuf, ColdRead>, path: &Path) {
        if let Some(dead) = in_flight.remove(path) {
            self.gauge_sub(dead.held_bytes());
        }
    }

    /// Move a completed read's bytes into the warm pool. The insert-wins
    /// rule: if a buffer is already registered for `path` (an `insert`
    /// raced the read), that buffer stays and is returned.
    fn publish(&self, path: &Path, cold: &ColdRead, bytes: FileBytes) -> FileBytes {
        let mut buffers = self.buffers.lock();
        let winner = match buffers.get_mut(path) {
            Some(existing) => {
                existing.last_used = self.tick();
                Arc::clone(&existing.bytes)
            }
            None => {
                buffers.insert(
                    path.to_path_buf(),
                    PoolEntry { bytes: Arc::clone(&bytes), last_used: self.tick() },
                );
                self.warm_inserts.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&bytes)
            }
        };
        drop(buffers);
        // The warm entry may be this read's own bytes, published by a
        // racing consumer that has not yet retired the in-flight entry:
        // those bytes moved too.
        let moved = Arc::ptr_eq(&winner, &bytes);
        let mut in_flight = self.in_flight.lock();
        if in_flight.get(path).is_some_and(|current| current.same(cold)) {
            in_flight.remove(path);
            // Gauge: bytes that became the warm buffer *move* between maps
            // (they stay resident); everything else the read held — an
            // `.rzb` read's compressed buffer, or bytes an insert
            // superseded — leaves.
            self.gauge_sub(cold.held_bytes() - if moved { cold.len() } else { 0 });
        }
        drop(in_flight);
        self.enforce_budget(path);
        winner
    }

    /// Forget `cold` if it is still `path`'s in-flight read: a failed read,
    /// so the next access retries from scratch, or one a warm entry has
    /// made unreachable.
    fn forget_read(&self, path: &Path, cold: &ColdRead) {
        let mut in_flight = self.in_flight.lock();
        if in_flight.get(path).is_some_and(|current| current.same(cold)) {
            self.forget(&mut in_flight, path);
        }
    }

    /// Register in-memory bytes for `path` without touching disk (tests and
    /// generated-on-the-fly datasets). Wins over any cold read of the same
    /// path currently in flight (see [`FileBufferPool::read_streaming`]).
    pub fn insert(&self, path: impl Into<PathBuf>, data: Vec<u8>) -> FileBytes {
        let path = path.into();
        let buf = file_bytes(data);
        let entry = PoolEntry { bytes: Arc::clone(&buf), last_used: self.tick() };
        let mut buffers = self.buffers.lock();
        if let Some(old) = buffers.insert(path.clone(), entry) {
            self.gauge_sub(old.bytes.len());
        }
        self.warm_inserts.fetch_add(1, Ordering::Relaxed);
        drop(buffers);
        self.gauge_add(buf.len());
        // Forget any in-flight read of the path: with the insert in the
        // warm map no access would ever reach it again, so keeping it would
        // pin the whole in-flight buffer for the pool's lifetime. Its
        // holders keep their bytes; its reader thread finishes into the
        // dropped buffer.
        self.forget(&mut self.in_flight.lock(), &path);
        self.enforce_budget(&path);
        buf
    }

    /// Drop one file's buffer (next read is cold). An in-flight read of
    /// the path is forgotten too (its holders keep their bytes).
    pub fn evict(&self, path: &Path) {
        if let Some(old) = self.buffers.lock().remove(path) {
            self.gauge_sub(old.bytes.len());
        }
        self.forget(&mut self.in_flight.lock(), path);
    }

    /// Drop everything: the "cold caches" switch for experiments.
    pub fn evict_all(&self) {
        let dropped: usize = self.buffers.lock().drain().map(|(_, e)| e.bytes.len()).sum();
        self.gauge_sub(dropped);
        let dropped: usize = self.in_flight.lock().drain().map(|(_, c)| c.held_bytes()).sum();
        self.gauge_sub(dropped);
    }

    /// Whether `path` is currently buffered (i.e. a read would be warm).
    /// A completed-but-unpublished read counts as warm — and is published
    /// on observation, so the answer stays truthful afterwards too.
    pub fn is_warm(&self, path: &Path) -> bool {
        if self.buffers.lock().contains_key(path) {
            return true;
        }
        match self.in_flight_for(path) {
            Some(cold) if cold.is_complete() => {
                self.publish(path, &cold, Arc::clone(cold.bytes()));
                true
            }
            _ => false,
        }
    }

    /// Total bytes read from disk since construction.
    pub fn bytes_from_disk(&self) -> u64 {
        self.bytes_from_disk.load(Ordering::Relaxed)
    }

    /// (pool hits, pool misses) since construction.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, content: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("raw_fbp_{}_{name}", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(content).unwrap();
        path
    }

    #[test]
    fn read_caches_and_counts() {
        let path = temp_file("a.csv", b"1,2,3\n");
        let pool = FileBufferPool::new();
        let b1 = pool.read(&path).unwrap();
        assert_eq!(&b1[..], b"1,2,3\n");
        assert_eq!(pool.bytes_from_disk(), 6);
        assert!(pool.is_warm(&path));

        let b2 = pool.read(&path).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2), "second read shares the buffer");
        assert_eq!(pool.bytes_from_disk(), 6, "no second disk read");
        assert_eq!(pool.hit_miss(), (1, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evict_makes_cold() {
        let path = temp_file("b.csv", b"xy");
        let pool = FileBufferPool::new();
        pool.read(&path).unwrap();
        pool.evict(&path);
        assert!(!pool.is_warm(&path));
        pool.read(&path).unwrap();
        assert_eq!(pool.bytes_from_disk(), 4, "read twice from disk");
        pool.evict_all();
        assert!(!pool.is_warm(&path));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn insert_without_disk() {
        let pool = FileBufferPool::new();
        pool.insert("/virtual/file.bin", vec![1, 2, 3]);
        let b = pool.read(Path::new("/virtual/file.bin")).unwrap();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(pool.bytes_from_disk(), 0);
    }

    #[test]
    fn concurrent_cold_reads_share_one_buffer_and_one_disk_read() {
        let content = vec![7u8; 4096];
        let path = temp_file("race.bin", &content);
        let pool = FileBufferPool::new();
        let barrier = std::sync::Barrier::new(8);
        let buffers: Vec<FileBytes> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait(); // maximize cold-read overlap
                        pool.read(&path).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for b in &buffers {
            assert_eq!(&b[..], &content[..]);
            assert!(Arc::ptr_eq(&buffers[0], b), "all workers share the winning buffer");
        }
        assert_eq!(pool.bytes_from_disk(), content.len() as u64, "exactly one disk read counted");
        let (hits, misses) = pool.hit_miss();
        assert_eq!(misses, 1, "one miss per charged disk read");
        assert_eq!(hits + misses, 8, "every reader accounted for");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors_with_path() {
        let pool = FileBufferPool::new();
        let err = pool.read(Path::new("/definitely/not/here")).unwrap_err();
        assert!(err.to_string().contains("/definitely/not/here"));
    }

    // -- streaming ----------------------------------------------------------

    #[test]
    fn chunk_grid_tiles_the_file() {
        for (len, chunk) in [(0usize, 16usize), (1, 16), (16, 16), (17, 16), (100, 7)] {
            let n = ChunkedFileBuffer::chunk_count(len, chunk);
            let mut covered = 0usize;
            for i in 0..n {
                let span = ChunkedFileBuffer::chunk_span(len, chunk, i);
                assert_eq!(span.start, covered, "chunks contiguous ({len},{chunk})");
                assert!(!span.is_empty(), "no empty chunks ({len},{chunk})");
                covered = span.end;
            }
            assert_eq!(covered, len, "chunks cover the file ({len},{chunk})");
        }
    }

    #[test]
    fn streaming_read_matches_disk_and_counts_once() {
        let content: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let path = temp_file("stream.bin", &content);
        let pool = FileBufferPool::new();
        let stream = pool.read_streaming(&path, 4096).unwrap();
        assert_eq!(stream.len(), content.len());
        // Joining via `read` waits for completion and shares the buffer.
        let bytes = pool.read(&path).unwrap();
        assert_eq!(&bytes[..], &content[..]);
        assert!(Arc::ptr_eq(&bytes, stream.bytes()), "read joins the stream's buffer");
        assert_eq!(pool.bytes_from_disk(), content.len() as u64, "one disk read");
        assert_eq!(pool.hit_miss(), (1, 1), "stream = miss, join = hit");
        assert!(pool.is_warm(&path), "completed stream published to the warm pool");
        // A second streaming read is warm: complete immediately, a hit.
        let again = pool.read_streaming(&path, 4096).unwrap();
        assert!(again.is_complete());
        assert_eq!(pool.hit_miss(), (2, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wait_available_serves_partial_ranges_in_flight() {
        let buf = ChunkedFileBuffer::new_manual("/virtual/wa", 100, 10);
        assert!(!buf.is_available(0..1));
        buf.complete_chunk(0);
        buf.complete_chunk(1);
        assert!(buf.is_available(0..20));
        assert!(buf.is_available(5..15));
        assert!(!buf.is_available(15..25), "chunk 2 incomplete");
        buf.wait_available(0..20).unwrap();
        // Ranges past EOF clamp to the file.
        buf.wait_available(0..0).unwrap();
        for i in 2..10 {
            buf.complete_chunk(i);
        }
        assert!(buf.is_complete());
        buf.wait_available(0..1000).unwrap();
        assert_eq!(&buf.wait_all().unwrap()[..], &[0u8; 100][..]);
    }

    /// The fault-injection seam: a source failing mid-file surfaces
    /// `FormatError::Io` to every waiter — no hang, no partial success.
    struct FailingSource {
        fail_at: usize,
        served: usize,
    }

    impl ChunkSource for FailingSource {
        fn read_chunk(&mut self, _offset: u64, dst: &mut [u8]) -> std::io::Result<()> {
            if self.served == self.fail_at {
                return Err(std::io::Error::other("injected fault"));
            }
            self.served += 1;
            dst.fill(b'x');
            Ok(())
        }
    }

    #[test]
    fn reader_failure_surfaces_to_every_waiter() {
        let source = FailingSource { fail_at: 2, served: 0 };
        let buf = ChunkedFileBuffer::spawn("/virtual/fail.bin", source, 100, 10, None, None);
        // Waiters on ranges past the failure point all error; none hangs.
        let errors: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let buf = &buf;
                    s.spawn(move || {
                        buf.wait_available(30 * i..30 * i + 30).unwrap_err().to_string()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in &errors {
            assert!(e.contains("injected fault"), "waiter sees the I/O failure: {e}");
            assert!(e.contains("/virtual/fail.bin"), "failure names the file: {e}");
        }
        assert!(buf.is_failed());
        assert!(!buf.is_available(0..100), "failed stream never reports availability");
        // Completed chunks before the failure remain readable facts, but
        // wait_all refuses to bless the buffer.
        assert!(buf.wait_all().is_err());
    }

    #[test]
    fn insert_during_streaming_read_wins_for_future_reads() {
        let content = vec![1u8; 50_000];
        let path = temp_file("insert_race.bin", &content);
        let pool = FileBufferPool::new();

        let stream = pool.read_streaming(&path, 1024).unwrap();
        // An insert lands while the stream is (possibly) still in flight.
        let inserted = pool.insert(path.clone(), vec![9u8; 8]);
        // Streaming holders keep their internally-consistent buffer…
        let streamed = stream.ensure_all().unwrap();
        assert_eq!(&streamed[..], &content[..]);
        // …but the pool serves the insert from now on: the completed stream
        // must not overwrite it (re-checked at publish time).
        let served = pool.read(&path).unwrap();
        assert!(Arc::ptr_eq(&served, &inserted), "insert wins over the completed stream");
        assert_eq!(&served[..], &[9u8; 8][..]);
        let served_again = pool.read_streaming(&path, 1024).unwrap();
        assert!(Arc::ptr_eq(served_again.bytes(), &inserted));
        // The insert also evicted the orphaned stream entry — nothing pins
        // the superseded in-flight buffer in the pool.
        assert!(pool.in_flight.lock().is_empty(), "no orphaned stream retained");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn threaded_insert_stream_race_leaves_one_winner() {
        // Regression companion to
        // `concurrent_cold_reads_share_one_buffer_and_one_disk_read`: mixed
        // insert/stream/read traffic on one path must converge on a single
        // buffer for all future reads.
        let content = vec![3u8; 100_000];
        let path = temp_file("race2.bin", &content);
        let pool = FileBufferPool::new();
        let barrier = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            let (p, path, barrier) = (&pool, &path, &barrier);
            s.spawn(move || {
                barrier.wait();
                let st = p.read_streaming(path, 512).unwrap();
                st.ensure_all().unwrap();
            });
            s.spawn(move || {
                barrier.wait();
                p.insert(path.clone(), vec![5u8; 16]);
            });
            s.spawn(move || {
                barrier.wait();
                let _ = p.read(path);
            });
        });
        // Whatever interleaving happened, the pool now has exactly one
        // buffer and every reader shares it.
        let a = pool.read(&path).unwrap();
        let b = pool.read(&path).unwrap();
        let c = pool.read_streaming(&path, 512).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, c.bytes()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_stream_charges_only_bytes_actually_read() {
        // Per-chunk charging: a stream failing at chunk 2 of a 100-byte
        // file (10-byte chunks) credits exactly the 20 completed bytes —
        // no whole-file overcount, and a later successful read charges its
        // own full length on top.
        let counter = Arc::new(AtomicU64::new(0));
        let buf = ChunkedFileBuffer::spawn(
            "/virtual/partial.bin",
            FailingSource { fail_at: 2, served: 0 },
            100,
            10,
            Some(Arc::clone(&counter)),
            None,
        );
        assert!(buf.wait_all().is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 20, "only completed chunks charged");
    }

    #[test]
    fn completed_stream_publishes_lazily_and_is_warm_tells_the_truth() {
        let content = vec![4u8; 10_000];
        let path = temp_file("lazypub.bin", &content);
        let pool = FileBufferPool::new();
        let stream = pool.read_streaming(&path, 512).unwrap();
        // Drain the stream without ever calling `read` (the gated-run
        // shape: every consumer goes through the in-flight buffer).
        stream.ensure_all().unwrap();
        // is_warm observes completion, publishes, and answers truthfully.
        assert!(pool.is_warm(&path), "completed stream counts as warm");
        let served = pool.read(&path).unwrap();
        assert!(Arc::ptr_eq(&served, stream.bytes()), "published buffer is the stream's");
        assert_eq!(pool.bytes_from_disk(), content.len() as u64, "one disk read");
        std::fs::remove_file(&path).ok();
    }

    /// Two consumers publish one completed read: the first has moved its
    /// bytes into the warm map but not yet retired the in-flight entry when
    /// the second retires it. The second must count the bytes as moved
    /// (they are this read's), not as superseded by an insert.
    #[test]
    fn racing_publishes_of_one_read_keep_its_bytes_on_the_gauge() {
        let content = vec![5u8; 4096];
        let path = temp_file("racepub.bin", &content);
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        let stream = pool.read_streaming(&path, 512).unwrap();
        stream.ensure_all().unwrap();
        // The first publisher's half: the read's bytes are warm.
        let entry = PoolEntry { bytes: Arc::clone(stream.bytes()), last_used: pool.tick() };
        pool.buffers.lock().insert(path.clone(), entry);
        // The second publisher retires the in-flight read.
        let served = pool.publish(&path, &stream, Arc::clone(stream.bytes()));
        assert!(Arc::ptr_eq(&served, stream.bytes()));
        assert!(pool.in_flight.lock().is_empty());
        assert_gauge_conserved(&pool, &metrics);
        std::fs::remove_file(&path).ok();
    }

    fn metric(m: &EngineMetrics, name: &str) -> u64 {
        m.snapshot().into_iter().find(|(n, _)| *n == name).unwrap().1
    }

    /// Gauge conservation: `resident_bytes` is exactly the warm map's
    /// bytes plus the bytes every in-flight read holds.
    fn assert_gauge_conserved(pool: &FileBufferPool, m: &EngineMetrics) {
        let warm: usize = pool.buffers.lock().values().map(|e| e.bytes.len()).sum();
        let in_flight: usize = pool.in_flight.lock().values().map(ColdRead::held_bytes).sum();
        assert_eq!(
            metric(m, "resident_bytes"),
            (warm + in_flight) as u64,
            "resident gauge = warm bytes ({warm}) + in-flight bytes ({in_flight})"
        );
    }

    #[test]
    fn observed_pool_mirrors_counters_and_tracks_residency() {
        let content: Vec<u8> = (0..50_000u32).map(|i| (i % 253) as u8).collect();
        let path = temp_file("observed.bin", &content);
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));

        let stream = pool.read_streaming(&path, 4096).unwrap();
        assert_gauge_conserved(&pool, &metrics);
        stream.ensure_all().unwrap();
        let joined = pool.read(&path).unwrap();
        assert_eq!(&joined[..], &content[..]);

        // Registry mirrors the pool's own counters exactly.
        let (hits, misses) = pool.hit_miss();
        assert_eq!(metric(&metrics, "file_pool_hits"), hits);
        assert_eq!(metric(&metrics, "file_pool_misses"), misses);
        assert_eq!(metric(&metrics, "bytes_from_disk"), pool.bytes_from_disk());
        assert_eq!(metric(&metrics, "bytes_from_disk"), content.len() as u64);
        assert_eq!(
            metric(&metrics, "chunks_completed"),
            ChunkedFileBuffer::chunk_count(content.len(), 4096) as u64
        );

        // The published buffer is resident (once — publish moves it from
        // the stream map to the warm map without double counting).
        assert_eq!(metric(&metrics, "resident_bytes"), content.len() as u64);
        assert_eq!(metric(&metrics, "peak_resident_bytes"), content.len() as u64);
        assert_gauge_conserved(&pool, &metrics);
        pool.evict_all();
        assert_eq!(metric(&metrics, "resident_bytes"), 0, "eviction empties the gauge");
        assert_eq!(metric(&metrics, "peak_resident_bytes"), content.len() as u64);
        assert_gauge_conserved(&pool, &metrics);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn observed_wait_charges_only_blocking_waits() {
        let metrics = Arc::new(EngineMetrics::new());
        let mut buf = ChunkedFileBuffer::new_manual("/virtual/waits", 100, 10);
        buf.metrics = Some(Arc::clone(&metrics));
        let buf = Arc::new(buf);
        buf.complete_chunk(0);
        // Already-resident range: no wait charged.
        buf.wait_available(0..10).unwrap();
        assert_eq!(metric(&metrics, "chunk_waits"), 0);
        // A genuinely blocking wait is charged once, with its duration.
        std::thread::scope(|s| {
            let b = Arc::clone(&buf);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                b.complete_chunk(1);
            });
            buf.wait_available(10..20).unwrap();
        });
        assert_eq!(metric(&metrics, "chunk_waits"), 1);
        assert!(metric(&metrics, "chunk_wait_nanos") > 0);
    }

    #[test]
    fn observed_failed_stream_records_failure_and_partial_bytes() {
        let metrics = Arc::new(EngineMetrics::new());
        let buf = ChunkedFileBuffer::spawn(
            "/virtual/obsfail.bin",
            FailingSource { fail_at: 3, served: 0 },
            100,
            10,
            None,
            Some(Arc::clone(&metrics)),
        );
        assert!(buf.wait_all().is_err());
        assert_eq!(metric(&metrics, "stream_failures"), 1);
        assert_eq!(metric(&metrics, "stream_failed_bytes"), 30, "three 10-byte chunks completed");
        assert_eq!(
            metric(&metrics, "bytes_from_disk"),
            30,
            "failed stream charges the prefix only"
        );
    }

    #[test]
    fn insert_wins_race_keeps_gauge_consistent() {
        let content = vec![2u8; 30_000];
        let path = temp_file("gauge_race.bin", &content);
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        let stream = pool.read_streaming(&path, 1024).unwrap();
        // Insert during the stream: the stream's bytes are superseded and
        // leave the gauge; only the insert's bytes stay resident.
        pool.insert(path.clone(), vec![9u8; 8]);
        assert_gauge_conserved(&pool, &metrics);
        stream.ensure_all().unwrap();
        let _ = pool.read(&path).unwrap(); // observes completion, must not re-add
        assert_eq!(metric(&metrics, "resident_bytes"), 8);
        assert_gauge_conserved(&pool, &metrics);
        pool.evict(&path);
        assert_eq!(metric(&metrics, "resident_bytes"), 0);
        assert_gauge_conserved(&pool, &metrics);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_stream_is_forgotten_and_read_retries() {
        // Pre-seed a failing stream under a real path, then check `read`
        // reports the failure once and succeeds on retry.
        let content = vec![8u8; 4096];
        let path = temp_file("retry.bin", &content);
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        let failing = |pool: &FileBufferPool| {
            let source = FailingSource { fail_at: 0, served: 0 };
            let st = ChunkedFileBuffer::spawn(&path, source, 4096, 1024, None, None);
            assert!(st.wait_all().is_err(), "the seeded read has failed");
            // Charge the gauge the way `read_streaming` does on a start.
            pool.gauge_add(st.len());
            pool.in_flight.lock().insert(path.clone(), ColdRead::Plain(st));
        };
        failing(&pool);
        let err = pool.read(&path).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_gauge_conserved(&pool, &metrics);
        // The failed stream was dropped; a fresh read succeeds from disk.
        let ok = pool.read(&path).unwrap();
        assert_eq!(&ok[..], &content[..]);
        assert_gauge_conserved(&pool, &metrics);
        // A streaming retry over a failed read also starts afresh, and the
        // dead read's bytes leave the gauge.
        pool.evict(&path);
        failing(&pool);
        let cold = pool.read_streaming(&path, 1024).unwrap();
        assert_gauge_conserved(&pool, &metrics);
        assert_eq!(&cold.ensure_all().unwrap()[..], &content[..]);
        assert!(pool.is_warm(&path));
        assert_gauge_conserved(&pool, &metrics);
        std::fs::remove_file(&path).ok();
    }

    // -- byte-budget LRU ----------------------------------------------------

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        pool.set_budget_bytes(250);
        let a = temp_file("lru_a.bin", &[1u8; 100]);
        let b = temp_file("lru_b.bin", &[2u8; 100]);
        let c = temp_file("lru_c.bin", &[3u8; 100]);
        pool.read(&a).unwrap();
        pool.read(&b).unwrap();
        pool.read(&a).unwrap(); // touch a: b is now least recently used
        pool.read(&c).unwrap(); // 300 > 250: evict b, not a
        assert!(pool.is_warm(&a), "recently-used entry survives");
        assert!(!pool.is_warm(&b), "LRU entry evicted");
        assert!(pool.is_warm(&c), "the entry being read is never evicted");
        assert_eq!(pool.evictions(), 1);
        assert_eq!(metric(&metrics, "file_pool_evictions"), 1);
        assert_eq!(metric(&metrics, "resident_bytes"), 200, "gauge tracks evictions");
        assert_gauge_conserved(&pool, &metrics);
        for p in [&a, &b, &c] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn oversized_read_keeps_itself_and_evicts_the_rest() {
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        pool.set_budget_bytes(100);
        let small = temp_file("lru_small.bin", &[1u8; 50]);
        let big = temp_file("lru_big.bin", &[2u8; 500]);
        pool.read(&small).unwrap();
        // The big read busts the budget on its own: everything else goes,
        // but the buffer just read stays warm (its caller holds it anyway).
        let bytes = pool.read(&big).unwrap();
        assert_eq!(bytes.len(), 500);
        assert!(!pool.is_warm(&small));
        assert!(pool.is_warm(&big), "the entry being read is immune");
        assert_eq!(metric(&metrics, "resident_bytes"), 500);
        pool.evict_all();
        assert_eq!(metric(&metrics, "resident_bytes"), 0, "gauge empty after evict_all");
        assert_gauge_conserved(&pool, &metrics);
        for p in [&small, &big] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn unlimited_budget_never_evicts() {
        let pool = FileBufferPool::new(); // default: unlimited
        let paths: Vec<PathBuf> =
            (0..4).map(|i| temp_file(&format!("lru_u{i}.bin"), &vec![i as u8; 10_000])).collect();
        for p in &paths {
            pool.read(p).unwrap();
        }
        for p in &paths {
            assert!(pool.is_warm(p));
        }
        assert_eq!(pool.evictions(), 0);
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
    }

    // -- rzb routing ---------------------------------------------------------

    #[test]
    fn rzb_read_decompresses_and_charges_compressed_bytes() {
        let src: Vec<u8> = (0..50_000).map(|i| (i % 13) as u8).collect();
        let dir = std::env::temp_dir();
        let plain = dir.join(format!("raw_fbp_{}_rzb_plain.bin", std::process::id()));
        let packed = dir.join(format!("raw_fbp_{}_rzb.bin.rzb", std::process::id()));
        std::fs::write(&plain, &src).unwrap();
        crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        let comp_len = std::fs::metadata(&packed).unwrap().len();
        assert!(comp_len < src.len() as u64, "fixture compresses");

        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        // Blocking read: transparently decompressed, charged at the
        // compressed length.
        let bytes = pool.read(&packed).unwrap();
        assert_eq!(&bytes[..], &src[..]);
        assert_eq!(pool.bytes_from_disk(), comp_len);
        assert_eq!(metric(&metrics, "rzb_blocks_decoded"), 50_000u64.div_ceil(4096));
        assert!(pool.is_warm(&packed));
        // Warm re-read: shared buffer, no disk, no decode.
        let again = pool.read(&packed).unwrap();
        assert!(Arc::ptr_eq(&bytes, &again));
        assert_eq!(pool.bytes_from_disk(), comp_len);
        assert_eq!(pool.hit_miss(), (1, 1));
        assert_gauge_conserved(&pool, &metrics);
        for p in [&plain, &packed] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn rzb_streaming_read_decodes_through_the_decoder() {
        let src: Vec<u8> = (0..60_000).map(|i| ((i * 7) % 31) as u8).collect();
        let dir = std::env::temp_dir();
        let plain = dir.join(format!("raw_fbp_{}_rzbs_plain.bin", std::process::id()));
        let packed = dir.join(format!("raw_fbp_{}_rzbs.bin.rzb", std::process::id()));
        std::fs::write(&plain, &src).unwrap();
        crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        let comp_len = std::fs::metadata(&packed).unwrap().len();

        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        let cold = pool.read_streaming(&packed, 2048).unwrap();
        let ColdRead::Rzb(dec) = &cold else { panic!("an .rzb path streams through the decoder") };
        assert_eq!(cold.len(), src.len());
        assert_gauge_conserved(&pool, &metrics);
        // Decode a middle range only: exactly its covering block publishes.
        cold.ensure(10_000..12_000).unwrap();
        assert!(dec.decoded().is_available(10_000..12_000));
        assert_eq!(dec.blocks_published(), 1);
        // A second streaming read joins the in-flight decoder (a hit).
        let joined = pool.read_streaming(&packed, 2048).unwrap();
        assert!(Arc::ptr_eq(joined.bytes(), cold.bytes()), "one in-flight read per path");
        // Joining via blocking `read` drives the rest and publishes warm.
        let bytes = pool.read(&packed).unwrap();
        assert_eq!(&bytes[..], &src[..]);
        assert_eq!(pool.bytes_from_disk(), comp_len, "streamed rzb charges compressed length");
        assert_eq!(pool.hit_miss(), (2, 1));
        assert!(pool.is_warm(&packed));
        // Warm rzb streaming read: an already-complete handle.
        let warm = pool.read_streaming(&packed, 2048).unwrap();
        assert!(warm.is_complete());
        assert_eq!(metric(&metrics, "resident_bytes"), src.len() as u64, "compressed bytes freed");
        assert_gauge_conserved(&pool, &metrics);
        for p in [&plain, &packed] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn corrupt_rzb_read_errors_and_retries_cleanly() {
        let src = vec![5u8; 20_000];
        let dir = std::env::temp_dir();
        let plain = dir.join(format!("raw_fbp_{}_rzbc_plain.bin", std::process::id()));
        let packed = dir.join(format!("raw_fbp_{}_rzbc.bin.rzb", std::process::id()));
        std::fs::write(&plain, &src).unwrap();
        crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        let mut bad = std::fs::read(&packed).unwrap();
        let len = bad.len();
        bad[len - 30] ^= 0xFF; // inside the footer: index parsing must fail
        std::fs::write(&packed, &bad).unwrap();

        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        assert!(pool.read(&packed).is_err(), "corrupt container errors");
        assert!(pool.read_streaming(&packed, 4096).is_err(), "streamed index peek errors too");
        assert!(!pool.is_warm(&packed), "nothing cached from a failed read");
        assert_gauge_conserved(&pool, &metrics);
        // Restore and retry: clean read.
        let index = crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        assert_eq!(&pool.read(&packed).unwrap()[..], &src[..]);
        assert_gauge_conserved(&pool, &metrics);

        // A corrupt block payload parses fine but fails its decode: the
        // streamed read fails, is forgotten, and a retry starts afresh.
        pool.evict(&packed);
        let mut bad = std::fs::read(&packed).unwrap();
        bad[index.comp_range(1).start + 1] ^= 0x55;
        std::fs::write(&packed, &bad).unwrap();
        let cold = pool.read_streaming(&packed, 1024).unwrap();
        assert_gauge_conserved(&pool, &metrics);
        cold.ensure(0..4096).unwrap();
        assert!(cold.ensure(4096..8192).is_err(), "corrupt block fails its range");
        assert!(pool.read(&packed).is_err(), "joining a failed decode errors");
        assert!(pool.in_flight.lock().is_empty(), "the failed decode is forgotten");
        assert_gauge_conserved(&pool, &metrics);
        crate::rzb::write_file(&plain, &packed, 4096).unwrap();
        let retry = pool.read_streaming(&packed, 1024).unwrap();
        assert_eq!(&retry.ensure_all().unwrap()[..], &src[..]);
        assert!(pool.is_warm(&packed));
        assert_gauge_conserved(&pool, &metrics);
        for p in [&plain, &packed] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn blocking_read_racing_a_stream_leaves_no_orphan() {
        // A blocking read that found the pool cold publishes while a
        // stream of the same path is in flight: the stream is unreachable
        // behind the warm entry and must not stay pinned in the pool.
        let content = vec![6u8; 20_000];
        let path = temp_file("orphan.bin", &content);
        let metrics = Arc::new(EngineMetrics::new());
        let pool = FileBufferPool::with_metrics(Arc::clone(&metrics));
        let stream = pool.read_streaming(&path, 1024).unwrap();
        let warm = pool.publish_cold_read(&path, content.len() as u64, content.clone()).unwrap();
        assert!(pool.in_flight.lock().is_empty(), "no orphaned in-flight read");
        assert_gauge_conserved(&pool, &metrics);
        assert_eq!(&stream.ensure_all().unwrap()[..], &warm[..], "holders keep their bytes");
        std::fs::remove_file(&path).ok();
    }
}

/// Seeded-violation tests for the `checked` shadow state machine: each
/// test plants a deliberate protocol violation and pins that the shadow
/// aborts — proving the sanitizer is live, not decorative. The one
/// positive test pins that the legitimate write→publish→read flow runs
/// clean under the shadow (the equivalence suites extend that proof to
/// the full engine).
#[cfg(all(test, feature = "checked"))]
mod checked_tests {
    use super::*;

    #[test]
    fn legitimate_write_publish_read_flow_is_clean() {
        let buf = ChunkedFileBuffer::new_manual("shadow-ok", 100, 32);
        for i in 0..ChunkedFileBuffer::chunk_count(100, 32) {
            let span = ChunkedFileBuffer::chunk_span(100, 32, i);
            // SAFETY: this test thread is the buffer's single writer and
            // chunk `i` has not been published yet.
            unsafe { buf.bytes().chunk_mut(span.clone()) }.fill(7);
            buf.complete_chunk(i);
        }
        buf.wait_available(0..100).unwrap();
        assert!(buf.is_available(10..90));
        assert_eq!(buf.wait_all().unwrap()[50], 7);
    }

    #[test]
    #[should_panic(expected = "checked: write")]
    fn seeded_write_after_publish_aborts() {
        let buf = ChunkedFileBuffer::new_manual("shadow-wap", 64, 32);
        let span = ChunkedFileBuffer::chunk_span(64, 32, 0);
        // SAFETY: single writer, chunk unpublished — the legitimate write.
        unsafe { buf.bytes().chunk_mut(span.clone()) }.fill(1);
        buf.complete_chunk(0);
        // SAFETY: deliberate protocol violation (writing a published
        // chunk); the shadow must abort inside `chunk_mut` before any
        // aliasable slice is produced.
        let _ = unsafe { buf.bytes().chunk_mut(span) };
    }

    #[test]
    #[should_panic(expected = "checked: write")]
    fn seeded_overlapping_writes_abort() {
        let buf = ChunkedFileBuffer::new_manual("shadow-overlap", 64, 32);
        // SAFETY: single writer, chunk unpublished.
        let _ = unsafe { buf.bytes().chunk_mut(0..32) };
        // SAFETY: deliberate violation (overlapping in-flight write); the
        // shadow aborts before the aliased slice exists.
        let _ = unsafe { buf.bytes().chunk_mut(16..48) };
    }

    #[test]
    #[should_panic(expected = "second writer")]
    fn seeded_second_writer_thread_aborts() {
        let buf = Arc::new(ChunkedFileBuffer::new_manual("shadow-2w", 64, 32));
        // SAFETY: this thread is the single writer so far.
        let _ = unsafe { buf.bytes().chunk_mut(0..32) };
        let other = Arc::clone(&buf);
        let err = std::thread::spawn(move || {
            // SAFETY: deliberate violation (a second writer thread on a
            // disjoint range); the shadow aborts before the slice exists.
            let _ = unsafe { other.bytes().chunk_mut(32..64) };
        })
        .join()
        .expect_err("second writer must abort");
        std::panic::resume_unwind(err);
    }

    #[test]
    #[should_panic(expected = "unpublished")]
    fn seeded_blank_bytes_claimed_resident_abort() {
        // Bookkeeping says every chunk is done, but nothing was ever
        // written or published: a blank buffer handed to the warm-wrap
        // constructor. The gated read's shadow cross-check must abort.
        let blank: FileBytes = Arc::new(FileBuf::zeroed(64));
        let buf = ChunkedFileBuffer::completed("shadow-blank", blank, 32);
        let _ = buf.wait_available(0..64);
    }
}
