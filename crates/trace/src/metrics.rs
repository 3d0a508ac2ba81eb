//! The engine-lifetime metrics registry.
//!
//! One [`EngineMetrics`] lives as long as the engine and is shared
//! (`Arc`) with every subsystem that records into it: the file-buffer
//! pool mirrors its hit/miss/disk traffic, chunked streams record
//! completion and consumer-wait traffic, and the executor records morsel
//! dispatch. All fields are relaxed atomics — recording never takes a
//! lock, and reads are monotonic snapshots (exact once the engine is
//! quiescent, e.g. between queries).
//!
//! ## Why `Relaxed` is safe here
//!
//! Every operation on these counters is a `fetch_add`/`fetch_max`/`load`
//! on a *single* atomic: no counter update is ever used to publish other
//! memory, and no reader dereferences anything based on a counter value —
//! so there is no happens-before edge to establish and nothing a stronger
//! ordering would protect. Atomic read-modify-writes are indivisible at
//! every ordering, so `Relaxed` increments are never lost; the only
//! latitude is that a snapshot taken mid-run may observe counter A's
//! increment before counter B's from the same event. Quiescent reads
//! (between queries, at report time) see exact totals because thread
//! join/termination provides the synchronization (see CONCURRENCY.md).
//! This is the project-standard pattern the `raw-analyze` A1/L1 rules
//! enforce: `Relaxed` for independent counters, mutex/condvar edges (not
//! `SeqCst`) where real publication is needed.
//!
//! ## Counter contract (what is charged, and when)
//!
//! | counter | charged when |
//! |---|---|
//! | `file_pool_hits` / `file_pool_misses` | every pool access; one miss per charged disk read, everything else a hit (identical across blocking/streamed cold paths) |
//! | `bytes_from_disk` | blocking read: whole file at read time; streamed read: per completed chunk (a failed stream charges only what it read) |
//! | `chunks_completed` | each chunk the streaming reader finishes |
//! | `chunk_waits` / `chunk_wait_nanos` | each time a consumer actually blocks waiting for chunk availability, and for how long (scheduling-dependent: do not assert exact values) |
//! | `stream_failures` / `stream_failed_bytes` | a streaming reader hits a terminal I/O error; the bytes are the partial prefix it had completed |
//! | `template_hits` / `template_misses` | access-path template cache lookups (a miss is a compilation) |
//! | `shred_hits` / `shred_misses` | shred-pool lookups during planning |
//! | `morsels_dispatched` | each morsel a parallel run hands to the worker pool |
//! | `morsels_failed` | each morsel whose gate or pipeline surfaced an error |
//! | `queries` / `parallel_queries` | each query executed / each that took the morsel-parallel path |
//! | `resident_bytes` | gauge: bytes currently held by warm buffers + in-flight streams |
//! | `peak_resident_bytes` | high-water mark of `resident_bytes` |
//! | `file_pool_evictions` | each warm entry the file pool evicted to stay under its byte budget |
//! | `rzb_blocks_decoded` | each `.rzb` block decompressed (blocking or per-morsel path) |
//! | `rzb_compressed_bytes` / `rzb_uncompressed_bytes` | compressed payload bytes in / uncompressed bytes out, per decoded block |
//! | `rzb_decode_nanos` | total nanoseconds spent in block decompression and CRC checks (summed across workers; may exceed wall time); a wait for compressed bytes is charged to `chunk_wait_nanos` instead |

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Json;

/// Engine-lifetime atomic counters and gauges. See the module docs for the
/// charge contract of each field.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// File-pool accesses served without a disk read.
    pub file_pool_hits: AtomicU64,
    /// File-pool accesses that charged a disk read.
    pub file_pool_misses: AtomicU64,
    /// Bytes read from disk (blocking reads whole-file, streams per chunk).
    pub bytes_from_disk: AtomicU64,
    /// Chunks completed by streaming readers.
    pub chunks_completed: AtomicU64,
    /// Consumer waits that actually blocked on chunk availability.
    pub chunk_waits: AtomicU64,
    /// Total nanoseconds consumers spent blocked on chunk availability.
    pub chunk_wait_nanos: AtomicU64,
    /// Streaming reads that ended in a terminal I/O error.
    pub stream_failures: AtomicU64,
    /// Partial bytes completed by streams that then failed.
    pub stream_failed_bytes: AtomicU64,
    /// Access-path template-cache hits.
    pub template_hits: AtomicU64,
    /// Access-path template-cache misses (compilations).
    pub template_misses: AtomicU64,
    /// Shred-pool hits.
    pub shred_hits: AtomicU64,
    /// Shred-pool misses.
    pub shred_misses: AtomicU64,
    /// Morsels handed to the worker pool.
    pub morsels_dispatched: AtomicU64,
    /// Morsels whose gate or pipeline surfaced an error.
    pub morsels_failed: AtomicU64,
    /// Queries executed.
    pub queries: AtomicU64,
    /// Queries that took the morsel-parallel path.
    pub parallel_queries: AtomicU64,
    /// Gauge: bytes currently resident in file buffers (warm pool plus
    /// in-flight stream allocations).
    pub resident_bytes: AtomicU64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: AtomicU64,
    /// Warm file-pool entries evicted to stay under the byte budget.
    pub file_pool_evictions: AtomicU64,
    /// `.rzb` blocks decompressed.
    pub rzb_blocks_decoded: AtomicU64,
    /// Compressed payload bytes consumed by block decompression.
    pub rzb_compressed_bytes: AtomicU64,
    /// Uncompressed bytes produced by block decompression.
    pub rzb_uncompressed_bytes: AtomicU64,
    /// Nanoseconds spent decompressing blocks (summed across workers).
    pub rzb_decode_nanos: AtomicU64,
}

impl EngineMetrics {
    /// A fresh registry with every counter at zero.
    pub fn new() -> EngineMetrics {
        EngineMetrics::default()
    }

    // -- recording (relaxed atomics; no locks) -------------------------------

    /// One pool access served from memory.
    pub fn file_hit(&self) {
        self.file_pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One pool access that charges a disk read.
    pub fn file_miss(&self) {
        self.file_pool_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` bytes read from disk.
    pub fn disk_bytes(&self, n: u64) {
        self.bytes_from_disk.fetch_add(n, Ordering::Relaxed);
    }

    /// One streaming chunk of `n` bytes completed.
    pub fn chunk_completed(&self, n: u64) {
        self.chunks_completed.fetch_add(1, Ordering::Relaxed);
        self.bytes_from_disk.fetch_add(n, Ordering::Relaxed);
    }

    /// A consumer blocked `nanos` ns waiting for chunk availability.
    pub fn chunk_wait(&self, nanos: u64) {
        self.chunk_waits.fetch_add(1, Ordering::Relaxed);
        self.chunk_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A streaming read failed after completing `partial_bytes`.
    pub fn stream_failed(&self, partial_bytes: u64) {
        self.stream_failures.fetch_add(1, Ordering::Relaxed);
        self.stream_failed_bytes.fetch_add(partial_bytes, Ordering::Relaxed);
    }

    /// Template-cache traffic deltas from one query.
    pub fn template_traffic(&self, hits: u64, misses: u64) {
        self.template_hits.fetch_add(hits, Ordering::Relaxed);
        self.template_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Shred-pool traffic deltas from one query.
    pub fn shred_traffic(&self, hits: u64, misses: u64) {
        self.shred_hits.fetch_add(hits, Ordering::Relaxed);
        self.shred_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// `n` morsels dispatched to the worker pool.
    pub fn morsels(&self, n: u64) {
        self.morsels_dispatched.fetch_add(n, Ordering::Relaxed);
    }

    /// One morsel surfaced an error (gate failure or pipeline error).
    pub fn morsel_failed(&self) {
        self.morsels_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// One query executed; `parallel` if it took the morsel-parallel path.
    pub fn query(&self, parallel: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if parallel {
            self.parallel_queries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `n` buffer bytes became resident (warm insert or stream allocation).
    pub fn resident_add(&self, n: u64) {
        let now = self.resident_bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_resident_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// `n` buffer bytes were evicted / superseded.
    pub fn resident_sub(&self, n: u64) {
        // Saturating: an eviction racing a concurrent accounting path must
        // never wrap the gauge.
        let mut cur = self.resident_bytes.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.resident_bytes.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// One warm pool entry evicted under byte-budget pressure.
    pub fn file_evicted(&self) {
        self.file_pool_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// One `.rzb` block decoded: `comp` compressed payload bytes in,
    /// `uncomp` bytes out, taking `nanos` ns of decode work.
    pub fn rzb_block_decoded(&self, comp: u64, uncomp: u64, nanos: u64) {
        self.rzb_blocks_decoded.fetch_add(1, Ordering::Relaxed);
        self.rzb_compressed_bytes.fetch_add(comp, Ordering::Relaxed);
        self.rzb_uncompressed_bytes.fetch_add(uncomp, Ordering::Relaxed);
        self.rzb_decode_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    // -- reading -------------------------------------------------------------

    /// Every counter as `(name, value)`, in a fixed canonical order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        vec![
            ("bytes_from_disk", g(&self.bytes_from_disk)),
            ("chunk_wait_nanos", g(&self.chunk_wait_nanos)),
            ("chunk_waits", g(&self.chunk_waits)),
            ("chunks_completed", g(&self.chunks_completed)),
            ("file_pool_evictions", g(&self.file_pool_evictions)),
            ("file_pool_hits", g(&self.file_pool_hits)),
            ("file_pool_misses", g(&self.file_pool_misses)),
            ("morsels_dispatched", g(&self.morsels_dispatched)),
            ("morsels_failed", g(&self.morsels_failed)),
            ("parallel_queries", g(&self.parallel_queries)),
            ("peak_resident_bytes", g(&self.peak_resident_bytes)),
            ("queries", g(&self.queries)),
            ("resident_bytes", g(&self.resident_bytes)),
            ("rzb_blocks_decoded", g(&self.rzb_blocks_decoded)),
            ("rzb_compressed_bytes", g(&self.rzb_compressed_bytes)),
            ("rzb_decode_nanos", g(&self.rzb_decode_nanos)),
            ("rzb_uncompressed_bytes", g(&self.rzb_uncompressed_bytes)),
            ("shred_hits", g(&self.shred_hits)),
            ("shred_misses", g(&self.shred_misses)),
            ("stream_failed_bytes", g(&self.stream_failed_bytes)),
            ("stream_failures", g(&self.stream_failures)),
            ("template_hits", g(&self.template_hits)),
            ("template_misses", g(&self.template_misses)),
        ]
    }

    /// The snapshot as a JSON object (canonical key order).
    pub fn to_json(&self) -> Json {
        Json::obj(self.snapshot().into_iter().map(|(k, v)| (k, Json::UInt(v))).collect())
    }

    /// Render a compact multi-line report of the non-zero counters.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            if value != 0 {
                out.push_str(&format!("{name}={value}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = EngineMetrics::new();
        m.file_hit();
        m.file_hit();
        m.file_miss();
        m.disk_bytes(100);
        m.chunk_completed(64);
        m.template_traffic(3, 1);
        m.query(true);
        m.query(false);
        let snap: std::collections::HashMap<_, _> = m.snapshot().into_iter().collect();
        assert_eq!(snap["file_pool_hits"], 2);
        assert_eq!(snap["file_pool_misses"], 1);
        assert_eq!(snap["bytes_from_disk"], 164);
        assert_eq!(snap["chunks_completed"], 1);
        assert_eq!(snap["template_hits"], 3);
        assert_eq!(snap["queries"], 2);
        assert_eq!(snap["parallel_queries"], 1);
    }

    #[test]
    fn resident_gauge_tracks_peak() {
        let m = EngineMetrics::new();
        m.resident_add(100);
        m.resident_add(50);
        m.resident_sub(120);
        m.resident_add(10);
        let snap: std::collections::HashMap<_, _> = m.snapshot().into_iter().collect();
        assert_eq!(snap["resident_bytes"], 40);
        assert_eq!(snap["peak_resident_bytes"], 150);
        // Saturating: over-subtraction clamps at zero instead of wrapping.
        m.resident_sub(1_000_000);
        assert_eq!(m.resident_bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failed_stream_records_partial_bytes() {
        let m = EngineMetrics::new();
        m.stream_failed(4096);
        let snap: std::collections::HashMap<_, _> = m.snapshot().into_iter().collect();
        assert_eq!(snap["stream_failures"], 1);
        assert_eq!(snap["stream_failed_bytes"], 4096);
    }

    #[test]
    fn rzb_and_eviction_counters_accumulate() {
        let m = EngineMetrics::new();
        m.rzb_block_decoded(100, 400, 7);
        m.rzb_block_decoded(50, 400, 3);
        m.file_evicted();
        let snap: std::collections::HashMap<_, _> = m.snapshot().into_iter().collect();
        assert_eq!(snap["rzb_blocks_decoded"], 2);
        assert_eq!(snap["rzb_compressed_bytes"], 150);
        assert_eq!(snap["rzb_uncompressed_bytes"], 800);
        assert_eq!(snap["rzb_decode_nanos"], 10);
        assert_eq!(snap["file_pool_evictions"], 1);
    }

    #[test]
    fn json_snapshot_has_canonical_order() {
        let m = EngineMetrics::new();
        let s = m.to_json().render();
        assert!(s.starts_with("{\"bytes_from_disk\":0"));
        let names: Vec<&str> = m.snapshot().iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "snapshot order is sorted-by-name");
    }
}
