//! # raw-exec
//!
//! Morsel-driven parallel in-situ execution over raw files — the multi-core
//! dimension the RAW paper (§8) leaves as future work, following the
//! morsel-driven architecture popularized by HyPer and applied to raw files
//! by OLA-RAW.
//!
//! Three pieces compose into a parallel access path:
//!
//! - [`morsel`] — a **partitioner** that splits a raw file into
//!   record-aligned morsels: newline probing for CSV (reusing positional-map
//!   entries as split hints when one exists), pure row arithmetic for
//!   fixed-width binary and rootsim event files, page-aligned splitting for
//!   ibin's zone-indexed pages, and item-balanced event ranges for rootsim
//!   collections (see the [`morsel`] docs for the per-format contract).
//! - [`pool`] — the **worker pool**: one engine-lifetime [`GlobalPool`]
//!   whose long-lived workers run one scan→filter→partial-aggregate
//!   pipeline per morsel for every session, with per-query admission and
//!   round-robin morsel scheduling so concurrent queries share the cores
//!   fairly. Workers claim morsels dynamically, so skew in morsel cost does
//!   not idle threads. On cold streamed runs, [`GlobalPool::run_on`] gates
//!   each morsel on the availability of its byte range
//!   ([`raw_formats::file_buffer::ChunkedFileBuffer::wait_available`]), so
//!   early morsels scan while the reader thread is still pulling later
//!   chunks off disk — the overlap that lets cold throughput scale past the
//!   memory-resident case.
//! - [`executor`] — the **deterministic merge layer**: selection batches
//!   concatenate in morsel order; partial aggregate states
//!   ([`raw_columnar::ops::AggAccumulator`]) merge in morsel order. Because
//!   the morsel grid depends only on the file (never on the thread count),
//!   results are identical for any worker count.
//!
//! Side effects keep the paper's "queries build indexes as a side effect"
//! semantics under parallelism: every morsel pipeline owns thread-safe sinks
//! (`Arc<Mutex<…>>`) for the positional-map fragment and column shreds it
//! builds; after the pool barrier the engine appends posmap fragments in
//! morsel order and merges shred fragments (disjoint global row ranges) into
//! its shared pools.
//!
//! The crate is engine-agnostic: it sees only [`raw_columnar::ops::Operator`]
//! pipelines. `raw-engine` plans per-morsel pipelines (via
//! `ScanSegment`-bounded scans) and owns the side-effect absorption.

pub mod executor;
pub mod morsel;
pub mod pool;

pub use executor::{execute_morsels, GroupedMerge, MergePlan, MorselGate, ParallelOutcome};
pub use morsel::{
    partition_csv, partition_csv_quoted, partition_csv_quoted_streaming, partition_csv_streaming,
    partition_csv_with_map, partition_items, partition_pages, partition_rows, CsvPartition, Morsel,
};
pub use pool::GlobalPool;

/// The number of worker threads "all cores" resolves to on this host.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Unit tests of [`GlobalPool`]'s batch contract seen from a caller outside
/// [`pool`]: only the public `run_on` API, no scheduler internals. The
/// module keeps the name the pool had before it moved into [`pool`], so
/// these tests keep theirs.
#[cfg(test)]
mod global {
    mod tests {
        use std::sync::Arc;

        use parking_lot::Mutex;

        use crate::pool::JobCtx;
        use crate::GlobalPool;

        type Gate<T> = Box<dyn FnOnce() -> Result<(), T> + Send>;
        type Job<T> = Box<dyn for<'s> FnOnce(JobCtx<'s, ()>) -> T + Send>;

        /// `count` jobs, each logging its index when it runs and returning it.
        fn logged_jobs(
            count: usize,
            log: &Arc<Mutex<Vec<usize>>>,
        ) -> Vec<(Gate<usize>, Job<usize>)> {
            (0..count)
                .map(|i| {
                    let log = Arc::clone(log);
                    let gate: Gate<usize> = Box::new(|| Ok(()));
                    let job: Job<usize> = Box::new(move |_| {
                        log.lock().push(i);
                        i
                    });
                    (gate, job)
                })
                .collect()
        }

        #[test]
        fn results_land_by_job_index() {
            let pool = GlobalPool::new(3, 0);
            let log = Arc::new(Mutex::new(Vec::new()));
            let (results, sinks) = pool.run_on(logged_jobs(8, &log), None);
            assert_eq!(results, (0..8).collect::<Vec<_>>());
            assert_eq!(sinks.len(), 3);
            assert_eq!(log.lock().len(), 8);
        }

        #[test]
        fn claim_order_is_respected() {
            // One worker makes the within-batch claim order fully deterministic.
            let pool = GlobalPool::new(1, 0);
            let log = Arc::new(Mutex::new(Vec::new()));
            let claim = vec![2, 0, 3, 1];
            let (results, _) = pool.run_on(logged_jobs(4, &log), Some(claim.clone()));
            assert_eq!(results, vec![0, 1, 2, 3], "results stay in job order");
            assert_eq!(*log.lock(), claim, "execution follows the claim order");
        }

        #[test]
        fn gate_error_becomes_the_result() {
            let pool = GlobalPool::new(2, 0);
            let jobs: Vec<(Gate<i32>, Job<i32>)> = vec![
                (Box::new(|| Ok(())), Box::new(|_| 10)),
                (Box::new(|| Err(-1)), Box::new(|_| 20)),
            ];
            let (results, _) = pool.run_on(jobs, None);
            assert_eq!(results, vec![10, -1]);
        }

        #[test]
        fn empty_batch_returns_immediately() {
            let pool = GlobalPool::new(2, 1);
            let (results, sinks) = pool.run_on(Vec::<(Gate<usize>, Job<usize>)>::new(), None);
            assert!(results.is_empty());
            assert_eq!(sinks.len(), 2);
        }
    }
}
