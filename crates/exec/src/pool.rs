//! The engine-global worker pool: long-lived workers, per-query admission,
//! fair round-robin morsel scheduling, availability-gated dispatch.
//!
//! Every parallel query drains its morsels here. With many sessions sharing
//! one engine, per-query threads would oversubscribe the machine and let a
//! big cold scan monopolize the CPUs while a small warm query sits behind
//! it. [`GlobalPool`] avoids both:
//!
//! - **One set of workers**, spawned once and shared by every query.
//! - **Admission**: at most `max_active` batches execute at once (0 =
//!   unlimited); excess submitters queue FIFO at the door. Admission is per
//!   *query* (batch), never per morsel — an admitted batch always finishes.
//! - **Fair scheduling**: active batches sit in a round-robin ring. A worker
//!   claims *one* morsel from the front batch, then the batch rotates to the
//!   back — so `k` concurrent batches each receive ~`1/k` of the workers'
//!   attention regardless of batch size, and a 1000-morsel cold scan cannot
//!   starve a 4-morsel warm query (fairness invariant, CONCURRENCY.md
//!   § "Sessions and the shared cache layer").
//!
//! Within a batch, morsels are claimed in the submitter's `claim` order
//! (e.g. longest-processing-time-first: the skew-resistance lever for
//! ungated runs). Results land in per-morsel slots and sinks in per-worker
//! slots, so output order — and therefore every downstream merge — is
//! independent of scheduling.
//!
//! **Availability-driven dispatch** serves cold runs: each job carries a
//! gate that blocks until the job's inputs are resident (a morsel's byte
//! range still streaming in from disk). A claimed job runs only after its
//! gate admits it, so early morsels scan while the reader thread is still
//! filling later chunks; a gate that fails (reader I/O error) becomes the
//! job's result without running it.
//!
//! ## Cold-path chunk-wait semantics
//!
//! The time a worker spends blocked inside a gate is *overlap slack*, not
//! engine work: it measures how far scan speed outruns the reader thread.
//! The pool stamps that duration per job (`JobCtx::gate_wait`), and
//! `ChunkedFileBuffer::wait_available` separately charges each blocking
//! wait to `EngineMetrics::{chunk_waits, chunk_wait_nanos}`. Both are
//! scheduling-dependent — two identical cold runs legitimately differ — so
//! equivalence tests must treat them as advisory, never exact. The
//! deterministic invariant is elsewhere: *which* chunks complete and how
//! many bytes they charge is identical across runs; only *who waited and
//! for how long* varies. A worker blocked in a gate holds no lock and
//! parks on the chunk condvar; a batch whose gates block in index order
//! must not be claimed out of order (see [`GlobalPool::run_on`]).
//!
//! ## Synchronization
//!
//! One mutex guards the scheduler state (ring + admission counts); workers
//! sleep on a condvar when the ring is empty and submitters sleep on a
//! second condvar when admission is full. Each batch carries a completion
//! latch (mutex + condvar): workers decrement after writing a result slot,
//! the submitter wakes at zero. Result slots are mutexes, so the completed
//! write happens-before the submitter's read (lock-edge publication; no
//! `SeqCst` anywhere, per the L1 rule). The scheduler lock is never held
//! while a morsel runs. A panicking gate or job is caught on its worker,
//! which stays alive; the panic still counts down the latch and resumes on
//! the submitting thread once the batch has retired. The sink-merge
//! contract built on top is documented in the repo-root `CONCURRENCY.md`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Per-job execution context handed to a [`GlobalPool::run_on`] job
/// closure: which pool worker claimed the job, how long that worker was
/// blocked in the job's availability gate, and the worker's trace sink.
///
/// The sink is the tracing layer's hot path: each worker owns one slot for
/// the batch, locked only by that worker while one of its jobs runs. Jobs
/// append at most O(1) events each, so sink volume is bounded by the job
/// count (one morsel = one job), never by row count.
pub struct JobCtx<'s, E> {
    /// Index of the pool worker running this job (`0..threads`).
    pub worker: usize,
    /// How long this worker was blocked in the job's gate before the job
    /// ran. Zero for gates that admit immediately.
    pub gate_wait: Duration,
    /// The claiming worker's event sink.
    pub sink: &'s mut Vec<E>,
}

/// A unit of claimed work: runs one morsel on the given worker index.
type Thunk = Box<dyn FnOnce(usize) + Send>;

/// One submitted batch: its thunks plus the claim order to hand them out in.
struct BatchCore {
    /// One slot per morsel; a worker takes the thunk when it claims the slot.
    thunks: Vec<Mutex<Option<Thunk>>>,
    /// Permutation of `0..thunks.len()`: the order slots are claimed in.
    claim: Vec<usize>,
}

/// A batch in the round-robin ring, with its claim progress. `next` is only
/// touched under the scheduler lock.
struct ActiveBatch {
    core: Arc<BatchCore>,
    next: usize,
}

/// Scheduler state: the fair ring plus admission accounting.
struct State {
    /// Batches with unclaimed morsels, in round-robin order.
    ring: VecDeque<ActiveBatch>,
    /// Batches admitted and not yet complete (includes fully-claimed ones).
    active: usize,
    /// Pool is shutting down; workers exit, waiters return.
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Workers wait here for ring work.
    work_cv: Condvar,
    /// Submitters wait here for an admission slot.
    admit_cv: Condvar,
}

/// The global worker pool. Construct once per engine, share via `Arc`, and
/// submit batches with [`GlobalPool::run_on`]. Dropping the pool shuts the
/// workers down and joins them (callers must not be mid-batch; engine `Arc`
/// ownership guarantees this).
pub struct GlobalPool {
    inner: Arc<Inner>,
    threads: usize,
    max_active: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for GlobalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalPool")
            .field("threads", &self.threads)
            .field("max_active", &self.max_active)
            .finish()
    }
}

impl GlobalPool {
    /// Spawn `threads` long-lived workers (min 1). `max_active` caps the
    /// number of concurrently executing batches; 0 means unlimited.
    pub fn new(threads: usize, max_active: usize) -> GlobalPool {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State { ring: VecDeque::new(), active: 0, shutdown: false }),
            work_cv: Condvar::new(),
            admit_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let inner = Arc::clone(&inner);
            handles.push(std::thread::spawn(move || worker_loop(&inner, worker)));
        }
        GlobalPool { inner, threads, max_active, handles: Mutex::new(handles) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Admission cap this pool was built with (0 = unlimited).
    pub fn max_active(&self) -> usize {
        self.max_active
    }

    /// Run a batch of `(gate, job)` pairs to completion and return
    /// `(results-by-job-index, sinks-by-worker)`. The caller blocks at the
    /// admission door if `max_active` batches are already running, then on
    /// the batch's completion latch while the pool interleaves its morsels
    /// fairly with other active batches.
    ///
    /// Each job closure runs only once its gate returns `Ok`; a gate
    /// returning `Err(t)` makes `t` the job's result directly, so the job
    /// never runs and records no sink events. Event order *within* a sink
    /// is that worker's claim order and the cross-worker interleaving is
    /// scheduling-dependent; callers that need a deterministic view merge
    /// on an order key the events carry (the executor sorts morsel traces
    /// by morsel index).
    ///
    /// `claim`, when given, must be a permutation of `0..jobs.len()` and
    /// fixes the order slots are claimed in *within this batch*; results
    /// still land in job order. Pass `None` when gates block in job order
    /// (the sequential-reader cold path): claiming late jobs first would
    /// park every worker on nearly the whole file.
    ///
    /// If a gate or job panics, the rest of the batch still runs to
    /// completion, the batch retires (freeing its admission slot), and the
    /// first panic in job order resumes on the caller.
    pub fn run_on<T, E, G, F>(
        &self,
        jobs: Vec<(G, F)>,
        claim: Option<Vec<usize>>,
    ) -> (Vec<T>, Vec<Vec<E>>)
    where
        T: Send + 'static,
        E: Send + 'static,
        G: FnOnce() -> Result<(), T> + Send + 'static,
        F: for<'s> FnOnce(JobCtx<'s, E>) -> T + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return (Vec::new(), (0..self.threads).map(|_| Vec::new()).collect());
        }
        let claim = claim.unwrap_or_else(|| (0..n).collect());
        assert!(claim.len() == n, "claim order must cover every job");
        {
            let mut seen = vec![false; n];
            for &c in &claim {
                assert!(c < n && !seen[c], "claim order must be a permutation");
                seen[c] = true;
            }
        }

        let results: Arc<Vec<Mutex<Option<std::thread::Result<T>>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let sinks: Arc<Vec<Mutex<Vec<E>>>> =
            Arc::new((0..self.threads).map(|_| Mutex::new(Vec::new())).collect());
        // Completion latch: (remaining, batch done) — submitter sleeps on
        // the condvar until remaining hits zero.
        let latch: Arc<(Mutex<usize>, Condvar)> = Arc::new((Mutex::new(n), Condvar::new()));

        let mut thunks = Vec::with_capacity(n);
        for (i, (gate, job)) in jobs.into_iter().enumerate() {
            let results = Arc::clone(&results);
            let sinks = Arc::clone(&sinks);
            let latch = Arc::clone(&latch);
            let thunk: Thunk = Box::new(move |worker| {
                // Unwind-safe: a panic abandons only this job's own state;
                // the slots it touches are non-poisoning locks written once.
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let wait_start = Instant::now();
                    match gate() {
                        Ok(()) => {
                            let gate_wait = wait_start.elapsed();
                            let mut sink = sinks[worker].lock();
                            job(JobCtx { worker, gate_wait, sink: &mut sink })
                        }
                        Err(err) => err,
                    }
                }));
                *results[i].lock() = Some(out);
                let mut remaining = latch.0.lock();
                *remaining -= 1;
                if *remaining == 0 {
                    latch.1.notify_all();
                }
            });
            thunks.push(Mutex::new(Some(thunk)));
        }
        let core = Arc::new(BatchCore { thunks, claim });

        // Admission: FIFO at the door (parking_lot condvars wake waiters in
        // FIFO order), at most `max_active` batches in flight.
        {
            let mut st = self.inner.state.lock();
            while self.max_active > 0 && st.active >= self.max_active && !st.shutdown {
                self.inner.admit_cv.wait(&mut st);
            }
            st.active += 1;
            st.ring.push_back(ActiveBatch { core, next: 0 });
            drop(st);
            self.inner.work_cv.notify_all();
        }

        // Block on the completion latch.
        {
            let mut remaining = latch.0.lock();
            while *remaining > 0 {
                latch.1.wait(&mut remaining);
            }
        }

        // Retire the batch: free its admission slot, wake one queued
        // submitter.
        {
            let mut st = self.inner.state.lock();
            st.active -= 1;
            drop(st);
            self.inner.admit_cv.notify_one();
        }

        let mut out = Vec::with_capacity(n);
        for slot in results.iter() {
            match slot.lock().take() {
                Some(Ok(value)) => out.push(value),
                Some(Err(panic)) => resume_unwind(panic),
                None => unreachable!("completed batch has a result per job"),
            }
        }
        let sinks = sinks.iter().map(|s| std::mem::take(&mut *s.lock())).collect();
        (out, sinks)
    }
}

impl Drop for GlobalPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        self.inner.admit_cv.notify_all();
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claim the next morsel fairly: take one from the front batch, rotate the
/// batch to the back if it has more. Called under the scheduler lock.
fn next_claim(st: &mut State) -> Option<(Arc<BatchCore>, usize)> {
    while let Some(mut ab) = st.ring.pop_front() {
        if ab.next < ab.core.claim.len() {
            let slot = ab.core.claim[ab.next];
            ab.next += 1;
            let core = Arc::clone(&ab.core);
            if ab.next < ab.core.claim.len() {
                st.ring.push_back(ab);
            }
            return Some((core, slot));
        }
        // Fully claimed: drop it from the ring (completion is tracked by
        // the batch latch, not the ring).
    }
    None
}

fn worker_loop(inner: &Inner, worker: usize) {
    loop {
        let claimed = {
            let mut st = inner.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(claimed) = next_claim(&mut st) {
                    break claimed;
                }
                inner.work_cv.wait(&mut st);
            }
        };
        let (core, slot) = claimed;
        let thunk = core.thunks[slot].lock().take();
        if let Some(thunk) = thunk {
            thunk(worker);
        }
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    type Gate<T> = Box<dyn FnOnce() -> Result<(), T> + Send>;
    type Job<E, T> = Box<dyn for<'s> FnOnce(JobCtx<'s, E>) -> T + Send>;

    /// A trivial batch: `count` jobs, each recording `(tag, index)` into a
    /// shared log when it runs, returning its index.
    fn logged_jobs(
        tag: char,
        count: usize,
        log: &Arc<Mutex<Vec<(char, usize)>>>,
    ) -> Vec<(
        impl FnOnce() -> Result<(), usize> + Send + 'static,
        impl for<'s> FnOnce(JobCtx<'s, ()>) -> usize + Send + 'static,
    )> {
        (0..count)
            .map(|i| {
                let log = Arc::clone(log);
                (
                    move || Ok(()),
                    move |_ctx: JobCtx<'_, ()>| {
                        log.lock().push((tag, i));
                        i
                    },
                )
            })
            .collect()
    }

    /// A flag the test thread raises and pool jobs block on.
    type Flag = Arc<(Mutex<bool>, Condvar)>;

    fn wait_for(flag: &Flag) {
        let mut up = flag.0.lock();
        while !*up {
            flag.1.wait(&mut up);
        }
    }

    fn raise(flag: &Flag) {
        *flag.0.lock() = true;
        flag.1.notify_all();
    }

    #[test]
    fn results_in_job_order() {
        let pool = GlobalPool::new(3, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (results, sinks) = pool.run_on(logged_jobs('a', 40, &log), None);
        assert_eq!(results, (0..40).collect::<Vec<_>>());
        assert_eq!(sinks.len(), 3);
        assert_eq!(log.lock().len(), 40);
    }

    #[test]
    fn serial_path_for_one_thread() {
        let pool = GlobalPool::new(1, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (results, sinks) = pool.run_on(logged_jobs('a', 5, &log), None);
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
        assert_eq!(sinks.len(), 1);
        let ran: Vec<usize> = log.lock().iter().map(|&(_, i)| i).collect();
        assert_eq!(ran, vec![0, 1, 2, 3, 4], "one worker runs jobs in index order");
    }

    /// `threads` jobs that each wait until all of them are running at once,
    /// recording the thread each ran on. Finishes only if every worker is
    /// alive and claims one job.
    fn rendezvous_jobs(
        threads: usize,
        ids: &Arc<Mutex<HashSet<std::thread::ThreadId>>>,
    ) -> Vec<(Gate<bool>, Job<(), bool>)> {
        let arrived = Arc::new(AtomicUsize::new(0));
        (0..threads)
            .map(|_| {
                let ids = Arc::clone(ids);
                let arrived = Arc::clone(&arrived);
                let gate: Gate<bool> = Box::new(|| Ok(()));
                let job: Job<(), bool> = Box::new(move |_| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while arrived.load(Ordering::SeqCst) < threads && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    ids.lock().insert(std::thread::current().id());
                    arrived.load(Ordering::SeqCst) >= threads
                });
                (gate, job)
            })
            .collect()
    }

    #[test]
    fn actually_uses_multiple_threads() {
        let pool = GlobalPool::new(4, 0);
        let ids = Arc::new(Mutex::new(HashSet::new()));
        let (met, _) = pool.run_on(rendezvous_jobs(4, &ids), None);
        assert!(met.iter().all(|&m| m), "all four jobs ran concurrently");
        assert_eq!(ids.lock().len(), 4, "work ran on more than one thread");
    }

    #[test]
    fn more_jobs_than_threads_all_complete() {
        let pool = GlobalPool::new(3, 0);
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let counter = Arc::clone(&counter);
                (
                    || -> Result<(), u64> { Ok(()) },
                    move |_: JobCtx<'_, ()>| counter.fetch_add(1, Ordering::Relaxed),
                )
            })
            .collect();
        let (results, _) = pool.run_on(jobs, None);
        assert_eq!(results.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_job_list() {
        let pool = GlobalPool::new(2, 1);
        let (results, sinks) = pool.run_on(Vec::<(Gate<usize>, Job<(), usize>)>::new(), None);
        assert!(results.is_empty());
        assert_eq!(sinks.len(), 2);
    }

    #[test]
    fn claim_order_reorders_dispatch_but_not_results() {
        for threads in [1usize, 4] {
            // Heavy-first permutation over 9 jobs; results must stay in job
            // order and every job must run exactly once.
            let pool = GlobalPool::new(threads, 0);
            let log = Arc::new(Mutex::new(Vec::new()));
            let claim = vec![8, 6, 4, 2, 0, 1, 3, 5, 7];
            let (results, _) = pool.run_on(logged_jobs('a', 9, &log), Some(claim.clone()));
            assert_eq!(results, (0..9).collect::<Vec<_>>());
            let mut seen: Vec<usize> = log.lock().iter().map(|&(_, i)| i).collect();
            if threads == 1 {
                assert_eq!(seen, claim, "one worker honors the claim order exactly");
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..9).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn claim_order_must_be_a_permutation() {
        let pool = GlobalPool::new(2, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        pool.run_on(logged_jobs('a', 3, &log), Some(vec![0, 0, 1]));
    }

    #[test]
    fn gated_jobs_wait_for_admission_and_keep_job_order() {
        // A monotone availability watermark (the sequential-reader shape):
        // gates spin until the watermark covers their job. A background
        // "reader" advances it, so workers genuinely block and results must
        // still land in job order.
        for threads in [1usize, 4] {
            let pool = GlobalPool::new(threads, 0);
            let watermark = Arc::new(AtomicU64::new(0));
            let reader = {
                let watermark = Arc::clone(&watermark);
                std::thread::spawn(move || {
                    for w in 1..=16u64 {
                        std::thread::sleep(Duration::from_millis(1));
                        watermark.store(w, Ordering::SeqCst);
                    }
                })
            };
            let jobs: Vec<_> = (0..16u64)
                .map(|i| {
                    let (gate_mark, job_mark) = (Arc::clone(&watermark), Arc::clone(&watermark));
                    (
                        move || -> Result<(), u64> {
                            while gate_mark.load(Ordering::SeqCst) <= i {
                                std::hint::spin_loop();
                            }
                            Ok(())
                        },
                        move |_: JobCtx<'_, ()>| {
                            // The gate admitted us: availability covers i.
                            assert!(job_mark.load(Ordering::SeqCst) > i);
                            i * 3
                        },
                    )
                })
                .collect();
            let (results, _) = pool.run_on(jobs, None);
            reader.join().unwrap();
            assert_eq!(results, (0..16u64).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn traced_jobs_stamp_worker_and_collect_sink_events() {
        for threads in [1usize, 4] {
            let pool = GlobalPool::new(threads, 0);
            let jobs: Vec<_> = (0..16u64)
                .map(|i| {
                    (
                        || -> Result<(), u64> { Ok(()) },
                        move |ctx: JobCtx<'_, (usize, u64)>| {
                            ctx.sink.push((ctx.worker, i));
                            i
                        },
                    )
                })
                .collect();
            let (results, sinks) = pool.run_on(jobs, None);
            assert_eq!(results, (0..16u64).collect::<Vec<_>>());
            assert_eq!(sinks.len(), threads);
            // Every job recorded exactly one event, each stamped with the
            // sink-owning worker's id.
            let mut seen: Vec<u64> = Vec::new();
            for (w, sink) in sinks.iter().enumerate() {
                for &(worker, i) in sink {
                    assert_eq!(worker, w, "event landed in its own worker's sink");
                    seen.push(i);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..16u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn traced_failed_gate_records_no_events() {
        let pool = GlobalPool::new(3, 0);
        let jobs: Vec<(Gate<i64>, Job<i64, i64>)> = (0..8i64)
            .map(|i| {
                let gate: Gate<i64> =
                    if i % 2 == 0 { Box::new(move || Err(-100 - i)) } else { Box::new(|| Ok(())) };
                let job: Job<i64, i64> = Box::new(move |ctx| {
                    ctx.sink.push(i);
                    i
                });
                (gate, job)
            })
            .collect();
        let (results, sinks) = pool.run_on(jobs, None);
        assert_eq!(results, vec![-100, 1, -102, 3, -104, 5, -106, 7]);
        let mut events: Vec<i64> = sinks.into_iter().flatten().collect();
        events.sort_unstable();
        assert_eq!(events, vec![1, 3, 5, 7], "short-circuited jobs left no trace");
    }

    #[test]
    fn traced_gate_wait_measures_blocking_time() {
        let pool = GlobalPool::new(1, 0);
        let release = Arc::new(AtomicU64::new(0));
        let releaser = {
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                release.store(1, Ordering::SeqCst);
            })
        };
        let jobs = vec![(
            move || -> Result<(), Duration> {
                while release.load(Ordering::SeqCst) == 0 {
                    std::hint::spin_loop();
                }
                Ok(())
            },
            |ctx: JobCtx<'_, ()>| ctx.gate_wait,
        )];
        let (results, _) = pool.run_on(jobs, None);
        releaser.join().unwrap();
        assert!(
            results[0] >= Duration::from_millis(10),
            "gate_wait {:?} should reflect the blocked interval",
            results[0]
        );
    }

    #[test]
    fn failed_gate_short_circuits_without_running_the_job() {
        let pool = GlobalPool::new(3, 0);
        let ran = Arc::new(AtomicU64::new(0));
        let jobs: Vec<(Gate<i64>, Job<(), i64>)> = (0..6i64)
            .map(|i| {
                let ran = Arc::clone(&ran);
                let gate: Gate<i64> =
                    if i % 2 == 0 { Box::new(move || Err(-i)) } else { Box::new(|| Ok(())) };
                let job: Job<(), i64> = Box::new(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                });
                (gate, job)
            })
            .collect();
        let (results, _) = pool.run_on(jobs, None);
        assert_eq!(results, vec![0, 1, -2, 3, -4, 5]);
        assert_eq!(ran.load(Ordering::SeqCst), 3, "only odd jobs ran");
    }

    #[test]
    fn panicking_job_resumes_on_caller_and_keeps_the_pool() {
        let pool = Arc::new(GlobalPool::new(2, 1));
        // Submit from a helper thread so a regression (a hang) fails the
        // test through the deadline instead of wedging the test binary.
        let submitter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let jobs: Vec<(Gate<u8>, Job<(), u8>)> = (0..4u8)
                    .map(|i| {
                        let gate: Gate<u8> = Box::new(|| Ok(()));
                        let job: Job<(), u8> = Box::new(move |_| {
                            assert!(i != 2, "morsel {i} exploded");
                            i
                        });
                        (gate, job)
                    })
                    .collect();
                catch_unwind(AssertUnwindSafe(|| pool.run_on(jobs, None))).map(|(r, _)| r)
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !submitter.is_finished() {
            assert!(Instant::now() < deadline, "a panicking job hung its batch");
            std::thread::sleep(Duration::from_millis(1));
        }
        let payload = submitter.join().unwrap().expect_err("the job's panic reaches the caller");
        let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("morsel 2 exploded"), "payload: {message:?}");

        // The admission slot was released (max_active = 1 would block this
        // batch otherwise) and both workers survived to rendezvous.
        let ids = Arc::new(Mutex::new(HashSet::new()));
        let (met, _) = pool.run_on(rendezvous_jobs(2, &ids), None);
        assert_eq!(met, vec![true, true], "no worker was lost to the panic");
    }

    #[test]
    fn round_robin_interleaves_batches() {
        // One worker: submit batch A (4 morsels), and from inside A's first
        // morsel submit batch B (2 morsels) on another thread, then let the
        // worker drain. With the ring rotating after every claim the
        // interleaving is A0, (B admitted), A1, B0, A2, B1, A3.
        let pool = Arc::new(GlobalPool::new(1, 0));
        let log: Arc<Mutex<Vec<(char, usize)>>> = Arc::new(Mutex::new(Vec::new()));

        // Submit A from a helper thread; its first job blocks until B is in
        // the ring so the interleaving is deterministic.
        let b_in_ring: Flag = Arc::new((Mutex::new(false), Condvar::new()));
        let a_thread = {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            let b_in_ring = Arc::clone(&b_in_ring);
            std::thread::spawn(move || {
                let jobs: Vec<(Gate<usize>, Job<(), usize>)> = (0..4)
                    .map(|i| {
                        let log = Arc::clone(&log);
                        let b_in_ring = Arc::clone(&b_in_ring);
                        let gate: Gate<usize> = Box::new(move || {
                            if i == 0 {
                                wait_for(&b_in_ring);
                            }
                            Ok(())
                        });
                        let job: Job<(), usize> = Box::new(move |_| {
                            log.lock().push(('a', i));
                            i
                        });
                        (gate, job)
                    })
                    .collect();
                pool.run_on(jobs, None)
            })
        };

        // Wait until the worker has claimed A0 (it will block in A0's gate),
        // then submit B and release the gate.
        while pool.inner.state.lock().ring.front().is_none_or(|ab| ab.next == 0) {
            std::thread::yield_now();
        }
        let b_thread = {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            std::thread::spawn(move || pool.run_on(logged_jobs('b', 2, &log), None))
        };
        // B lands in the ring behind A, then A0's gate opens.
        while pool.inner.state.lock().ring.len() < 2 {
            std::thread::yield_now();
        }
        raise(&b_in_ring);

        let (a_results, _) = a_thread.join().unwrap();
        let (b_results, _) = b_thread.join().unwrap();
        assert_eq!(a_results, vec![0, 1, 2, 3]);
        assert_eq!(b_results, vec![0, 1]);
        let order = log.lock().clone();
        assert_eq!(
            order,
            vec![('a', 0), ('a', 1), ('b', 0), ('a', 2), ('b', 1), ('a', 3)],
            "ring rotation interleaves the two batches one morsel at a time"
        );
    }

    #[test]
    fn admission_cap_serializes_batches() {
        // max_active = 1: batch B cannot start until batch A completes. One
        // worker keeps the within-batch log order deterministic.
        let pool = Arc::new(GlobalPool::new(1, 1));
        let log: Arc<Mutex<Vec<(char, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let release_a: Flag = Arc::new((Mutex::new(false), Condvar::new()));

        let a_thread = {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            let release_a = Arc::clone(&release_a);
            std::thread::spawn(move || {
                let jobs: Vec<(Gate<usize>, Job<(), usize>)> = (0..2)
                    .map(|i| {
                        let log = Arc::clone(&log);
                        let release_a = Arc::clone(&release_a);
                        let gate: Gate<usize> = Box::new(move || {
                            wait_for(&release_a);
                            Ok(())
                        });
                        let job: Job<(), usize> = Box::new(move |_| {
                            log.lock().push(('a', i));
                            i
                        });
                        (gate, job)
                    })
                    .collect();
                pool.run_on(jobs, None)
            })
        };
        // Wait until A is admitted.
        while pool.inner.state.lock().active == 0 {
            std::thread::yield_now();
        }
        let b_thread = {
            let pool = Arc::clone(&pool);
            let log = Arc::clone(&log);
            std::thread::spawn(move || pool.run_on(logged_jobs('b', 2, &log), None))
        };
        // B must be stuck at the admission door: active stays 1 and B's
        // morsels never enter the ring while A blocks.
        for _ in 0..50 {
            assert_eq!(pool.inner.state.lock().active, 1);
            std::thread::yield_now();
        }
        assert!(log.lock().is_empty(), "nothing ran while A holds its gates");
        raise(&release_a);
        a_thread.join().unwrap();
        b_thread.join().unwrap();
        let order = log.lock().clone();
        assert_eq!(
            order,
            vec![('a', 0), ('a', 1), ('b', 0), ('b', 1)],
            "admission cap of 1 serializes the batches"
        );
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = GlobalPool::new(4, 0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (results, _) = pool.run_on(logged_jobs('a', 4, &log), None);
        assert_eq!(results.len(), 4);
        drop(pool); // must not hang
    }
}
