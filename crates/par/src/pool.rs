//! The shared worker pool behind the deterministic primitives.
//!
//! Design constraints, in order of priority:
//!
//! 1. **Determinism does not depend on the pool.** Work is pre-split into
//!    chunks by the caller (chunk boundaries depend only on input size);
//!    the pool merely decides *which thread* executes each chunk. Nothing
//!    observable depends on that assignment.
//! 2. **The caller always makes progress.** The publishing thread claims
//!    chunks itself, so a job completes even if every worker is busy with
//!    another job (including the nested case where a chunk body publishes
//!    a job of its own).
//! 3. **Panics propagate, never hang.** A panicking chunk is caught, the
//!    remaining chunks still run, and the payload is re-raised on the
//!    publishing thread once the job has drained.
//!
//! Workers are spawned lazily, parked on a condvar while idle, and live
//! for the remainder of the process (there is no shutdown path — the pool
//! is a process-wide singleton and the OS reclaims parked threads at
//! exit).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Sanity cap on the worker count (`KRAFTWERK_THREADS` is clamped here).
pub(crate) const MAX_THREADS: usize = 256;

/// Utilization slots: slot 0 is the publishing (or inline) thread, slots
/// `1..=MAX_THREADS-1` belong to the workers of the same index.
pub(crate) const UTIL_SLOTS: usize = MAX_THREADS;

/// Cumulative busy nanoseconds per slot. Only written when a job was
/// published with `timed == true`, so an untraced run never touches them.
static BUSY_NS: [AtomicU64; UTIL_SLOTS] = [const { AtomicU64::new(0) }; UTIL_SLOTS];
/// Cumulative chunk-body executions per slot.
static CHUNKS: [AtomicU64; UTIL_SLOTS] = [const { AtomicU64::new(0) }; UTIL_SLOTS];

thread_local! {
    /// This thread's utilization slot; non-worker threads publish into 0.
    static WORKER_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Adds one finished stretch of chunk work to this thread's slot.
///
/// Called once per `Job::execute` invocation (not per chunk), so the
/// atomics sit well off the chunk-claim hot loop.
fn flush_busy(busy_ns: u64, chunks: u64) {
    if chunks == 0 {
        return;
    }
    let slot = WORKER_SLOT.with(std::cell::Cell::get).min(UTIL_SLOTS - 1);
    BUSY_NS[slot].fetch_add(busy_ns, Ordering::Relaxed);
    CHUNKS[slot].fetch_add(chunks, Ordering::Relaxed);
}

/// Records timed inline execution (the no-pool path) into slot 0.
pub(crate) fn record_inline(busy_ns: u64, chunks: u64) {
    flush_busy(busy_ns, chunks);
}

/// Reads the cumulative per-slot counters: `(busy_ns, chunks)` per slot.
pub(crate) fn utilization_counters() -> Vec<(u64, u64)> {
    (0..UTIL_SLOTS)
        .map(|s| {
            (
                BUSY_NS[s].load(Ordering::Relaxed),
                CHUNKS[s].load(Ordering::Relaxed),
            )
        })
        .collect()
}

/// Type-erased pointer to the caller's chunk closure.
///
/// The publishing thread blocks until `pending` reaches zero, i.e. until
/// every chunk body has returned, before its stack frame (which owns the
/// closure) can unwind — and once `next >= total` no thread dereferences
/// the pointer again. So the pointer never dangles while reachable.
#[derive(Clone, Copy)]
struct RunPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the closure behind the pointer is `Sync`, and the lifetime
// argument is upheld by the blocking protocol described on `RunPtr`.
unsafe impl Send for RunPtr {}
// SAFETY: as above — shared references to a `Sync` closure are fine.
unsafe impl Sync for RunPtr {}

/// One published fan-out: `total` chunks claimed via an atomic cursor.
struct Job {
    seq: u64,
    run: RunPtr,
    /// Next chunk index to claim.
    next: AtomicUsize,
    total: usize,
    /// Chunks claimed but not yet finished plus chunks never claimed.
    pending: AtomicUsize,
    /// Workers that adopted this job (the publisher is not counted).
    helpers: AtomicUsize,
    max_helpers: usize,
    /// Captured from `kraftwerk_trace::enabled()` at publish time, so the
    /// per-chunk clock reads only happen under an installed sink.
    timed: bool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claims and executes chunks until the cursor runs past `total`.
    fn execute(&self) {
        let mut busy_ns = 0u64;
        let mut chunks = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.total {
                break;
            }
            // SAFETY: `pending > 0` here (this chunk has not finished),
            // so the publisher is still blocked and the closure alive.
            let run = unsafe { &*self.run.0 };
            let start = self.timed.then(Instant::now);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
                *self.panic.lock().expect("par: panic slot poisoned") = Some(payload);
            }
            if let Some(start) = start {
                busy_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                chunks += 1;
            }
            if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                *self.done.lock().expect("par: done flag poisoned") = true;
                self.done_cv.notify_all();
            }
        }
        if self.timed {
            flush_busy(busy_ns, chunks);
        }
    }
}

/// The process-wide pool: the jobs in flight plus lazily spawned workers.
pub(crate) struct Pool {
    /// Published jobs not yet drained, oldest first. A chunk body, or a
    /// publisher's `beside` closure, may publish a nested job while the
    /// enclosing job still has unclaimed chunks, so more than one job can
    /// be open at once.
    jobs: Mutex<Vec<Arc<Job>>>,
    work_cv: Condvar,
    next_seq: AtomicU64,
    spawned: Mutex<usize>,
}

/// The singleton instance.
pub(crate) fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        jobs: Mutex::new(Vec::new()),
        work_cv: Condvar::new(),
        next_seq: AtomicU64::new(1),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Runs `run(0..n_chunks)` across up to `threads` threads (publisher
    /// included) and returns once every chunk has finished, re-raising
    /// the first captured panic payload.
    ///
    /// With `beside`, the publisher first runs that closure itself — it
    /// counts as one more chunk of this thread — while the workers start
    /// on the published chunks; then it claims whatever chunks are left.
    /// A panic in `beside` is re-raised once the job has drained.
    pub(crate) fn run(
        &'static self,
        n_chunks: usize,
        threads: usize,
        timed: bool,
        run: &(dyn Fn(usize) + Sync),
        beside: Option<&mut dyn FnMut()>,
    ) {
        let helpers = threads.min(MAX_THREADS) - 1;
        self.ensure_workers(helpers);
        // SAFETY: lifetime erasure only; see `RunPtr` for the protocol
        // that keeps the pointer valid while any thread can use it.
        let run = RunPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(run)
        });
        let job = Arc::new(Job {
            seq: self.next_seq.fetch_add(1, Ordering::SeqCst),
            run,
            next: AtomicUsize::new(0),
            total: n_chunks,
            pending: AtomicUsize::new(n_chunks),
            helpers: AtomicUsize::new(0),
            max_helpers: helpers,
            timed,
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        {
            let mut jobs = self.jobs.lock().expect("par: job list poisoned");
            jobs.push(job.clone());
            self.work_cv.notify_all();
        }
        let beside_panic = beside.and_then(|f| {
            let start = timed.then(Instant::now);
            let result = catch_unwind(AssertUnwindSafe(f));
            if let Some(start) = start {
                flush_busy(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX), 1);
            }
            result.err()
        });
        // The publisher claims chunks too: the job drains even when every
        // worker is occupied elsewhere.
        job.execute();
        let mut done = job.done.lock().expect("par: done flag poisoned");
        while !*done {
            done = job.done_cv.wait(done).expect("par: done flag poisoned");
        }
        drop(done);
        {
            let mut jobs = self.jobs.lock().expect("par: job list poisoned");
            jobs.retain(|j| j.seq != job.seq);
        }
        let payload = beside_panic.or_else(|| job.panic.lock().expect("par: panic slot poisoned").take());
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Tops the worker head-count up to `target` (never shrinks; surplus
    /// workers simply skip jobs whose `max_helpers` is already met).
    fn ensure_workers(&'static self, target: usize) {
        let mut spawned = self.spawned.lock().expect("par: spawn count poisoned");
        while *spawned < target.min(MAX_THREADS - 1) {
            let index = *spawned;
            std::thread::Builder::new()
                .name(format!("kraftwerk-par-{index}"))
                .spawn(move || self.worker_loop(index))
                .expect("par: spawn worker thread");
            *spawned += 1;
        }
    }

    fn worker_loop(&'static self, index: usize) {
        WORKER_SLOT.with(|slot| slot.set((index + 1).min(UTIL_SLOTS - 1)));
        loop {
            // Oldest open job first: when a publisher fans out again
            // while its own job still has unclaimed chunks (the calling
            // branch of a `join` fanning out), a worker that wakes late
            // still takes the sibling branch instead of leaving it for
            // the publisher to run after its own.
            let job = {
                let mut jobs = self.jobs.lock().expect("par: job list poisoned");
                loop {
                    let open = jobs.iter().find(|j| {
                        j.next.load(Ordering::SeqCst) < j.total
                            && j.helpers.load(Ordering::SeqCst) < j.max_helpers
                    });
                    match open {
                        Some(job) => break job.clone(),
                        None => jobs = self.work_cv.wait(jobs).expect("par: job list poisoned"),
                    }
                }
            };
            if job.helpers.fetch_add(1, Ordering::SeqCst) < job.max_helpers {
                job.execute();
            }
        }
    }
}
