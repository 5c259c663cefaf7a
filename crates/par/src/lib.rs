//! Deterministic data-parallel runtime for the Kraftwerk placer.
//!
//! Standard-library only, matching the `kraftwerk-trace` ethos: the crate
//! must build in offline/no-registry sandboxes.
//!
//! # The determinism contract
//!
//! Every primitive here splits its input into chunks whose boundaries are
//! a pure function of the **input size** (and the caller's chunk length) —
//! never of the thread count — and combines per-chunk results **in chunk
//! index order**. The worker pool only decides *which thread* executes
//! each chunk, which is unobservable. Consequently a computation built on
//! these primitives produces bitwise-identical results at any
//! `KRAFTWERK_THREADS` setting, including 1 (where everything runs inline
//! on the calling thread with the exact same chunking).
//!
//! # Thread-count control
//!
//! The effective thread count is resolved in this order:
//!
//! 1. the last [`set_threads`] call with a non-zero argument
//!    (the CLI `--threads` flag and `KraftwerkConfig::threads` end here);
//! 2. the `KRAFTWERK_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! With an effective count of 1 no worker threads are ever spawned and no
//! synchronization is performed — the sequential path is zero-overhead.
//!
//! # Telemetry
//!
//! When a `kraftwerk-trace` sink is installed, every fan-out that
//! actually engages the pool bumps the `par.tasks` counter, and thread
//! count changes set the `par.threads` gauge.

mod pool;

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sentinel for "not configured yet" in [`CONFIGURED`].
const UNSET: usize = usize::MAX;

/// The resolved thread target (UNSET until first use / `set_threads`).
static CONFIGURED: AtomicUsize = AtomicUsize::new(UNSET);

fn auto_threads() -> usize {
    if let Ok(raw) = std::env::var("KRAFTWERK_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(pool::MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(pool::MAX_THREADS)
}

/// Sets the effective thread count for all subsequent parallel calls in
/// this process. `0` re-resolves from `KRAFTWERK_THREADS` / the machine.
pub fn set_threads(threads: usize) {
    let resolved = if threads == 0 {
        auto_threads()
    } else {
        threads.min(pool::MAX_THREADS)
    };
    CONFIGURED.store(resolved, Ordering::SeqCst);
    if kraftwerk_trace::enabled() {
        kraftwerk_trace::gauge("par.threads", resolved as f64);
    }
}

/// The effective thread count (resolving the environment on first use).
#[must_use]
pub fn current_threads() -> usize {
    let configured = CONFIGURED.load(Ordering::SeqCst);
    if configured != UNSET {
        return configured;
    }
    let resolved = auto_threads();
    // Benign race: concurrent first calls resolve to the same value.
    let _ = CONFIGURED.compare_exchange(UNSET, resolved, Ordering::SeqCst, Ordering::SeqCst);
    CONFIGURED.load(Ordering::SeqCst)
}

/// Number of chunks a `len`-element input splits into — a pure function
/// of the input size, never of the thread count.
///
/// # Panics
///
/// Panics if `chunk` is zero.
#[must_use]
pub fn chunk_count(len: usize, chunk: usize) -> usize {
    assert!(chunk > 0, "chunk length must be positive");
    len.div_ceil(chunk)
}

/// Executes `run(0) .. run(n_chunks - 1)`, each exactly once, across the
/// pool (or inline when the effective thread count is 1 or there is at
/// most one chunk). Returns when all chunks have finished.
///
/// # Panics
///
/// Re-raises a panic from any chunk body on the calling thread after the
/// remaining chunks have completed — a panicking chunk never hangs the
/// pool.
pub fn run_chunks(n_chunks: usize, run: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    let threads = current_threads();
    let timed = kraftwerk_trace::enabled();
    if threads <= 1 || n_chunks == 1 {
        run_inline(n_chunks, timed, || (0..n_chunks).for_each(run));
        return;
    }
    if timed {
        kraftwerk_trace::counter("par.tasks", 1);
    }
    pool::pool().run(n_chunks, threads, timed, run, None);
}

/// Runs `f` on the calling thread; when `timed`, records its wall time as
/// `n_chunks` chunk bodies of inline work.
fn run_inline<R>(n_chunks: usize, timed: bool, f: impl FnOnce() -> R) -> R {
    let start = timed.then(std::time::Instant::now);
    let out = f();
    if let Some(start) = start {
        let busy = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        pool::record_inline(busy, n_chunks as u64);
    }
    out
}

/// Calls `f(chunk_index, chunk_slice)` for every `chunk`-sized piece of
/// `items` (the last piece may be shorter). Chunk boundaries depend only
/// on `items.len()` and `chunk`.
pub fn for_each_chunk<T: Sync>(items: &[T], chunk: usize, f: impl Fn(usize, &[T]) + Sync) {
    let len = items.len();
    run_chunks(chunk_count(len, chunk), &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        f(c, &items[lo..hi]);
    });
}

struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only used to carve disjoint sub-slices per
// chunk; `T: Send` makes handing those slices to other threads sound.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — each chunk touches a disjoint region.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Mutable variant of [`for_each_chunk`]: every chunk gets exclusive
/// access to its own disjoint sub-slice.
pub fn for_each_chunk_mut<T: Send>(items: &mut [T], chunk: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let len = items.len();
    let base = SendPtr(items.as_mut_ptr());
    run_chunks(chunk_count(len, chunk), &|c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        // SAFETY: [lo, hi) ranges of distinct chunks are disjoint and
        // within bounds; the borrow of `items` outlives `run_chunks`.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(lo), hi - lo) };
        f(c, slice);
    });
}

/// Maps `f(index, &items[index])` over the input, preserving order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    chunk: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for_each_chunk_mut(&mut out, chunk, |c, slots| {
        let base = c * chunk;
        for (j, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(base + j, &items[base + j]));
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("par_map: chunk filled every slot"))
        .collect()
}

/// Maps `map(chunk_index, index_range)` over the fixed chunking of
/// `0..len` and folds the partial results **in chunk index order** with
/// `reduce`. Returns `None` for an empty input.
///
/// Because both the chunk boundaries and the fold order are independent
/// of the thread count, floating-point reductions built on this are
/// bitwise reproducible at any `KRAFTWERK_THREADS` setting.
pub fn par_map_reduce<R: Send>(
    len: usize,
    chunk: usize,
    map: impl Fn(usize, Range<usize>) -> R + Sync,
    reduce: impl FnMut(R, R) -> R,
) -> Option<R> {
    let n = chunk_count(len, chunk);
    let mut partials: Vec<Option<R>> = Vec::with_capacity(n);
    partials.resize_with(n, || None);
    let map = &map;
    for_each_chunk_mut(&mut partials, 1, |c, slot| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(len);
        slot[0] = Some(map(c, lo..hi));
    });
    let mut ordered = partials
        .into_iter()
        .map(|p| p.expect("par_map_reduce: every chunk mapped"));
    let first = ordered.next()?;
    Some(ordered.fold(first, reduce))
}

/// Cumulative worker-utilization counters, captured with
/// [`UtilizationSnapshot::capture`].
///
/// Slot 0 is the publishing (or inline) thread; slot `i >= 1` is worker
/// thread `i - 1`. Counters only advance while a `kraftwerk-trace` sink
/// is installed (timing is captured per job at publish time), so they
/// cost nothing in untraced runs. Subtract two snapshots with
/// [`UtilizationSnapshot::since`] to get the utilization of one span.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UtilizationSnapshot {
    /// Busy nanoseconds per slot, trimmed to the last non-zero slot.
    pub busy_ns: Vec<u64>,
    /// Chunk-body executions per slot, trimmed like `busy_ns`.
    pub chunks: Vec<u64>,
}

impl UtilizationSnapshot {
    /// Reads the current cumulative counters.
    #[must_use]
    pub fn capture() -> Self {
        let counters = pool::utilization_counters();
        let used = counters
            .iter()
            .rposition(|&(busy, chunks)| busy > 0 || chunks > 0)
            .map_or(0, |i| i + 1);
        Self {
            busy_ns: counters[..used].iter().map(|&(b, _)| b).collect(),
            chunks: counters[..used].iter().map(|&(_, c)| c).collect(),
        }
    }

    /// The counter advance from `earlier` to `self` (saturating, so a
    /// stale "earlier" snapshot never underflows).
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        let delta = |now: &[u64], then: &[u64]| -> Vec<u64> {
            now.iter()
                .enumerate()
                .map(|(i, &v)| v.saturating_sub(then.get(i).copied().unwrap_or(0)))
                .collect()
        };
        let mut out = Self {
            busy_ns: delta(&self.busy_ns, &earlier.busy_ns),
            chunks: delta(&self.chunks, &earlier.chunks),
        };
        let used = out
            .busy_ns
            .iter()
            .zip(&out.chunks)
            .rposition(|(&b, &c)| b > 0 || c > 0)
            .map_or(0, |i| i + 1);
        out.busy_ns.truncate(used);
        out.chunks.truncate(used);
        out
    }

    /// Total busy time across all slots, in seconds.
    #[must_use]
    pub fn busy_seconds(&self) -> f64 {
        self.busy_ns.iter().map(|&ns| ns as f64).sum::<f64>() / 1e9
    }

    /// Total chunk-body executions across all slots.
    #[must_use]
    pub fn total_chunks(&self) -> u64 {
        self.chunks.iter().sum()
    }

    /// Number of slots that did any work.
    #[must_use]
    pub fn workers_engaged(&self) -> usize {
        self.busy_ns
            .iter()
            .zip(&self.chunks)
            .filter(|&(&b, &c)| b > 0 || c > 0)
            .count()
    }

    /// Parallel efficiency of a span: busy time divided by the
    /// wall-clock capacity `wall_s * threads`. 1.0 means every thread
    /// was busy for the whole span; returns `None` for a degenerate
    /// (zero-capacity) span.
    #[must_use]
    pub fn parallel_efficiency(&self, wall_s: f64, threads: usize) -> Option<f64> {
        let capacity = wall_s * threads as f64;
        (capacity > 0.0).then(|| self.busy_seconds() / capacity)
    }
}

/// Runs two independent closures, concurrently when more than one thread
/// is configured, and returns both results. Used for the x/y conjugate
/// gradient solves, which are independent linear systems, and for the
/// Poisson solve beside the system assembly.
///
/// `a` always runs on the calling thread; `b` is published to the pool
/// and runs on a worker, or on the calling thread after `a` when no
/// worker took it. At one thread `a` runs first, then `b`.
///
/// # Panics
///
/// Re-raises a panic from either closure after both have settled.
pub fn join<A: Send, B: Send>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B) {
    let threads = current_threads();
    let timed = kraftwerk_trace::enabled();
    if threads <= 1 {
        return run_inline(2, timed, || (a(), b()));
    }
    if timed {
        kraftwerk_trace::counter("par.tasks", 1);
    }
    let fb = Mutex::new(Some(b));
    let rb: Mutex<Option<B>> = Mutex::new(None);
    let mut a = Some(a);
    let mut ra = None;
    pool::pool().run(
        1,
        threads,
        timed,
        &|_| {
            let f = fb.lock().expect("join: branch poisoned").take();
            let value = f.expect("join: branch runs once")();
            *rb.lock().expect("join: result poisoned") = Some(value);
        },
        Some(&mut || ra = Some(a.take().expect("join: branch runs once")())),
    );
    let a = ra.expect("join: first branch completed");
    let b = rb
        .into_inner()
        .expect("join: result poisoned")
        .expect("join: second branch completed");
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex as StdMutex;

    /// Serializes tests that reconfigure the process-wide thread count.
    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        static LOCK: StdMutex<()> = StdMutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_threads(threads);
        let result = f();
        set_threads(1);
        result
    }

    fn lcg_values(n: usize) -> Vec<f64> {
        let mut state = 0x2545f4914f6cdd1du64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Spread across magnitudes so summation order matters.
                let raw = (state >> 11) as f64 / (1u64 << 53) as f64;
                (raw - 0.5) * 10f64.powi((state % 7) as i32)
            })
            .collect()
    }

    fn blocked_sum(values: &[f64], chunk: usize) -> f64 {
        par_map_reduce(
            values.len(),
            chunk,
            |_, range| values[range].iter().sum::<f64>(),
            |a, b| a + b,
        )
        .unwrap_or(0.0)
    }

    #[test]
    fn empty_input_runs_nothing() {
        with_threads(4, || {
            let calls = AtomicUsize::new(0);
            for_each_chunk::<u8>(&[], 16, |_, _| {
                calls.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(calls.load(Ordering::SeqCst), 0);
            assert!(par_map::<u8, u8>(&[], 16, |_, &v| v).is_empty());
            assert_eq!(
                par_map_reduce(0, 16, |_, _| 1u64, |a, b| a + b),
                None
            );
        });
    }

    #[test]
    fn input_smaller_than_one_chunk_is_a_single_call() {
        with_threads(4, || {
            let seen: StdMutex<Vec<(usize, Vec<u32>)>> = StdMutex::new(Vec::new());
            let items = [7u32, 8, 9];
            for_each_chunk(&items, 64, |c, slice| {
                seen.lock().unwrap().push((c, slice.to_vec()));
            });
            assert_eq!(seen.into_inner().unwrap(), vec![(0, vec![7, 8, 9])]);
        });
    }

    #[test]
    fn chunk_boundaries_cover_exactly_once() {
        with_threads(8, || {
            for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100] {
                let items: Vec<usize> = (0..len).collect();
                let seen: StdMutex<Vec<(usize, usize, usize)>> = StdMutex::new(Vec::new());
                for_each_chunk(&items, 16, |c, slice| {
                    let lo = slice.first().copied().unwrap_or(c * 16);
                    seen.lock().unwrap().push((c, lo, slice.len()));
                });
                let mut seen = seen.into_inner().unwrap();
                seen.sort_unstable();
                assert_eq!(seen.len(), chunk_count(len, 16).max(0));
                let mut covered = 0;
                for (c, lo, n) in seen {
                    assert_eq!(lo, c * 16, "chunk {c} starts at its boundary");
                    assert_eq!(lo, covered, "no gap before chunk {c}");
                    covered += n;
                }
                assert_eq!(covered, len, "every element covered exactly once");
            }
        });
    }

    #[test]
    fn mutable_chunks_are_disjoint_and_complete() {
        with_threads(4, || {
            let mut data = vec![0u64; 1001];
            for_each_chunk_mut(&mut data, 64, |c, slice| {
                for (j, v) in slice.iter_mut().enumerate() {
                    *v += (c * 64 + j) as u64 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u64 + 1, "element {i} written exactly once");
            }
        });
    }

    #[test]
    fn par_map_preserves_order() {
        with_threads(4, || {
            let items: Vec<u32> = (0..301).collect();
            let mapped = par_map(&items, 16, |i, &v| {
                assert_eq!(i as u32, v);
                v * 2
            });
            assert_eq!(mapped.len(), 301);
            for (i, v) in mapped.iter().enumerate() {
                assert_eq!(*v, 2 * i as u32);
            }
        });
    }

    #[test]
    fn reduction_is_bitwise_identical_across_thread_counts() {
        let values = lcg_values(10_000);
        let reference = with_threads(1, || blocked_sum(&values, 64));
        for threads in [2usize, 4, 8] {
            let sum = with_threads(threads, || blocked_sum(&values, 64));
            assert_eq!(
                sum.to_bits(),
                reference.to_bits(),
                "{threads} threads changed the reduction"
            );
        }
    }

    #[test]
    fn panicking_chunk_propagates_cleanly_and_pool_survives() {
        with_threads(4, || {
            let result = std::panic::catch_unwind(|| {
                run_chunks(32, &|i| {
                    if i == 17 {
                        panic!("chunk 17 exploded");
                    }
                });
            });
            let payload = result.expect_err("panic must propagate");
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("<non-str payload>");
            assert!(message.contains("chunk 17 exploded"));
            // The pool must stay usable after a panic.
            let count = AtomicU64::new(0);
            run_chunks(32, &|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(count.load(Ordering::SeqCst), 32);
        });
    }

    #[test]
    fn join_returns_both_results() {
        with_threads(2, || {
            let (a, b) = join(|| 6 * 7, || "hi".to_string());
            assert_eq!(a, 42);
            assert_eq!(b, "hi");
        });
        with_threads(1, || {
            let (a, b) = join(|| 1u8, || 2u8);
            assert_eq!((a, b), (1, 2));
        });
    }

    #[test]
    fn join_propagates_panics() {
        with_threads(2, || {
            let result = std::panic::catch_unwind(|| {
                join(|| 1u8, || -> u8 { panic!("right branch") })
            });
            assert!(result.is_err());
            let b_ran = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(|| {
                join(
                    || -> u8 { panic!("left branch") },
                    || b_ran.fetch_add(1, Ordering::SeqCst),
                )
            });
            assert!(result.is_err());
            assert_eq!(b_ran.load(Ordering::SeqCst), 1, "right branch settled first");
        });
    }

    #[test]
    fn join_runs_its_first_branch_on_the_calling_thread() {
        for threads in [2usize, 8] {
            with_threads(threads, || {
                let caller = std::thread::current().id();
                for _ in 0..50 {
                    // Keep the workers awake and scanning for work, the
                    // state in which one could race the caller for `a`.
                    run_chunks(16, &|_| {
                        std::hint::black_box(0u64);
                    });
                    let (a, _) = join(|| std::thread::current().id(), || std::thread::current().id());
                    assert_eq!(a, caller, "first branch left the calling thread at {threads} threads");
                }
            });
        }
    }

    #[test]
    fn utilization_counters_only_advance_under_a_sink() {
        with_threads(2, || {
            // Untraced: the counters must not move at all.
            let before = UtilizationSnapshot::capture();
            run_chunks(8, &|_| {
                std::hint::black_box(0u64);
            });
            let idle = UtilizationSnapshot::capture().since(&before);
            assert_eq!(idle.total_chunks(), 0, "untraced run advanced counters");

            // Traced: every chunk body is accounted for exactly once.
            let recorder = std::sync::Arc::new(kraftwerk_trace::RunRecorder::new());
            kraftwerk_trace::install(recorder);
            let before = UtilizationSnapshot::capture();
            run_chunks(16, &|_| {
                std::hint::black_box(0u64);
            });
            let spun = UtilizationSnapshot::capture().since(&before);
            kraftwerk_trace::uninstall();
            assert_eq!(spun.total_chunks(), 16, "each chunk counted once");
            assert!(spun.workers_engaged() >= 1);
            assert!(spun.busy_seconds() >= 0.0);
            assert!(spun.parallel_efficiency(0.0, 2).is_none());
            let eff = spun.parallel_efficiency(1.0, 2).unwrap();
            assert!(eff >= 0.0);
        });
    }

    #[test]
    fn set_threads_zero_resolves_automatically() {
        with_threads(4, || {
            assert_eq!(current_threads(), 4);
            set_threads(0);
            assert!(current_threads() >= 1);
        });
    }
}
