//! The daemon's service-metrics surface: one [`Registry`] per server
//! instance with every series the job lifecycle touches resolved once at
//! startup, so hot-path updates are plain atomic operations and never
//! take the registry lock.
//!
//! Naming follows Prometheus conventions: `kraftwerk_` prefix, `_total`
//! counters, `_seconds` histogram units, outcomes as labels on one
//! `kraftwerk_jobs_total` family rather than a name per outcome.

use std::sync::Arc;
use std::time::Instant;

use kraftwerk_trace::metrics::{Counter, Gauge, MetricHistogram, Registry};

/// Pre-resolved handles for every series the daemon updates. Owned by the
/// server's shared state; scraped via [`Registry::snapshot`].
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    /// The backing registry (exposition + snapshot).
    pub registry: Registry,
    /// Server start time, for the uptime gauge and stats frame.
    pub started: Instant,
    /// Connections accepted.
    pub connections: Arc<Counter>,
    /// Jobs finishing `ok`.
    pub jobs_ok: Arc<Counter>,
    /// Jobs finishing `degraded`.
    pub jobs_degraded: Arc<Counter>,
    /// Jobs ending in an error frame.
    pub jobs_failed: Arc<Counter>,
    /// Jobs rejected with `busy` backpressure.
    pub jobs_rejected: Arc<Counter>,
    /// Jobs whose worker panicked (also counted in `jobs_failed`).
    pub job_panics: Arc<Counter>,
    /// Jobs cut short by their wall-clock deadline.
    pub deadline_exhausted: Arc<Counter>,
    /// Damped-force retry attempts.
    pub retries: Arc<Counter>,
    /// Jobs that reused a pooled scratch arena.
    pub arena_hits: Arc<Counter>,
    /// Jobs that had to build a fresh scratch arena.
    pub arena_misses: Arc<Counter>,
    /// Progress frames written to a client socket.
    pub progress_sent: Arc<Counter>,
    /// Progress frames dropped because the client socket would block.
    pub progress_dropped: Arc<Counter>,
    /// Journal writes that failed (journaling then disables per job).
    pub journal_write_failures: Arc<Counter>,
    /// Jobs currently waiting in the bounded queue.
    pub queue_depth: Arc<Gauge>,
    /// Jobs currently being placed by a worker.
    pub in_flight: Arc<Gauge>,
    /// Scratch arenas currently pooled.
    pub arena_pool_size: Arc<Gauge>,
    /// Seconds since the server started (refreshed at scrape time).
    pub uptime_seconds: Arc<Gauge>,
    /// Queue wait per job (enqueue to worker pickup), seconds.
    pub queue_wait_seconds: Arc<MetricHistogram>,
    /// Worker wall time per job (pickup to terminal frame), seconds.
    pub solve_wall_seconds: Arc<MetricHistogram>,
    /// Connection-thread time per request frame (first byte read to
    /// parsed request), seconds. Precedes admission, so neither the
    /// queue wait nor the solve wall covers it.
    pub frame_parse_seconds: Arc<MetricHistogram>,
}

impl ServiceMetrics {
    /// Builds the registry and resolves every series.
    pub fn new() -> Self {
        let registry = Registry::new();
        let jobs = |outcome: &str| {
            registry.counter(
                "kraftwerk_jobs_total",
                &[("outcome", outcome)],
                "Jobs by terminal outcome (ok/degraded/failed/rejected).",
            )
        };
        let arena = |result: &str| {
            registry.counter(
                "kraftwerk_arena_pool_total",
                &[("result", result)],
                "Scratch-arena pool lookups by result.",
            )
        };
        let progress = |result: &str| {
            registry.counter(
                "kraftwerk_progress_frames_total",
                &[("result", result)],
                "Progress frames by delivery result (sent/dropped).",
            )
        };
        Self {
            connections: registry.counter(
                "kraftwerk_connections_total",
                &[],
                "Connections accepted.",
            ),
            jobs_ok: jobs("ok"),
            jobs_degraded: jobs("degraded"),
            jobs_failed: jobs("failed"),
            jobs_rejected: jobs("rejected"),
            job_panics: registry.counter(
                "kraftwerk_job_panics_total",
                &[],
                "Jobs whose worker panicked (isolated; also counted failed).",
            ),
            deadline_exhausted: registry.counter(
                "kraftwerk_deadline_exhausted_total",
                &[],
                "Jobs cut short by their wall-clock deadline.",
            ),
            retries: registry.counter(
                "kraftwerk_retries_total",
                &[],
                "Damped-force retry attempts after a degraded first run.",
            ),
            arena_hits: arena("hit"),
            arena_misses: arena("miss"),
            progress_sent: progress("sent"),
            progress_dropped: progress("dropped"),
            journal_write_failures: registry.counter(
                "kraftwerk_journal_write_failures_total",
                &[],
                "Failed journal writes (journaling disables for that job).",
            ),
            queue_depth: registry.gauge(
                "kraftwerk_queue_depth",
                &[],
                "Jobs waiting in the bounded queue.",
            ),
            in_flight: registry.gauge(
                "kraftwerk_jobs_in_flight",
                &[],
                "Jobs currently being placed by a worker.",
            ),
            arena_pool_size: registry.gauge(
                "kraftwerk_arena_pool_size",
                &[],
                "Scratch arenas currently pooled for reuse.",
            ),
            uptime_seconds: registry.gauge(
                "kraftwerk_uptime_seconds",
                &[],
                "Seconds since the server started.",
            ),
            queue_wait_seconds: registry.histogram(
                "kraftwerk_queue_wait_seconds",
                &[],
                "Per-job queue wait: enqueue to worker pickup.",
            ),
            solve_wall_seconds: registry.histogram(
                "kraftwerk_solve_wall_seconds",
                &[],
                "Per-job worker wall time: pickup to terminal frame.",
            ),
            frame_parse_seconds: registry.histogram(
                "kraftwerk_frame_parse_seconds",
                &[],
                "Per-frame connection-thread time: first byte read to parsed request.",
            ),
            started: Instant::now(),
            registry,
        }
    }

    /// Seconds since the server started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Refreshes the uptime gauge and renders the registry as Prometheus
    /// text exposition.
    pub fn exposition(&self) -> String {
        self.uptime_seconds.set(self.uptime_s());
        self.registry.snapshot().to_prometheus()
    }
}
