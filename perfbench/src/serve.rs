//! The `serve-mixed` workload: an in-process placement daemon driven by a
//! closed loop of clients over its JSONL/TCP protocol. Every job is a
//! distinct generated netlist, so no result reuse can pose as speed.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kraftwerk_core::{GlobalPlacer, KraftwerkConfig};
use kraftwerk_netlist::format::{read_netlist, write_netlist};
use kraftwerk_netlist::metrics;
use kraftwerk_netlist::synth::{generate, SynthConfig};
use kraftwerk_par::UtilizationSnapshot;
use kraftwerk_serve::{Client, PlaceOptions, ServeConfig, Server, ServerSummary};
use kraftwerk_trace::json::Json;
use kraftwerk_trace::RunRecorder;

use crate::spans::Spans;
use crate::stats::{median, mix, percentile};
use crate::{Args, Report};

/// Daemon starts per run; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Closed-loop clients, each with one job in flight.
const CLIENTS: usize = 2;
/// Daemon placement workers.
const WORKERS: usize = 2;
/// Jobs whose HPWL sum is `hpwl_m`: the same job set in every run.
const FIXED_JOBS: usize = 100;
/// Every run completes at least this many jobs, so at least ten client
/// latencies lie beyond the 90th percentile.
const MIN_JOBS: usize = 120;
/// Jobs resubmitted after the measurement to check that the daemon
/// returns a bitwise-identical HPWL for the same netlist.
const RECHECK_JOBS: usize = 2;

/// The generator config of job `index`: 300–1200 movable cells in steps
/// of 100, cycling over each block of ten consecutive jobs so every run
/// sees the same size mix, and the circuit itself drawn from the seed.
fn job_config(seed: u64, index: usize) -> SynthConfig {
    let h = mix(seed ^ mix(index as u64 + 1));
    let cells = 300 + (index % 10) * 100;
    let nets = cells * 23 / 20;
    let rows = ((cells as f64).sqrt() * 0.55).round().max(4.0) as usize;
    SynthConfig::with_size(format!("job{index}"), cells, nets, rows).seed(h)
}

fn job_text(seed: u64, index: usize) -> String {
    write_netlist(&generate(&job_config(seed, index)))
}

/// One job as the client saw it.
struct Job {
    index: usize,
    latency_s: f64,
    wall_s: f64,
    hpwl: f64,
    failure: Option<String>,
}

struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<ServerSummary>>,
}

/// Binds and starts a daemon; returns it with the seconds from
/// `Server::bind` until its first `pong`.
fn start_daemon() -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let server = Server::bind(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let pong = client.ping().map_err(|e| format!("ping: {e}"))?;
    let setup_s = started.elapsed().as_secs_f64();
    if pong.get("type").and_then(Json::as_str) != Some("pong") {
        return Err(format!("ping answered with {pong:?}"));
    }
    Ok((Daemon { addr, thread }, setup_s))
}

fn stop_daemon(daemon: Daemon) -> Result<ServerSummary, String> {
    Client::connect(daemon.addr)
        .and_then(|mut c| c.shutdown())
        .map_err(|e| format!("shutdown: {e}"))?;
    daemon
        .thread
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))
}

/// Sends one job, retrying `busy` answers after the daemon's hint.
/// Returns the terminal outcome and the number of busy retries.
fn place(
    client: &mut Client,
    id: &str,
    text: &str,
) -> Result<(kraftwerk_serve::JobOutcome, u64), String> {
    let mut retries = 0;
    loop {
        let out = client
            .place(id, text, &PlaceOptions::default())
            .map_err(|e| format!("transport: {e}"))?;
        if out.status != "busy" {
            return Ok((out, retries));
        }
        retries += 1;
        std::thread::sleep(Duration::from_millis(out.retry_after_ms.unwrap_or(50)));
    }
}

/// One closed-loop client: takes the next job index, generates its text,
/// and sends it only after the previous result arrived.
fn client_loop(
    addr: SocketAddr,
    args: &Args,
    spans: &Spans,
    next: &AtomicUsize,
    started: Instant,
    jobs: &Mutex<Vec<Job>>,
    busy_retries: &AtomicUsize,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    loop {
        let index = next.fetch_add(1, Ordering::SeqCst);
        if index >= MIN_JOBS && started.elapsed().as_secs_f64() >= args.seconds {
            return Ok(());
        }
        let run = index as u64 + 1;
        let root = spans.open("bench.job", Spans::ROOT, run);
        let text = spans.scope("netlist.write", root, run, || job_text(args.seed, index));
        let id = format!("job-{index}");
        let sent = Instant::now();
        let outcome = spans.scope("serve.place", root, run, || place(&mut client, &id, &text));
        let latency_s = sent.elapsed().as_secs_f64();
        spans.close(root);
        let job = match outcome {
            Ok((out, retries)) => {
                busy_retries.fetch_add(retries as usize, Ordering::Relaxed);
                let failure = if out.status != "ok" || out.budget_exhausted {
                    Some(format!(
                        "status {} (budget exhausted: {})",
                        out.status, out.budget_exhausted
                    ))
                } else if !out.hpwl.is_finite() {
                    Some("non-finite HPWL".into())
                } else {
                    None
                };
                Job {
                    index,
                    latency_s,
                    wall_s: out.wall_ms as f64 / 1e3,
                    hpwl: out.hpwl,
                    failure,
                }
            }
            Err(e) => Job {
                index,
                latency_s,
                wall_s: 0.0,
                hpwl: f64::NAN,
                failure: Some(e),
            },
        };
        jobs.lock().expect("job log poisoned").push(job);
    }
}

fn stat(frame: &Json, path: &[&str]) -> f64 {
    let mut v = frame;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// Runs the `serve-mixed` workload.
pub fn run(args: &Args, spans: &Spans) -> Result<Report, String> {
    let mut report = Report::default();

    // Set-up: bind a daemon and wait for its first pong, several times;
    // the last daemon serves the measurement.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (d, setup_s) = spans.scope(
            "serve.start",
            Spans::ROOT,
            1_000_000 + rep as u64,
            start_daemon,
        )?;
        setup.push(setup_s);
        if let Some(old) = daemon.replace(d) {
            stop_daemon(old)?;
        }
    }
    let daemon = daemon.expect("at least one set-up repetition");

    // Measurement: the closed loop, traced through a process-wide
    // recorder when this is the traced run.
    let recorder = args.trace.then(|| Arc::new(RunRecorder::new()));
    if let Some(r) = &recorder {
        kraftwerk_trace::install(r.clone());
    }
    let par_before = UtilizationSnapshot::capture();
    let next = AtomicUsize::new(0);
    let jobs = Mutex::new(Vec::new());
    let busy_retries = AtomicUsize::new(0);
    let started = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    client_loop(
                        daemon.addr,
                        args,
                        spans,
                        &next,
                        started,
                        &jobs,
                        &busy_retries,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let measured_s = started.elapsed().as_secs_f64();
    let par = UtilizationSnapshot::capture().since(&par_before);
    if recorder.is_some() {
        kraftwerk_trace::uninstall();
    }
    for r in results {
        r?;
    }
    let mut jobs = jobs.into_inner().expect("job log poisoned");
    jobs.sort_by_key(|j| j.index);

    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;

    // Output checks: every job ok; the first jobs resubmitted (untraced)
    // return the same HPWL bit for bit; the first job's HPWL equals the
    // library's own fast-mode placement of the same text.
    report.attempted = jobs.len() as u64;
    for job in &mut jobs {
        if job.index < RECHECK_JOBS && job.failure.is_none() {
            let text = job_text(args.seed, job.index);
            let (again, _) = place(&mut client, &format!("recheck-{}", job.index), &text)?;
            if again.hpwl.to_bits() != job.hpwl.to_bits() {
                job.failure = Some(format!(
                    "resubmitted HPWL {} differs from {}",
                    again.hpwl, job.hpwl
                ));
            }
            if job.index == 0 {
                let netlist =
                    read_netlist(&text).map_err(|e| format!("job text does not parse: {e}"))?;
                let local = GlobalPlacer::new(KraftwerkConfig::fast())
                    .try_place(&netlist)
                    .map_err(|e| format!("library placement failed: {e}"))?;
                let hpwl = metrics::hpwl(&netlist, &local.placement);
                if hpwl.to_bits() != job.hpwl.to_bits() {
                    job.failure = Some(format!(
                        "daemon HPWL {} differs from library HPWL {hpwl}",
                        job.hpwl
                    ));
                }
            }
        }
    }
    for job in &jobs {
        if let Some(why) = &job.failure {
            report.fail(format!("job {}: {why}", job.index));
        }
    }
    report.check(
        "serve_hpwl_deterministic",
        jobs.iter()
            .filter(|j| j.index < RECHECK_JOBS)
            .all(|j| j.failure.is_none()),
    );
    let summary = stop_daemon(daemon)?;
    report.check("daemon_reported_no_failed_jobs", summary.jobs_failed == 0);
    if summary.jobs_failed != 0 {
        report.fail(format!(
            "daemon counted {} failed jobs",
            summary.jobs_failed
        ));
    }

    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
    let p50 = median(&latencies);
    let p90 = percentile(&latencies, 0.9);
    let beyond = latencies.iter().filter(|&&l| l > p90).count();
    let hpwl_sum: f64 = jobs
        .iter()
        .filter(|j| j.index < FIXED_JOBS)
        .map(|j| j.hpwl)
        .sum();
    report.e2e("setup_s", median(&setup));
    report.e2e("place_s", p50);
    report.e2e("job_p90_s", p90);
    report.e2e("jobs_per_s", jobs.len() as f64 / measured_s);
    report.e2e("hpwl_m", hpwl_sum * 1e-6);
    report.note(format!(
        "job_p50_s = {p50} s (median client latency of {} jobs; place_s reports it)",
        jobs.len()
    ));
    report.note(format!(
        "job_p90_s = {p90} s ({beyond} of {} jobs beyond it)",
        jobs.len()
    ));
    report.note(format!(
        "jobs_per_s = {} 1/s ({} jobs in {measured_s} s, {CLIENTS} closed-loop clients, {WORKERS} workers)",
        jobs.len() as f64 / measured_s,
        jobs.len()
    ));
    report.note(format!(
        "hpwl_m = {} m (sum over jobs 0..{FIXED_JOBS})",
        hpwl_sum * 1e-6
    ));
    report.note(format!(
        "setup_s = {} s (median of {SETUP_REPS} bind-to-pong starts)",
        median(&setup)
    ));

    if args.trace {
        let mut parse_s = Vec::new();
        for i in 0..8 {
            let text = job_text(args.seed, i);
            let started = Instant::now();
            let netlist =
                read_netlist(&text).map_err(|e| format!("job {i} text does not parse: {e}"))?;
            netlist
                .validate()
                .map_err(|e| format!("job {i} netlist is invalid: {e}"))?;
            parse_s.push(started.elapsed().as_secs_f64());
        }
        report.layer("netlist.read_s", median(&parse_s));
        let overhead: Vec<f64> = jobs.iter().map(|j| j.latency_s - j.wall_s).collect();
        let done = stat(&stats, &["jobs_ok"])
            + stat(&stats, &["jobs_degraded"])
            + stat(&stats, &["jobs_failed"]);
        report.layer(
            "serve.queue_wait_p50_s",
            stat(&stats, &["queue_wait_s", "p50"]),
        );
        report.layer(
            "serve.solve_wall_p50_s",
            stat(&stats, &["solve_wall_s", "p50"]),
        );
        report.layer("serve.overhead_p50_s", median(&overhead));
        report.layer(
            "serve.arena_reuse_ratio",
            stat(&stats, &["arena_reuses"]) / done.max(1.0),
        );
        report.layer(
            "serve.busy_retries",
            busy_retries.load(Ordering::Relaxed) as f64,
        );
        report.layer("serve.rejections", stat(&stats, &["jobs_rejected"]));
        report.layer(
            "serve.progress_dropped",
            stat(&stats, &["progress_dropped"]),
        );
        report.layer("par.busy_s", par.busy_seconds());
        report.layer(
            "par.efficiency",
            par.parallel_efficiency(measured_s, WORKERS).unwrap_or(0.0),
        );
        if let Some(r) = recorder {
            let rep = r.report();
            let phase = |name: &str| -> f64 {
                rep.profile
                    .iter()
                    .filter(|p| p.name == name)
                    .map(|p| p.seconds)
                    .sum()
            };
            let counter = |name: &str| -> f64 {
                rep.counters
                    .iter()
                    .filter(|(k, _)| k == name)
                    .map(|(_, v)| *v as f64)
                    .sum()
            };
            let per_job = 1.0 / jobs.len().max(1) as f64;
            report.layer("core.levels", 1.0);
            report.layer("core.transforms", rep.iterations.len() as f64 * per_job);
            report.layer(
                "core.force_assembly_s",
                phase("place.force_assembly") * per_job,
            );
            report.layer("field.solve_s", phase("place.field_solve") * per_job);
            report.layer("field.density_map_s", phase("place.density_map") * per_job);
            report.layer(
                "field.solves",
                (counter("multigrid.solves")
                    + counter("spectral.solves")
                    + counter("hybrid.solves"))
                    * per_job,
            );
            report.layer(
                "sparse.cg_s",
                (phase("place.solve_x") + phase("place.solve_y")) * per_job,
            );
            report.layer("sparse.cg_iterations", counter("cg.iterations") * per_job);
        }
    }
    Ok(report)
}
