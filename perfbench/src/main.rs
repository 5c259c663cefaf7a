//! The repository benchmark.
//!
//! ```text
//! kraftwerk-perfbench --workload <flat-biomed|ml-scale50k|serve-mixed>
//!                     --seed <n> --seconds <s> --trace <0|1>
//!                     [--rustc <version>] [--revision <rev>]
//! ```
//!
//! Generates the workload's inputs from the seed, drives the program only
//! through its public crates, checks every output, and prints one line
//! per metric followed by a final JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Any failed output check makes the exit code 1.
//! Run it from the repository root (it reads `BENCH_place.json` there and
//! writes its spans under `.perfbench_out/`).

mod flow;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

use kraftwerk_trace::json::JsonObject;

use crate::spans::Spans;

/// End-to-end metrics (name, unit), reported by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("place_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("hpwl_m", "m"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by every traced run. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("netlist.read_s", "s"),
    ("core.global_s", "s"),
    ("core.transforms", "count"),
    ("core.transform_p50_s", "s"),
    ("core.hierarchy_s", "s"),
    ("core.levels", "count"),
    ("core.force_assembly_s", "s"),
    ("core.phase_coverage", "ratio"),
    ("field.solve_s", "s"),
    ("field.density_map_s", "s"),
    ("field.solves", "count"),
    ("sparse.cg_s", "s"),
    ("sparse.cg_iterations", "count"),
    ("sparse.cg_unconverged_frac", "ratio"),
    ("legalize.abacus_s", "s"),
    ("legalize.refine_s", "s"),
    ("legalize.check_s", "s"),
    ("par.busy_s", "s"),
    ("par.efficiency", "ratio"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.solve_wall_p50_s", "s"),
    ("serve.overhead_p50_s", "s"),
    ("serve.arena_reuse_ratio", "ratio"),
    ("serve.busy_retries", "count"),
    ("serve.rejections", "count"),
    ("serve.progress_dropped", "count"),
    ("trace.overhead_frac", "ratio"),
    ("bench.self_s", "s"),
    ("netlist.self_s", "s"),
    ("core.self_s", "s"),
    ("legalize.self_s", "s"),
    ("serve.self_s", "s"),
];

/// Environment variables that silently change the program under test.
const REFUSED_ENV: [&str; 3] = ["KRAFTWERK_POISSON", "KRAFTWERK_FAULT", "KRAFTWERK_THREADS"];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; 0 reproduces the committed preset or tier.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    rustc: String,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = flag("--workload").ok_or("--workload is required")?;
    let seed =
        flag("--seed").map_or(Ok(0), |v| v.parse().map_err(|_| format!("bad --seed {v}")))?;
    let seconds: f64 = flag("--seconds").map_or(Ok(10.0), |v| {
        v.parse().map_err(|_| format!("bad --seconds {v}"))
    })?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match flag("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rustc: flag("--rustc").unwrap_or_else(|| "unknown".into()),
        revision: flag("--revision").unwrap_or_else(|| "unknown".into()),
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Flows or jobs attempted.
    pub attempted: u64,
    /// Flows or jobs that errored, degraded, or failed an output check.
    pub failed: u64,
    failures: Vec<String>,
    checks: Vec<(String, bool)>,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one failed flow or job.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records a named output check.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.per_layer.insert(name, value);
    }

    /// Adds a human-readable result line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes the program under test");
        return ExitCode::from(2);
    }
    // `None` is the daemon workload.
    let kind = match args.workload.as_str() {
        "flat-biomed" => Some(flow::Kind::Flat),
        "ml-scale50k" => Some(flow::Kind::Multilevel),
        "serve-mixed" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    kraftwerk_par::set_threads(kind.map_or(1, flow::Kind::threads));

    let spans = Spans::new(args.trace);
    let outcome = match kind {
        Some(kind) => flow::run(kind, &args, &spans),
        None => serve::run(&args, &spans),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.e2e("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));

    let mut provenance = JsonObject::new();
    provenance.str_field("workload", &args.workload);
    provenance.u64_field("seed", args.seed);
    provenance.bool_field("trace", args.trace);
    provenance.u64_field(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    );
    provenance.u64_field("threads", kraftwerk_par::current_threads() as u64);
    provenance.str_field("rustc", &args.rustc);
    provenance.str_field("revision", &args.revision);
    let provenance = provenance.finish();

    if args.trace {
        for (layer, self_s) in spans.layer_self_seconds() {
            let name = match layer.as_str() {
                "bench" => "bench.self_s",
                "netlist" => "netlist.self_s",
                "core" => "core.self_s",
                "legalize" => "legalize.self_s",
                "serve" => "serve.self_s",
                _ => continue,
            };
            report.layer(name, self_s);
        }
        let path = std::path::PathBuf::from(".perfbench_out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path, &provenance) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
        }
    }

    println!("provenance {provenance}");
    for line in &report.notes {
        println!("{line}");
    }
    for (name, ok) in &report.checks {
        println!("check {name}: {}", if *ok { "pass" } else { "FAIL" });
    }
    for why in &report.failures {
        println!("failure: {why}");
    }
    println!(
        "fail_frac = {} ratio ({} of {} failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &report.per_layer)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    let mut metrics = JsonObject::new();
    for (name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("{name} = {value} {unit}");
        let mut m = JsonObject::new();
        m.f64_field("value", value);
        m.str_field("unit", unit);
        metrics.raw_field(name, &m.finish());
    }
    let correct = report.correct();
    let mut line = JsonObject::new();
    line.bool_field("correct", correct);
    line.u64_field("attempted", report.attempted.max(1));
    line.u64_field("failed", report.failed);
    line.raw_field("metrics", &metrics.finish());
    println!("{}", line.finish());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};
    use kraftwerk_trace::json::{parse, Json};

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = parse(&text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), table(&END_TO_END));
        assert_eq!(declared("per_layer"), table(&PER_LAYER));
    }
}
