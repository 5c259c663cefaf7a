//! The single-flow workloads, `flat-biomed` and `ml-scale50k`: one
//! complete placement flow at a time (global placement, Abacus
//! legalization, two refinement passes, legality check) on a netlist that
//! reaches the program only as generated text.

use std::sync::Arc;
use std::time::Instant;

use kraftwerk_core::{
    build_hierarchy, try_place_multilevel, GlobalPlacer, KraftwerkConfig, MultilevelConfig,
    PlaceResult, PlacementSession,
};
use kraftwerk_legalize::{check_legality, legalize, refine};
use kraftwerk_netlist::format::{read_netlist, write_netlist};
use kraftwerk_netlist::synth::{generate, mcnc, scale, SynthConfig};
use kraftwerk_netlist::{metrics, Netlist, Placement};
use kraftwerk_par::UtilizationSnapshot;
use kraftwerk_trace::{RunRecorder, RunReport};

use crate::spans::{SpanId, Spans};
use crate::stats::{mean, median, mix, percentile};
use crate::{Args, Report};

/// Set-up repetitions before the first flow (one more follows each flow).
const SETUP_REPS_FIRST: usize = 4;

/// Which global placer a flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GlobalPlacer::try_place` with `KraftwerkConfig::standard()`.
    Flat,
    /// `try_place_multilevel` with `KraftwerkConfig::fast()` and the
    /// default `MultilevelConfig` (the `multilevel-b2b` bench mode).
    Multilevel,
}

impl Kind {
    /// The circuit name, and the `BENCH_place.json` (netlist, mode) row
    /// whose HPWL the default seed must reproduce.
    fn baseline_row(self) -> (&'static str, &'static str) {
        match self {
            Kind::Flat => ("biomed", "standard"),
            Kind::Multilevel => ("scale50k", "multilevel-b2b"),
        }
    }

    /// Generator config of the committed preset or tier.
    fn synth_config(self) -> SynthConfig {
        match self {
            Kind::Flat => {
                let preset = mcnc::TABLE1
                    .iter()
                    .find(|p| p.name == "biomed")
                    .expect("biomed is a Table 1 preset");
                mcnc::config_for(*preset)
            }
            Kind::Multilevel => {
                let tier = scale::TIERS
                    .iter()
                    .find(|t| t.name == "scale50k")
                    .expect("scale50k is a scale tier");
                scale::config_for(*tier)
            }
        }
    }

    /// Worker threads for the data-parallel kernels.
    pub fn threads(self) -> usize {
        match self {
            Kind::Flat => 1,
            Kind::Multilevel => 2,
        }
    }
}

/// The workload's netlist text for `seed`: the committed circuit, renamed
/// by [`rename`] for every seed but 0.
fn netlist_text(kind: Kind, seed: u64) -> String {
    let text = write_netlist(&generate(&kind.synth_config()));
    if seed == 0 {
        text
    } else {
        rename(&text, &format!("_{:016x}", mix(seed)))
    }
}

/// Appends `tag` to the design name and to every cell and net name of a
/// netlist text. The program then parses a different text, but the
/// numerical problem, and so the placement, stays the same bit for bit.
fn rename(text: &str, tag: &str) -> String {
    let mut out = String::with_capacity(text.len() + text.len() / 2);
    for line in text.lines() {
        let tokens: Vec<&str> = line.split(' ').collect();
        let renamed: Vec<String> = tokens
            .iter()
            .enumerate()
            .map(|(i, token)| match (tokens[0], i) {
                ("name" | "cell" | "net", 1) => format!("{token}{tag}"),
                // Pin reference `cell:dx:dy:dir`.
                ("net", 3..) => match token.split_once(':') {
                    Some((cell, rest)) => format!("{cell}{tag}:{rest}"),
                    None => (*token).to_string(),
                },
                _ => (*token).to_string(),
            })
            .collect();
        out.push_str(&renamed.join(" "));
        out.push('\n');
    }
    out
}

/// One completed (or failed) flow.
#[derive(Default)]
struct Flow {
    wall_s: f64,
    global_s: f64,
    abacus_s: f64,
    refine_s: f64,
    check_s: f64,
    /// Legalized HPWL in meters; `None` when the flow failed early.
    hpwl_m: Option<f64>,
    /// Why the flow counts as failed, if it does.
    failure: Option<String>,
    result: Option<PlaceResult>,
    /// Traced flows only: the program's phase profile and counters.
    report: Option<RunReport>,
    /// Traced flows only: worker-pool utilization over the global call.
    par: Option<UtilizationSnapshot>,
    /// Traced flat flows only: gaps between consecutive observer calls.
    transform_gaps: Vec<f64>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` inside a span and also returns its wall time in seconds.
fn timed<R>(
    spans: &Spans,
    name: &'static str,
    parent: SpanId,
    run: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let started = Instant::now();
    let out = spans.scope(name, parent, run, f);
    (out, secs(started))
}

/// The global placement step. Traced flat flows drive the session loop
/// behind `try_place` themselves (validate, new session, loop) so an
/// observer can time each transformation.
fn global(
    kind: Kind,
    netlist: &Netlist,
    traced: bool,
    gaps: &mut Vec<f64>,
) -> Result<PlaceResult, String> {
    match kind {
        Kind::Flat if traced => {
            netlist.validate().map_err(|e| e.to_string())?;
            let mut session = PlacementSession::new(netlist, KraftwerkConfig::standard());
            let mut last = Instant::now();
            let (stats, converged) = session
                .run_loop_with(|_, _| {
                    gaps.push(secs(last));
                    last = Instant::now();
                })
                .map_err(|e| e.to_string())?;
            let health = session.health();
            let (placement, _) = session.into_parts();
            Ok(PlaceResult {
                placement,
                stats,
                converged,
                health,
            })
        }
        Kind::Flat => GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(netlist)
            .map_err(|e| e.to_string()),
        Kind::Multilevel => try_place_multilevel(
            netlist,
            KraftwerkConfig::fast(),
            &MultilevelConfig::default(),
        )
        .map_err(|e| e.to_string()),
    }
}

/// The timed steps of one flow: global placement, Abacus, two refinement
/// passes and the legality check. Returns the legal placement.
fn flow_steps(
    kind: Kind,
    netlist: &Netlist,
    spans: &Spans,
    root: SpanId,
    run: u64,
    traced: bool,
    flow: &mut Flow,
) -> Result<Placement, String> {
    let before = traced.then(UtilizationSnapshot::capture);
    let (placed, t) = timed(spans, "core.global", root, run, || {
        global(kind, netlist, traced, &mut flow.transform_gaps)
    });
    flow.global_s = t;
    flow.par = before.map(|b| UtilizationSnapshot::capture().since(&b));
    let result = placed.map_err(|e| format!("global placement failed: {e}"))?;
    let health = result.health;
    let (legal, t) = timed(spans, "legalize.abacus", root, run, || {
        legalize(netlist, &result.placement)
    });
    flow.abacus_s = t;
    flow.result = Some(result);
    let mut legal = legal.map_err(|e| format!("legalization failed: {e}"))?;
    let (_, t) = timed(spans, "legalize.refine", root, run, || {
        refine(netlist, &mut legal, 2)
    });
    flow.refine_s = t;
    let (report, t) = timed(spans, "legalize.check", root, run, || {
        check_legality(netlist, &legal, 1e-6)
    });
    flow.check_s = t;
    if health.degraded || health.budget_exhausted {
        return Err(format!("run health {health:?}"));
    }
    if !report.is_legal() {
        return Err(format!("illegal placement: {report:?}"));
    }
    Ok(legal)
}

/// Runs one flow; a traced flow runs under a fresh `RunRecorder`.
fn run_flow(kind: Kind, netlist: &Netlist, spans: &Spans, run: u64, traced: bool) -> Flow {
    let mut flow = Flow::default();
    let recorder = traced.then(|| Arc::new(RunRecorder::new()));
    if let Some(r) = &recorder {
        kraftwerk_trace::install(r.clone());
    }
    let root = spans.open("bench.flow", Spans::ROOT, run);
    let started = Instant::now();
    let outcome = flow_steps(kind, netlist, spans, root, run, traced, &mut flow);
    flow.wall_s = secs(started);
    if let Some(r) = recorder {
        kraftwerk_trace::uninstall();
        flow.report = Some(r.report());
    }
    match outcome {
        Ok(legal) => {
            let hpwl_m = metrics::hpwl(netlist, &legal) * 1e-6;
            if !hpwl_m.is_finite() {
                flow.failure = Some("non-finite HPWL".into());
            }
            flow.hpwl_m = Some(hpwl_m);
        }
        Err(why) => flow.failure = Some(why),
    }
    spans.close(root);
    flow
}

/// The legalized HPWL (meters) that `BENCH_place.json` records for
/// `(netlist, mode)`.
fn committed_hpwl(netlist: &str, mode: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCH_place.json")
        .map_err(|e| format!("cannot read BENCH_place.json: {e}"))?;
    let json = kraftwerk_trace::json::parse(&text).map_err(|e| format!("BENCH_place.json: {e}"))?;
    json.get("runs")
        .and_then(|r| r.as_array())
        .into_iter()
        .flatten()
        .find(|row| {
            row.get("netlist").and_then(|v| v.as_str()) == Some(netlist)
                && row.get("mode").and_then(|v| v.as_str()) == Some(mode)
        })
        .and_then(|row| row.get("hpwl_m"))
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("BENCH_place.json has no {netlist}/{mode} row"))
}

/// Runs one single-flow workload.
pub fn run(kind: Kind, args: &Args, spans: &Spans) -> Result<Report, String> {
    let mut report = Report::default();
    let text = netlist_text(kind, args.seed);

    // Set-up: parse and validate the generated text. The host's speed
    // drifts over seconds, so the repetitions are spread over the run:
    // a few before the first flow and one after every flow.
    let mut setup = Vec::new();
    let mut read = |rep: u64| -> Result<Netlist, String> {
        let started = Instant::now();
        let netlist = spans.scope("netlist.read", Spans::ROOT, 1_000_000 + rep, || {
            let netlist = read_netlist(&text)
                .map_err(|e| format!("generated netlist does not parse: {e}"))?;
            netlist
                .validate()
                .map_err(|e| format!("generated netlist is invalid: {e}"))?;
            Ok::<_, String>(netlist)
        })?;
        setup.push(secs(started));
        Ok(netlist)
    };
    for rep in 1..SETUP_REPS_FIRST as u64 {
        read(rep)?;
    }
    let netlist = read(0)?;

    // Measurement: back-to-back flows until the next one would overrun
    // the time budget. Traced runs alternate untraced and traced flows.
    let min_flows = if args.trace { 2 } else { 3 };
    let mut flows: Vec<Flow> = Vec::new();
    let started = Instant::now();
    let mut reading_s = 0.0;
    loop {
        let index = flows.len();
        let traced = args.trace && index % 2 == 1;
        let flow = run_flow(kind, &netlist, spans, index as u64 + 1, traced);
        flows.push(flow);
        let read_started = Instant::now();
        read((SETUP_REPS_FIRST + index) as u64)?;
        reading_s += secs(read_started);
        let walls: Vec<f64> = flows.iter().map(|f| f.wall_s).collect();
        if flows.len() >= min_flows && secs(started) + median(&walls) > args.seconds {
            break;
        }
    }
    let measured_s = secs(started) - reading_s;

    // Output checks: every flow legal and healthy, and every flow's HPWL
    // (traced or not) bitwise equal to the committed baseline's, which
    // also makes it identical across the flows of the run.
    let (name, mode) = kind.baseline_row();
    let reference = committed_hpwl(name, mode)?;
    report.attempted = flows.len() as u64;
    for (i, flow) in flows.iter().enumerate() {
        if let Some(why) = &flow.failure {
            report.fail(format!("flow {i}: {why}"));
        } else if flow.hpwl_m.map(f64::to_bits) != Some(reference.to_bits()) {
            report.fail(format!(
                "flow {i}: HPWL {:?} differs from {reference}",
                flow.hpwl_m
            ));
        }
    }
    report.check(
        &format!("hpwl_equals_BENCH_place_{name}_{mode}"),
        flows
            .iter()
            .all(|f| f.hpwl_m.map(f64::to_bits) == Some(reference.to_bits())),
    );

    let walls: Vec<f64> = flows.iter().map(|f| f.wall_s).collect();
    let untraced: Vec<f64> = flows
        .iter()
        .filter(|f| f.report.is_none())
        .map(|f| f.wall_s)
        .collect();
    // The mean, not the median: the host's speed flips between two levels
    // for minutes at a time, and the median of a handful of flows jumps
    // between them where the mean moves with the share of slow flows.
    let place_s = mean(&untraced);
    report.e2e("setup_s", median(&setup));
    report.e2e("place_s", place_s);
    report.e2e("job_p90_s", percentile(&untraced, 0.9));
    report.e2e("jobs_per_s", walls.len() as f64 / measured_s);
    report.e2e(
        "hpwl_m",
        flows.iter().find_map(|f| f.hpwl_m).unwrap_or(f64::NAN),
    );
    report.note(format!(
        "place_s = {place_s} s (mean of {} flows; {} cells, {} nets, {} threads)",
        untraced.len(),
        netlist.num_movable(),
        netlist.num_nets(),
        kind.threads()
    ));
    report.note(format!("flow walls: {untraced:?} s"));
    report.note(format!(
        "setup_s = {} s (median of {} parses)",
        median(&setup),
        setup.len()
    ));
    if let Some(result) = flows.iter().find_map(|f| f.result.as_ref()) {
        report.note(format!("transforms = {} per flow", result.iterations()));
    }

    if args.trace {
        layer_metrics(kind, &netlist, &flows, &setup, place_s, &mut report);
    }
    Ok(report)
}

/// Per-layer metrics of a traced run: the benchmark's timers and the
/// program's own phase profile and counters, as medians over the traced
/// flows.
fn layer_metrics(
    kind: Kind,
    netlist: &Netlist,
    flows: &[Flow],
    setup: &[f64],
    untraced_place_s: f64,
    report: &mut Report,
) {
    let traced: Vec<(&Flow, &RunReport, &UtilizationSnapshot)> = flows
        .iter()
        .filter_map(|f| Some((f, f.report.as_ref()?, f.par.as_ref()?)))
        .collect();
    let per_flow = |f: &dyn Fn(&Flow, &RunReport, &UtilizationSnapshot) -> f64| -> f64 {
        median(
            &traced
                .iter()
                .map(|(fl, r, p)| f(fl, r, p))
                .collect::<Vec<_>>(),
        )
    };
    let phase = |r: &RunReport, name: &str| -> f64 {
        r.profile
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.seconds)
            .sum()
    };
    let counter = |r: &RunReport, name: &str| -> f64 {
        r.counters
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| *v as f64)
            .sum()
    };

    report.layer("netlist.read_s", median(setup));
    report.layer("core.global_s", per_flow(&|f, _, _| f.global_s));
    if let Some(result) = traced.iter().find_map(|(f, _, _)| f.result.as_ref()) {
        let n = result.iterations();
        let unconverged = result.stats.iter().filter(|s| !s.cg_converged).count();
        report.layer("core.transforms", n as f64);
        report.layer(
            "sparse.cg_iterations",
            result.stats.iter().map(|s| s.cg_iterations as f64).sum(),
        );
        report.layer(
            "sparse.cg_unconverged_frac",
            unconverged as f64 / n.max(1) as f64,
        );
    }
    let gaps: Vec<f64> = traced
        .iter()
        .flat_map(|(f, _, _)| f.transform_gaps.iter().copied())
        .collect();
    report.layer("core.transform_p50_s", median(&gaps));
    if kind == Kind::Multilevel {
        let started = Instant::now();
        let levels = build_hierarchy(netlist, &MultilevelConfig::default());
        report.layer("core.hierarchy_s", secs(started));
        report.layer("core.levels", levels.len() as f64 + 1.0);
    } else {
        report.layer("core.levels", 1.0);
    }
    report.layer(
        "core.force_assembly_s",
        per_flow(&|_, r, _| phase(r, "place.force_assembly")),
    );
    report.layer(
        "core.phase_coverage",
        per_flow(&|f, r, _| {
            // The x/y solves overlap on two threads; their shared
            // `place.solve_xy` utilization bracket holds the wall time.
            let solve_xy = r
                .utilization
                .iter()
                .find(|u| u.span == "place.solve_xy")
                .map_or_else(
                    || phase(r, "place.solve_x") + phase(r, "place.solve_y"),
                    |u| u.wall_seconds,
                );
            let top: f64 = r
                .profile
                .iter()
                .filter(|p| p.name.starts_with("place.") && !p.name.starts_with("place.solve_"))
                .map(|p| p.seconds)
                .sum();
            (top + solve_xy) / f.global_s
        }),
    );
    report.layer(
        "field.solve_s",
        per_flow(&|_, r, _| phase(r, "place.field_solve")),
    );
    report.layer(
        "field.density_map_s",
        per_flow(&|_, r, _| phase(r, "place.density_map")),
    );
    report.layer(
        "field.solves",
        per_flow(&|_, r, _| {
            counter(r, "multigrid.solves")
                + counter(r, "spectral.solves")
                + counter(r, "hybrid.solves")
        }),
    );
    report.layer(
        "sparse.cg_s",
        per_flow(&|_, r, _| phase(r, "place.solve_x") + phase(r, "place.solve_y")),
    );
    report.layer("legalize.abacus_s", per_flow(&|f, _, _| f.abacus_s));
    report.layer("legalize.refine_s", per_flow(&|f, _, _| f.refine_s));
    report.layer("legalize.check_s", per_flow(&|f, _, _| f.check_s));
    report.layer("par.busy_s", per_flow(&|_, _, p| p.busy_seconds()));
    report.layer(
        "par.efficiency",
        per_flow(&|f, _, p| {
            p.parallel_efficiency(f.global_s, kind.threads())
                .unwrap_or(0.0)
        }),
    );
    report.layer(
        "trace.overhead_frac",
        mean(&traced.iter().map(|(f, _, _)| f.wall_s).collect::<Vec<_>>()) / untraced_place_s - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::rename;
    use kraftwerk_netlist::format::{read_netlist, write_netlist};
    use kraftwerk_netlist::synth::{generate, SynthConfig};

    #[test]
    fn renamed_text_parses_to_the_same_circuit() {
        let original = generate(&SynthConfig::with_size("t", 120, 140, 6));
        let text = write_netlist(&original);
        let renamed = read_netlist(&rename(&text, "_x1")).expect("renamed text parses");
        assert_eq!(renamed.num_cells(), original.num_cells());
        assert_eq!(renamed.num_nets(), original.num_nets());
        assert_eq!(renamed.name(), "t_x1");
        assert_eq!(write_netlist(&renamed), rename(&text, "_x1"));
        assert_ne!(rename(&text, "_x1"), text);
    }
}
