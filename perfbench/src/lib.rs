//! The repository benchmark.
//!
//! Three workloads run through the public API at `SimOptions::default()`:
//! `mc_tables` (Monte Carlo of Tables 3 and 4), `vdd_surface` (the
//! Figure 8/9 delay surface) and `chip_tran` (generated floorplans, DC
//! plus transient). A run sets its workload up several times, then
//! repeats full passes over the workload's jobs for the requested
//! seconds, checks every pass's outputs, and reports medians.
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! alternates untraced and traced passes: the traced ones record spans
//! at the calls the benchmark makes into each crate and give the
//! per-layer metrics; the difference between the two kinds of pass is
//! the tracing overhead. Layers are named after the crates.

use std::collections::BTreeMap;
use std::time::Instant;

use vls_runner::RunnerOptions;

pub mod calib;
pub mod check;
pub mod procfs;
pub mod trace;
pub mod workloads;

use check::{Obs, Reference, Tol};
use trace::{Span, Tracer};
use workloads::{Inputs, PassOutput, Size, Workload};

/// A metric: name, unit and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [MetricDef; 4] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, printed by a traced run. Counts are per pass.
pub const PER_LAYER: [MetricDef; 29] = [
    ("device.evals", "count", "lower"),
    ("device.cap_evals", "count", "lower"),
    ("device.evals_per_newton", "1", "lower"),
    ("device.bypass_share", "1", "higher"),
    ("device.op_ns", "ns", "lower"),
    ("device.op_analytic_ns", "ns", "lower"),
    ("device.caps_ns", "ns", "lower"),
    ("num.linear_solves", "count", "lower"),
    ("num.full_factorizations", "count", "lower"),
    ("num.refactorizations", "count", "higher"),
    ("num.refactor_fallbacks", "count", "lower"),
    ("num.refactor_share", "1", "higher"),
    ("engine.dc_s", "s", "lower"),
    ("engine.tran_s", "s", "lower"),
    ("engine.newton_iters", "count", "lower"),
    ("engine.tran_points", "count", "lower"),
    ("engine.newton_per_point", "1", "lower"),
    ("engine.s_per_newton", "s", "lower"),
    ("core.characterize_calls", "count", "lower"),
    ("core.characterize_p50_s", "s", "lower"),
    ("core.characterize_p90_s", "s", "lower"),
    ("runner.busy_s", "s", "lower"),
    ("runner.idle_s", "s", "lower"),
    ("runner.imbalance", "1", "lower"),
    ("variation.sample_s", "s", "lower"),
    ("netlist.build_s", "s", "lower"),
    ("netlist.unknowns", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
];

/// The workload is set up repeatedly for about this long, at least
/// `MIN_SETUP_REPS` and at most `MAX_SETUP_REPS` times; the median set-up
/// time is reported. Cheap set-ups repeat more, which steadies them.
const SETUP_SECONDS: f64 = 1.0;
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 25;

/// Failure reasons kept for the report.
const MAX_REASONS: usize = 8;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring time, s: passes repeat until it is used up.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Runner worker threads.
    pub jobs: usize,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Jobs attempted over all passes.
    pub attempted: u64,
    /// Jobs that failed over all passes.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Passes run (untraced plus traced).
    pub passes: usize,
    /// `(name, value, unit)` for every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Every recorded span (traced runs only).
    pub spans: Vec<Span>,
    /// Input sizes, a JSON object.
    pub sizes: String,
    /// Wall time of every untraced pass, s, in run order.
    pub pass_walls: Vec<f64>,
    /// Wall time of every set-up, s, in run order.
    pub setup_walls: Vec<f64>,
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample (the mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in (0, 1] of a non-empty sample.
fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Spans descended from `root`, `root` included.
fn subtree(spans: &[Span], root: u64) -> Vec<Span> {
    let parent: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let under = |mut id: u64| loop {
        if id == root {
            return true;
        }
        match parent.get(&id).copied().flatten() {
            Some(p) => id = p,
            None => return false,
        }
    };
    spans.iter().filter(|s| under(s.id)).cloned().collect()
}

/// Bit-for-bit equality of two passes' results (NaN equals NaN).
fn same_results(a: &Obs, b: &Obs) -> bool {
    a.key == b.key
        && a.values.len() == b.values.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(&(_, x), &(_, y))| Tol::Exact.accepts(x, y))
}

/// Sum starting at +0.0 (an empty float `sum` is -0.0).
fn sum(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, |a, b| a + b)
}

/// Checks a pass against the reference, the invariants and the first
/// pass, and fails the jobs of every rejected result. `first` keeps the
/// first pass's results.
fn check_pass(
    inputs: &Inputs,
    reference: Option<&Reference>,
    first: &mut Option<Vec<Obs>>,
    out: &mut PassOutput,
) {
    let mut bad = inputs.invariants(out);
    if let Some(r) = reference {
        bad.extend(r.compare(&out.obs));
    }
    match first {
        None => *first = Some(out.obs.clone()),
        Some(f) => {
            if f.len() != out.obs.len() {
                bad.push((
                    0..out.jobs,
                    "pass produced a different set of results".into(),
                ));
            }
            for (a, b) in f.iter().zip(&out.obs) {
                if !same_results(a, b) {
                    bad.push((
                        b.jobs.clone(),
                        format!("{}: differs from the first pass", b.key),
                    ));
                }
            }
        }
    }
    for (jobs, why) in bad {
        out.fail(jobs, why);
    }
}

/// Per-layer metrics of one traced pass, from its spans and counters.
fn layer_sample(out: &PassOutput, spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let s = &out.solver;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let newton = s.newton_iters as f64;
    let dc = trace::total(spans, "engine.dc");
    let tran = trace::total(spans, "engine.tran");
    let characterize: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.characterize")
        .map(Span::duration)
        .collect();
    let char_total = sum(characterize.iter().copied());
    let pct = |q| {
        if characterize.is_empty() {
            0.0
        } else {
            percentile(&characterize, q)
        }
    };
    let runs = || out.runs.iter();
    let busy = sum(runs().map(|r| r.busy_total().as_secs_f64()));
    let capacity = sum(runs().map(|r| r.shards.len() as f64 * r.total_wall.as_secs_f64()));
    let slowest = sum(runs().map(|r| {
        let walls = r.shards.iter().map(|s| s.wall.as_secs_f64());
        walls.fold(0.0, f64::max)
    }));
    let mean_shard =
        sum(runs().map(|r| r.busy_total().as_secs_f64() / r.shards.len().max(1) as f64));
    BTreeMap::from([
        ("device.evals", s.device_evals as f64),
        ("device.cap_evals", s.cap_evals as f64),
        (
            "device.evals_per_newton",
            ratio(s.device_evals as f64, newton),
        ),
        ("device.bypass_share", s.bypass_rate()),
        ("num.linear_solves", s.linear_solves as f64),
        ("num.full_factorizations", s.full_factorizations as f64),
        ("num.refactorizations", s.refactorizations as f64),
        ("num.refactor_fallbacks", s.refactor_fallbacks as f64),
        ("num.refactor_share", s.refactor_rate()),
        ("engine.dc_s", dc),
        ("engine.tran_s", tran),
        ("engine.newton_iters", newton),
        ("engine.tran_points", out.tran_points as f64),
        (
            "engine.newton_per_point",
            ratio(newton, out.tran_points as f64),
        ),
        // Span time around every engine call, per Newton iteration: the
        // engine spans on chip_tran, the characterize spans (which hold
        // all of a job's engine calls) elsewhere.
        ("engine.s_per_newton", ratio(dc + tran + char_total, newton)),
        ("core.characterize_calls", characterize.len() as f64),
        ("core.characterize_p50_s", pct(0.5)),
        ("core.characterize_p90_s", pct(0.9)),
        ("runner.busy_s", busy),
        ("runner.idle_s", capacity - busy),
        ("runner.imbalance", ratio(slowest, mean_shard)),
    ])
}

/// Runs the benchmark: set-up, timed passes, output checks and metrics.
pub fn run(cfg: &Config) -> RunResult {
    let runner = RunnerOptions::with_jobs(cfg.jobs);
    let tracer = cfg.trace.then(Tracer::new);
    let tracer = tracer.as_ref();

    let mut setup_s = Vec::new();
    let mut netlist_s = Vec::new();
    let mut inputs = None;
    let setup_started = Instant::now();
    while setup_s.len() < MIN_SETUP_REPS
        || (setup_s.len() < MAX_SETUP_REPS && setup_started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let t = Instant::now();
        let (w, setup_id) = trace::traced(tracer, "bench.setup", None, None, |id| {
            let w = Inputs::setup(cfg.workload, cfg.seed, &cfg.size, &runner, tracer, Some(id));
            (w, id)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(tr) = tracer {
            let mine = subtree(&tr.spans(), setup_id);
            netlist_s.push(
                trace::total(&mine, "netlist.spec_for_unknowns")
                    + trace::total(&mine, "netlist.build"),
            );
        }
        inputs = Some(w);
    }
    let inputs = inputs.expect("at least one set-up");

    // References are recorded at the full sizes only.
    let reference = (cfg.size == Size::FULL)
        .then(|| Reference::for_seed(cfg.workload.reference_text(), cfg.seed))
        .flatten();
    let mut first: Option<Vec<Obs>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reasons = Vec::new();
    let (mut walls, mut cpus, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let started = Instant::now();
    let mut passes = 0;
    loop {
        let traced_pass = cfg.trace && passes % 2 == 1;
        let pass_tracer = if traced_pass { tracer } else { None };
        let cpu0 = procfs::cpu_seconds();
        let t = Instant::now();
        let (mut out, pass_id) = trace::traced(pass_tracer, "bench.pass", None, None, |id| {
            (inputs.pass(pass_tracer, Some(id)), id)
        });
        let wall = t.elapsed().as_secs_f64();
        let cpu = procfs::cpu_seconds() - cpu0;
        passes += 1;

        check_pass(&inputs, reference.as_ref(), &mut first, &mut out);
        attempted += out.jobs as u64;
        failed += out.failed.len() as u64;
        for why in out.failed.values() {
            if reasons.len() < MAX_REASONS && !reasons.contains(why) {
                reasons.push(why.clone());
            }
        }

        if traced_pass {
            traced_walls.push(wall);
            let spans = subtree(&tracer.expect("traced pass has a tracer").spans(), pass_id);
            layers.push(layer_sample(&out, &spans));
        } else {
            walls.push(wall);
            cpus.push(cpu);
        }
        let done = started.elapsed().as_secs_f64() >= cfg.seconds;
        if done && (!cfg.trace || !traced_walls.is_empty()) {
            break;
        }
    }

    let mut metrics = Vec::new();
    if let Some(tr) = tracer {
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
        for name in layers[0].keys() {
            let samples: Vec<f64> = layers.iter().map(|l| l[name]).collect();
            values.insert(name, median(&samples));
        }
        let cal = calib::measure(inputs.calibration_circuit());
        values.insert("device.op_ns", cal.op_ns);
        values.insert("device.op_analytic_ns", cal.op_analytic_ns);
        values.insert("device.caps_ns", cal.caps_ns);
        let resampled = inputs.resample(tr);
        let sample_s = resampled.map_or(0.0, |root| {
            trace::total(&subtree(&tr.spans(), root), "variation.sample")
        });
        values.insert("variation.sample_s", sample_s);
        values.insert("netlist.build_s", median(&netlist_s));
        values.insert("netlist.unknowns", inputs.unknowns() as f64);
        values.insert("trace.wall_s", median(&traced_walls));
        values.insert("trace.overhead_s", median(&traced_walls) - median(&walls));
        for (name, unit, _) in PER_LAYER {
            metrics.push((name, values[name], unit));
        }
    } else {
        let e2e = [
            median(&setup_s),
            median(&walls),
            median(&cpus),
            procfs::peak_rss_mb(),
        ];
        for ((name, unit, _), value) in END_TO_END.into_iter().zip(e2e) {
            metrics.push((name, value, unit));
        }
    }

    RunResult {
        attempted,
        failed,
        reasons,
        passes,
        metrics,
        spans: tracer.map(Tracer::spans).unwrap_or_default(),
        sizes: inputs.sizes(),
        pass_walls: walls,
        setup_walls: setup_s,
    }
}

/// Runs one pass and returns the reference lines for `seed`.
pub fn record(workload: Workload, seed: u64, size: &Size, jobs: usize) -> String {
    let runner = RunnerOptions::with_jobs(jobs);
    let inputs = Inputs::setup(workload, seed, size, &runner, None, None);
    let out = inputs.pass(None, None);
    assert!(out.failed.is_empty(), "seed {seed}: {:?}", out.failed);
    let bad = inputs.invariants(&out);
    assert!(bad.is_empty(), "seed {seed}: {bad:?}");
    check::render(seed, &out.obs)
}
