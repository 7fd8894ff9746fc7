//! `mc_tables`: the scalar Monte Carlo of Tables 3 and 4.
//!
//! Both designs (SS-TVS and the combined VS) in both directions
//! (0.8 → 1.2 V and 1.2 → 0.8 V), `trials` process samples each under
//! `VariationSpec::paper()`, at default options. The untraced pass calls
//! `monte_carlo_stats_reported`, the entry point the table flows use.
//! The traced pass takes the same code path one level down:
//! `monte_carlo_trials` with a closure around `characterize_with_stats`,
//! which is what `monte_carlo_stats_reported` runs at `batch_lanes = 1`,
//! so each characterization gets its own span.

use std::ops::Range;

use vls_cells::{Harness, ShifterKind, VoltagePair};
use vls_core::experiments::tables::monte_carlo_stats_reported;
use vls_core::{characterize, characterize_with_stats, CellMetrics, CharacterizeOptions};
use vls_netlist::{chipgen::unknowns_of, Circuit};
use vls_runner::{RunReport, RunnerOptions};
use vls_variation::{monte_carlo_trials, sample_trial_map, Stats, VariationSpec};

use super::PassOutput;
use crate::check::{Obs, Tol};
use crate::trace::Tracer;

/// The 1e-9 relative tolerance of the pinned Monte Carlo goldens.
const REL_TOL: f64 = 1e-9;

/// Reads one statistic's sample from a trial's metrics.
type Extract = fn(&CellMetrics) -> f64;

/// The statistics a table reports, in `CellMetrics` order.
const STATS: [(&str, Extract); 6] = [
    ("delay_rise", |m| m.delay_rise.value()),
    ("delay_fall", |m| m.delay_fall.value()),
    ("power_rise", |m| m.power_rise.value()),
    ("power_fall", |m| m.power_fall.value()),
    ("leakage_high", |m| m.leakage_high.value()),
    ("leakage_low", |m| m.leakage_low.value()),
];

/// One ensemble: a design in one direction.
#[derive(Debug, Clone)]
struct Ensemble {
    label: String,
    kind: ShifterKind,
    domains: VoltagePair,
    /// The nominal fixture whose `dut*` devices are perturbed.
    reference: Circuit,
}

/// Set-up state of the workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    ensembles: Vec<Ensemble>,
    trials: usize,
    seed: u64,
    options: CharacterizeOptions,
    runner: RunnerOptions,
}

/// Builds the four reference fixtures and warms up with one nominal
/// characterization per design.
pub fn setup(seed: u64, trials: usize, runner: &RunnerOptions) -> Inputs {
    let options = CharacterizeOptions::default();
    let mut ensembles = Vec::new();
    for (design, kind) in [
        ("sstvs", ShifterKind::sstvs()),
        ("combined", ShifterKind::combined()),
    ] {
        for (dir, domains) in [
            ("up", VoltagePair::low_to_high()),
            ("down", VoltagePair::high_to_low()),
        ] {
            let (wave, _, _, _) = Harness::standard_stimulus(domains);
            let reference = Harness::build(&kind, domains, wave, options.load_farads).circuit;
            ensembles.push(Ensemble {
                label: format!("{design}.{dir}"),
                kind: kind.clone(),
                domains,
                reference,
            });
        }
    }
    for e in ensembles.iter().step_by(2) {
        let warm = characterize(&e.kind, e.domains, &options).expect("nominal characterization");
        assert!(warm.functional, "{} is not functional at nominal", e.label);
    }
    Inputs {
        ensembles,
        trials,
        seed,
        options,
        runner: runner.clone(),
    }
}

impl Inputs {
    /// Jobs in one pass: every trial of every ensemble.
    pub fn jobs(&self) -> usize {
        self.ensembles.len() * self.trials
    }

    /// The largest MNA system among the fixtures.
    pub fn unknowns(&self) -> usize {
        self.ensembles
            .iter()
            .map(|e| unknowns_of(&e.reference))
            .max()
            .unwrap_or(0)
    }

    /// Input sizes for the provenance record.
    pub fn sizes(&self) -> String {
        format!(
            "{{\"ensembles\":{},\"trials\":{},\"mc_seed\":{}}}",
            self.ensembles.len(),
            self.trials,
            self.seed
        )
    }

    /// The fixture whose DC solution the device calibration legs use.
    pub fn calibration_circuit(&self) -> &Circuit {
        &self.ensembles[0].reference
    }

    /// One full pass: every ensemble, in table order.
    pub fn pass(&self, tracer: Option<&Tracer>, parent: Option<u64>) -> PassOutput {
        let mut out = PassOutput::new(self.jobs());
        for (e_idx, e) in self.ensembles.iter().enumerate() {
            let jobs = e_idx * self.trials..(e_idx + 1) * self.trials;
            let result = match tracer {
                None => self.via_stats_reported(e, &jobs, &mut out),
                Some(t) => self.via_trials(e, &jobs, t, parent, &mut out),
            };
            let Some((passed, stats, report)) = result else {
                continue;
            };
            out.solver.merge(&report.solver);
            out.runs.push(report);
            out.obs.push(Obs::new(
                format!("{}.passed", e.label),
                jobs.clone(),
                Tol::Exact,
                &[passed as f64],
            ));
            for ((name, _), s) in STATS.iter().zip(&stats) {
                out.obs.push(Obs::new(
                    format!("{}.{name}", e.label),
                    jobs.clone(),
                    Tol::Rel(REL_TOL),
                    &[s.mean, s.std],
                ));
            }
        }
        out
    }

    /// One ensemble through `monte_carlo_stats_reported`, the entry point
    /// of the table flows: passed trials, statistics and the report.
    fn via_stats_reported(
        &self,
        e: &Ensemble,
        jobs: &Range<usize>,
        out: &mut PassOutput,
    ) -> Option<(usize, Vec<Stats>, RunReport)> {
        let result = monte_carlo_stats_reported(
            &e.kind,
            e.domains,
            &self.options,
            self.trials,
            self.seed,
            &self.runner,
        );
        match result {
            Ok((s, report)) => {
                let failed = s.trials - s.passed;
                if failed > 0 {
                    let reason = format!("{}: {failed} trials failed", e.label);
                    out.fail(jobs.start..jobs.start + failed, reason);
                }
                let stats = vec![
                    s.delay_rise,
                    s.delay_fall,
                    s.power_rise,
                    s.power_fall,
                    s.leakage_high,
                    s.leakage_low,
                ];
                Some((s.passed, stats, report))
            }
            Err(err) => {
                out.fail(jobs.clone(), format!("{}: {err}", e.label));
                None
            }
        }
    }

    /// The same ensemble through `monte_carlo_trials`, one span per
    /// characterization, aggregated as `monte_carlo_stats_reported` does.
    fn via_trials(
        &self,
        e: &Ensemble,
        jobs: &Range<usize>,
        t: &Tracer,
        parent: Option<u64>,
        out: &mut PassOutput,
    ) -> Option<(usize, Vec<Stats>, RunReport)> {
        let ensemble = t.span("variation.monte_carlo_trials", parent, None, |id| {
            monte_carlo_trials(
                &e.reference,
                &VariationSpec::paper(),
                self.trials,
                self.seed,
                &self.runner,
                |name| name.starts_with("dut"),
                |k, map| {
                    let job = Some((jobs.start + k) as u64);
                    t.span("core.characterize", Some(id), job, |_| {
                        characterize_with_stats(&e.kind, e.domains, &self.options, Some(map))
                    })
                },
            )
        });
        let mut report = ensemble.report;
        let mut ok = Vec::new();
        for trial in &ensemble.trials {
            let job = jobs.start + trial.index;
            match &trial.result {
                Ok((m, solver)) => {
                    report.absorb_solver(solver);
                    if m.functional {
                        ok.push(*m);
                    } else {
                        let reason = format!("{} trial {}: not functional", e.label, trial.index);
                        out.fail(job..job + 1, reason);
                    }
                }
                Err(err) => {
                    let reason = format!("{} trial {}: {err}", e.label, trial.index);
                    out.fail(job..job + 1, reason);
                }
            }
        }
        let stats = STATS
            .iter()
            .map(|(_, f)| Stats::from_samples(&ok.iter().map(f).collect::<Vec<_>>()))
            .collect::<Option<Vec<Stats>>>()?;
        Some((ok.len(), stats, report))
    }

    /// The paper's winner ordering: SS-TVS leaks less than the combined
    /// VS in both output states, in both directions.
    pub fn invariants(&self, out: &PassOutput) -> Vec<(Range<usize>, String)> {
        let mean = |key: String| {
            out.obs
                .iter()
                .find(|o| o.key == key)
                .map(|o| (o.jobs.clone(), o.values[0].1))
        };
        let mut bad = Vec::new();
        for dir in ["up", "down"] {
            for stat in ["leakage_high", "leakage_low"] {
                if let (Some((jobs_s, s)), Some((jobs_c, c))) = (
                    mean(format!("sstvs.{dir}.{stat}")),
                    mean(format!("combined.{dir}.{stat}")),
                ) {
                    if s >= c {
                        bad.push((
                            jobs_s.start.min(jobs_c.start)..jobs_s.end.max(jobs_c.end),
                            format!("{dir} {stat}: SS-TVS {s:e} A not below combined VS {c:e} A"),
                        ));
                    }
                }
            }
        }
        bad
    }

    /// Draws every trial's process sample once more, serially, one span
    /// per draw: the cost of the variation layer for one pass. Returns
    /// the id of the enclosing span.
    pub fn resample(&self, tracer: &Tracer) -> u64 {
        tracer.span("variation.resample", None, None, |root| {
            for (e_idx, e) in self.ensembles.iter().enumerate() {
                for k in 0..self.trials {
                    let job = Some((e_idx * self.trials + k) as u64);
                    let drawn = tracer.span("variation.sample", Some(root), job, |_| {
                        sample_trial_map(
                            &e.reference,
                            &VariationSpec::paper(),
                            self.seed,
                            k,
                            |name| name.starts_with("dut"),
                        )
                    });
                    std::hint::black_box(drawn);
                }
            }
            root
        })
    }
}
