//! Yield-mode evaluation: Monte Carlo pass rate under process
//! variation, run through the resilient ensemble runner.
//!
//! This is the code path the optimizer's `Objective::Yield` drives and
//! the `examples/monte_carlo_yield.rs` example demonstrates: per-trial
//! seeds derived from one master seed (bit-identical at any worker
//! count), the PR-5 escalation ladder for trials whose subthreshold
//! operating points refuse to converge, and a failure taxonomy instead
//! of silent trial loss.

use vls_cells::{Harness, ShifterKind, VoltagePair};
use vls_core::{characterize_with, CellMetrics, CharacterizeOptions, CoreError};
use vls_num::rng::Xoshiro256pp;
use vls_runner::{run_ensemble_resilient, RetryPolicy, RunnerOptions};
use vls_variation::{sample_perturbation, VariationSpec};

/// What a Monte Carlo trial must achieve to count as a pass, plus the
/// ensemble's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldSpec {
    /// Trials per candidate.
    pub trials: usize,
    /// Master seed; per-trial seeds derive from it.
    pub seed: u64,
    /// Worst-edge delay ceiling, s (`None` = functionality only).
    pub max_delay: Option<f64>,
    /// Worst-state leakage ceiling, A (`None` = functionality only).
    pub max_leakage: Option<f64>,
    /// Escalated retries for non-converging trials (the PR-5 ladder).
    pub retries: usize,
}

impl Default for YieldSpec {
    fn default() -> Self {
        Self {
            trials: 25,
            seed: vls_core::experiments::tables::DEFAULT_MC_SEED,
            max_delay: None,
            max_leakage: None,
            retries: RetryPolicy::default().max_retries,
        }
    }
}

/// One candidate's Monte Carlo verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldOutcome {
    /// Trials that simulated *and* met every target.
    pub passed: usize,
    /// Total trials.
    pub trials: usize,
    /// Trials that failed to simulate even after the full ladder.
    pub sim_failures: usize,
    /// `(trial index, rung)` of trials that needed an escalated retry.
    pub recovered: Vec<(usize, usize)>,
    /// Failure classes of exhausted trials, sorted, with counts.
    pub failure_classes: Vec<(String, usize)>,
}

impl YieldOutcome {
    /// The pass rate in `[0, 1]`; a sim failure counts as a fail, not
    /// a dropped trial.
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.passed as f64 / self.trials as f64
    }
}

/// The stable failure-class token of a characterization error — engine
/// failures keep their engine class, measurement-protocol failures get
/// their own tokens.
pub fn classify_core_error(e: &CoreError) -> &'static str {
    match e {
        CoreError::Engine(e) => e.failure_class(),
        CoreError::MissingEdge(_) => "missing_edge",
        CoreError::NotFunctional(_) => "not_functional",
        CoreError::NotSettled(_) => "not_settled",
    }
}

/// Runs the paper's Monte Carlo protocol on `kind` and scores each
/// trial against `spec`'s targets. Per-trial perturbations are
/// sampled from seeds derived off `spec.seed`, trials are sharded per
/// `runner` (honoring `VLS_JOBS` when `runner` leaves jobs unset), and
/// a trial whose base simulation fails walks the escalation ladder up
/// to `spec.retries` rungs before being booked as a sim failure —
/// escalation changes solver settings only, never the sampled process
/// point, so the outcome is bit-identical at any worker count.
pub fn yield_ensemble(
    kind: &ShifterKind,
    domains: VoltagePair,
    base: &CharacterizeOptions,
    spec: &YieldSpec,
    runner: &RunnerOptions,
) -> YieldOutcome {
    // A reference harness provides the device names to perturb.
    let (wave, _, _, _) = Harness::standard_stimulus(domains);
    let reference = Harness::build(kind, domains, wave, base.load_farads);
    let variation = VariationSpec::paper();

    let score = |m: &CellMetrics| {
        let mut pass = m.functional;
        if let Some(cap) = spec.max_delay {
            pass = pass && m.delay_rise.value().max(m.delay_fall.value()) <= cap;
        }
        if let Some(cap) = spec.max_leakage {
            pass = pass && m.leakage_high.value().max(m.leakage_low.value()) <= cap;
        }
        pass
    };

    let ensemble = run_ensemble_resilient(
        spec.trials,
        spec.seed,
        runner,
        RetryPolicy {
            max_retries: spec.retries,
        },
        |job, rung| {
            // The process point depends only on the trial seed: every
            // rung re-simulates the *same* sampled device population.
            let mut rng = Xoshiro256pp::seed_from_u64(job.seed);
            let map = sample_perturbation(&reference.circuit, &variation, &mut rng, |name| {
                name.starts_with("dut")
            });
            let mut options = base.clone();
            options.sim = options.sim.escalated(rung);
            let m = characterize_with(kind, domains, &options, Some(&map))?;
            Ok::<bool, CoreError>(score(&m))
        },
        |e| (classify_core_error(e).to_string(), 0),
    );

    let passed = ensemble.successes().iter().filter(|&&p| p).count();
    let sim_failures = ensemble.failures().len();
    let recovered = ensemble
        .recovered()
        .into_iter()
        .map(|(job, rung)| (job.index, rung))
        .collect();
    let mut classes = std::collections::BTreeMap::new();
    for entry in &ensemble.report.failures {
        *classes.entry(entry.class.clone()).or_insert(0usize) += 1;
    }
    YieldOutcome {
        passed,
        trials: spec.trials,
        sim_failures,
        recovered,
        failure_classes: classes.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults_are_sane() {
        let s = YieldSpec::default();
        assert_eq!(s.trials, 25);
        assert_eq!(s.retries, RetryPolicy::default().max_retries);
        assert!(s.max_delay.is_none() && s.max_leakage.is_none());
    }

    #[test]
    fn rate_counts_sim_failures_as_fails() {
        let y = YieldOutcome {
            passed: 3,
            trials: 4,
            sim_failures: 1,
            recovered: vec![],
            failure_classes: vec![("no_convergence".into(), 1)],
        };
        assert!((y.rate() - 0.75).abs() < 1e-12);
        let empty = YieldOutcome {
            passed: 0,
            trials: 0,
            sim_failures: 0,
            recovered: vec![],
            failure_classes: vec![],
        };
        assert_eq!(empty.rate(), 0.0);
    }
}
