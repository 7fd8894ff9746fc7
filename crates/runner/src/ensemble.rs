//! Seeded ensembles with per-job failure capture.
//!
//! A Monte Carlo ensemble differs from a plain indexed run in two
//! ways: every job needs its deterministic seed, and a job that fails
//! (a non-convergent trial, a non-functional sample) must be recorded
//! — with enough context to replay it — without taking down the runs
//! sharing its shard.

use crate::queue::{run_indexed_reported, FailureTaxonomyEntry, RunReport};
use crate::seed::derive_seed;
use crate::RunnerOptions;

/// The identity of one run inside an ensemble: its index and the seed
/// derived for it. Everything a failed trial needs for offline replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Run index, `0..trials`.
    pub index: usize,
    /// Seed derived from `(master_seed, index)`.
    pub seed: u64,
}

/// How many extra, escalated attempts a trial is granted after its
/// base attempt fails. Each retry runs inline on the same worker at
/// the next rung of the caller's escalation ladder, so the retry
/// history of a trial is a pure function of its `(index, seed)` —
/// never of the thread schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the base attempt; `0` disables the ladder.
    pub max_retries: usize,
}

impl Default for RetryPolicy {
    /// Two escalated retries — enough to walk the full standard
    /// ladder (tighter gmin → smaller steps).
    fn default() -> Self {
        Self { max_retries: 2 }
    }
}

impl RetryPolicy {
    /// No retries: a failure on the base attempt is final.
    pub fn none() -> Self {
        Self { max_retries: 0 }
    }

    /// Total attempts per trial, base included.
    pub fn attempts(&self) -> usize {
        self.max_retries + 1
    }
}

/// One trial that exhausted every rung of its retry ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialFailure<E> {
    /// The trial's identity (index + replay seed).
    pub job: Job,
    /// The highest rung attempted (`attempts() - 1`).
    pub stage_reached: usize,
    /// Every attempt's error, rung 0 first.
    pub errors: Vec<E>,
}

impl<E> TrialFailure<E> {
    /// The error of the final (highest-rung) attempt.
    pub fn final_error(&self) -> &E {
        self.errors.last().expect("a failed trial has errors")
    }
}

/// One trial that converged, possibly after climbing the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSuccess<T> {
    /// The trial's identity (index + replay seed).
    pub job: Job,
    /// The converged value.
    pub value: T,
    /// The rung that produced the value (0 = base attempt; higher
    /// means the base configuration failed and an escalation won).
    pub rung: usize,
}

/// A completed resilient ensemble. Trials either succeeded at some
/// rung ([`TrialSuccess`]) or exhausted the ladder ([`TrialFailure`]);
/// either way the ensemble itself completes, and the report's
/// [`RunReport::failures`] taxonomy lists every exhausted trial with
/// its replay seed.
#[derive(Debug, Clone)]
pub struct ResilientEnsemble<T, E> {
    /// Per-trial outcomes, indexed by run.
    pub outcomes: Vec<Result<TrialSuccess<T>, TrialFailure<E>>>,
    /// Wall-time accounting plus the machine-readable failure taxonomy.
    pub report: RunReport,
}

impl<T: Clone, E> ResilientEnsemble<T, E> {
    /// The successful values, in run order.
    pub fn successes(&self) -> Vec<T> {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok().map(|s| s.value.clone()))
            .collect()
    }
}

impl<T, E> ResilientEnsemble<T, E> {
    /// Trials that exhausted their ladder, in run order.
    pub fn failures(&self) -> Vec<&TrialFailure<E>> {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().err())
            .collect()
    }

    /// Trials that failed at rung 0 but succeeded on a retry:
    /// `(identity, winning rung)` in run order.
    pub fn recovered(&self) -> Vec<(Job, usize)> {
        self.outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .filter(|s| s.rung > 0)
            .map(|s| (s.job, s.rung))
            .collect()
    }
}

/// Runs `trials` seeded jobs with a per-trial retry ladder and
/// graceful degradation. `eval(job, rung)` evaluates one attempt at
/// the given escalation rung (0 = base configuration; the caller maps
/// rungs to escalated options). A trial that fails at every rung is
/// captured as a [`TrialFailure`] and summarized in the report's
/// failure taxonomy via `classify`, which maps the final error to its
/// stable class token and the work spent — the ensemble itself never
/// aborts. Retries run inline on the claiming worker, so outcomes stay
/// bit-identical for any worker count.
pub fn run_ensemble_resilient<T: Send, E: Send>(
    trials: usize,
    master_seed: u64,
    options: &RunnerOptions,
    policy: RetryPolicy,
    eval: impl Fn(Job, usize) -> Result<T, E> + Sync,
    classify: impl Fn(&E) -> (String, u64),
) -> ResilientEnsemble<T, E> {
    let (outcomes, mut report) = run_indexed_reported(trials, options, |index| {
        let job = Job {
            index,
            seed: derive_seed(master_seed, index as u64),
        };
        let mut errors = Vec::new();
        for rung in 0..policy.attempts() {
            match eval(job, rung) {
                Ok(value) => return Ok(TrialSuccess { job, value, rung }),
                Err(e) => errors.push(e),
            }
        }
        Err(TrialFailure {
            job,
            stage_reached: policy.attempts() - 1,
            errors,
        })
    });
    report.failures = outcomes
        .iter()
        .filter_map(|o| o.as_ref().err())
        .map(|f| {
            let (class, budget_spent) = classify(f.final_error());
            FailureTaxonomyEntry {
                index: f.job.index,
                seed: f.job.seed,
                stage_reached: f.stage_reached,
                class,
                budget_spent,
            }
        })
        .collect();
    ResilientEnsemble { outcomes, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flaky(job: Job) -> Result<u64, String> {
        if job.index % 10 == 3 {
            Err(format!(
                "trial {} diverged (seed {:#x})",
                job.index, job.seed
            ))
        } else {
            Ok(job.seed.rotate_left(7))
        }
    }

    /// A single-attempt ensemble of [`flaky`] trials.
    fn run_flaky(
        trials: usize,
        seed: u64,
        options: &RunnerOptions,
    ) -> ResilientEnsemble<u64, String> {
        run_ensemble_resilient(
            trials,
            seed,
            options,
            RetryPolicy::none(),
            |job, _| flaky(job),
            |e| classify(e),
        )
    }

    #[test]
    fn failures_carry_their_seed_and_do_not_poison_siblings() {
        let e = run_flaky(40, 99, &RunnerOptions::with_jobs(4));
        assert_eq!(e.outcomes.len(), 40);
        let failures = e.failures();
        assert_eq!(failures.len(), 4); // indices 3, 13, 23, 33
        for f in &failures {
            assert_eq!(f.job.seed, derive_seed(99, f.job.index as u64));
            assert!(f.final_error().contains("diverged"));
        }
        // Neighbours of a failed index still succeeded.
        assert!(e.outcomes[2].is_ok());
        assert!(e.outcomes[4].is_ok());
        assert_eq!(e.successes().len(), 36);
    }

    #[test]
    fn ensembles_are_schedule_independent() {
        let serial = run_flaky(64, 7, &RunnerOptions::serial());
        for jobs in [2, 8] {
            let par = run_flaky(64, 7, &RunnerOptions::with_jobs(jobs));
            assert_eq!(par.outcomes, serial.outcomes);
        }
    }

    /// A deterministic ladder: trials at `index % 7 == 2` need one
    /// retry, `index % 7 == 5` need two, `index % 11 == 0` never
    /// converge.
    fn laddered(job: Job, rung: usize) -> Result<u64, String> {
        if job.index.is_multiple_of(11) {
            return Err(format!("hopeless at rung {rung}"));
        }
        let needed = match job.index % 7 {
            2 => 1,
            5 => 2,
            _ => 0,
        };
        if rung >= needed {
            Ok(job.seed ^ rung as u64)
        } else {
            Err(format!("needs rung {needed}, got {rung}"))
        }
    }

    fn classify(e: &str) -> (String, u64) {
        let class = if e.contains("hopeless") {
            "no_convergence"
        } else {
            "retryable"
        };
        (class.to_string(), e.len() as u64)
    }

    #[test]
    fn retries_recover_and_record_their_rung() {
        let e = run_ensemble_resilient(
            28,
            5,
            &RunnerOptions::with_jobs(3),
            RetryPolicy::default(),
            laddered,
            |e| classify(e),
        );
        assert_eq!(e.outcomes.len(), 28);
        // index 2 needs rung 1, index 5 needs rung 2.
        let recovered = e.recovered();
        assert!(recovered.iter().any(|(j, r)| j.index == 2 && *r == 1));
        assert!(recovered.iter().any(|(j, r)| j.index == 5 && *r == 2));
        // Base-attempt successes report rung 0.
        let ok1 = e.outcomes[1].as_ref().unwrap();
        assert_eq!(ok1.rung, 0);
        assert_eq!(ok1.job.seed, derive_seed(5, 1));
    }

    #[test]
    fn exhausted_trials_enter_the_taxonomy_without_aborting() {
        let policy = RetryPolicy { max_retries: 2 };
        let e =
            run_ensemble_resilient(23, 9, &RunnerOptions::with_jobs(4), policy, laddered, |e| {
                classify(e)
            });
        // Indices 0, 11, 22 are hopeless.
        let failures = e.failures();
        assert_eq!(failures.len(), 3);
        for f in &failures {
            assert_eq!(f.job.index % 11, 0);
            assert_eq!(f.stage_reached, 2);
            assert_eq!(f.errors.len(), policy.attempts());
            assert!(f.final_error().contains("rung 2"));
        }
        // The report carries the machine-readable taxonomy, in order.
        let taxa = &e.report.failures;
        assert_eq!(
            taxa.iter().map(|t| t.index).collect::<Vec<_>>(),
            vec![0, 11, 22]
        );
        for t in taxa {
            assert_eq!(t.class, "no_convergence");
            assert_eq!(t.seed, derive_seed(9, t.index as u64));
            assert_eq!(t.stage_reached, 2);
            assert!(t.budget_spent > 0);
            assert!(t.render().contains("no_convergence"));
        }
        assert!(e.report.render().contains("FAILED trial 11"));
        // Everything else still succeeded.
        assert_eq!(e.successes().len(), 20);
    }

    #[test]
    fn resilient_ensembles_are_schedule_independent() {
        let run = |jobs: usize| {
            run_ensemble_resilient(
                66,
                13,
                &RunnerOptions::with_jobs(jobs),
                RetryPolicy::default(),
                laddered,
                |e| classify(e),
            )
        };
        let serial = run(1);
        for jobs in [2, 8] {
            let par = run(jobs);
            assert_eq!(par.outcomes, serial.outcomes);
            assert_eq!(par.report.failures, serial.report.failures);
        }
    }

    #[test]
    fn zero_retry_policy_fails_on_the_base_attempt() {
        let e = run_ensemble_resilient(
            8,
            3,
            &RunnerOptions::serial(),
            RetryPolicy::none(),
            laddered,
            |e| classify(e),
        );
        // index 2 would recover at rung 1, but the ladder is off.
        assert!(e.outcomes[2].is_err());
        assert_eq!(e.failures()[0].stage_reached, 0);
        assert!(e.recovered().is_empty());
    }
}
