//! Tables 1–4: head-to-head characterization and Monte Carlo.

use vls_cells::{ShifterKind, VoltagePair};
use vls_runner::{RunReport, RunnerOptions};
use vls_variation::{monte_carlo_trials, Stats, VariationSpec};

use crate::{characterize, characterize_with_stats, CellMetrics, CharacterizeOptions, CoreError};

/// The default Monte Carlo seed used by the table binaries, so every
/// regeneration of Tables 3/4 prints identical rows.
pub const DEFAULT_MC_SEED: u64 = 0x55_7653;

/// One head-to-head comparison: the SS-TVS against the combined VS at
/// a fixed domain pair (Tables 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadToHead {
    /// The domain pair.
    pub domains: VoltagePair,
    /// Metrics of the proposed SS-TVS.
    pub sstvs: CellMetrics,
    /// Metrics of the combined VS of Figure 6.
    pub combined: CellMetrics,
}

impl HeadToHead {
    /// SS-TVS advantage factors `(rise delay, fall delay, leak high,
    /// leak low)` — a value above 1 means the SS-TVS wins, matching
    /// the "N× lower/faster" phrasing of the paper.
    pub fn advantage(&self) -> (f64, f64, f64, f64) {
        (
            self.combined.delay_rise / self.sstvs.delay_rise,
            self.combined.delay_fall / self.sstvs.delay_fall,
            self.combined.leakage_high / self.sstvs.leakage_high,
            self.combined.leakage_low / self.sstvs.leakage_low,
        )
    }
}

/// Characterizes both designs at `domains`.
///
/// # Errors
///
/// Propagates the first characterization failure.
pub fn head_to_head(
    domains: VoltagePair,
    options: &CharacterizeOptions,
) -> Result<HeadToHead, CoreError> {
    Ok(HeadToHead {
        domains,
        sstvs: characterize(&ShifterKind::sstvs(), domains, options)?,
        combined: characterize(&ShifterKind::combined(), domains, options)?,
    })
}

/// Table 1: low→high shifting, 0.8 V → 1.2 V at 27 °C.
pub fn table1(options: &CharacterizeOptions) -> Result<HeadToHead, CoreError> {
    head_to_head(VoltagePair::low_to_high(), options)
}

/// Table 2: high→low shifting, 1.2 V → 0.8 V at 27 °C.
pub fn table2(options: &CharacterizeOptions) -> Result<HeadToHead, CoreError> {
    head_to_head(VoltagePair::high_to_low(), options)
}

/// Per-metric statistics over the successful Monte Carlo trials of one
/// design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McStats {
    /// Rising-delay statistics, seconds.
    pub delay_rise: Stats,
    /// Falling-delay statistics, seconds.
    pub delay_fall: Stats,
    /// Rising-event power statistics, watts.
    pub power_rise: Stats,
    /// Falling-event power statistics, watts.
    pub power_fall: Stats,
    /// Output-high leakage statistics, amperes.
    pub leakage_high: Stats,
    /// Output-low leakage statistics, amperes.
    pub leakage_low: Stats,
    /// Trials that characterized successfully AND were functional.
    pub passed: usize,
    /// Total trials attempted.
    pub trials: usize,
}

impl McStats {
    /// Aggregates the passing trials, or `None` when none passed (a
    /// fully-failed ensemble must not panic the aggregator).
    fn from_metrics(metrics: &[CellMetrics], trials: usize) -> Option<Self> {
        let take = |f: fn(&CellMetrics) -> f64| -> Option<Stats> {
            Stats::from_samples(&metrics.iter().map(f).collect::<Vec<_>>())
        };
        Some(Self {
            delay_rise: take(|m| m.delay_rise.value())?,
            delay_fall: take(|m| m.delay_fall.value())?,
            power_rise: take(|m| m.power_rise.value())?,
            power_fall: take(|m| m.power_fall.value())?,
            leakage_high: take(|m| m.leakage_high.value())?,
            leakage_low: take(|m| m.leakage_low.value())?,
            passed: metrics.len(),
            trials,
        })
    }
}

/// A Monte Carlo table (Table 3 or 4): statistics for both designs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McTable {
    /// The domain pair.
    pub domains: VoltagePair,
    /// Trials per design.
    pub trials: usize,
    /// SS-TVS statistics.
    pub sstvs: McStats,
    /// Combined-VS statistics.
    pub combined: McStats,
}

/// Runs the paper's Monte Carlo protocol for one design: `trials`
/// process samples (W/L/VT of every *cell* device varied
/// independently; the shared measurement fixture stays nominal), each
/// fully re-characterized. Trials are sharded across workers per
/// `runner`; per-trial seeds are stable so the result is bit-identical
/// for every worker count. Alongside the statistics it returns the
/// runner's per-shard wall-time report.
///
/// # Errors
///
/// Returns an error only if *every* trial fails; individual failed
/// trials are excluded and reported through [`McStats::passed`].
pub fn monte_carlo_stats_reported(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    trials: usize,
    seed: u64,
    runner: &RunnerOptions,
) -> Result<(McStats, RunReport), CoreError> {
    // A reference harness provides the device names to perturb.
    let (wave, _, _, _) = vls_cells::Harness::standard_stimulus(domains);
    let reference = vls_cells::Harness::build(kind, domains, wave, options.load_farads);
    let spec = VariationSpec::paper();

    let ensemble = monte_carlo_trials(
        &reference.circuit,
        &spec,
        trials,
        seed,
        runner,
        |name| name.starts_with("dut"),
        |_, map| characterize_with_stats(kind, domains, options, Some(map)),
    );

    // Fold every successful trial's solver counters into the report
    // (trial order, so the aggregate is schedule-independent) and keep
    // the functional metrics for the statistics.
    let mut report = ensemble.report;
    let mut ok: Vec<CellMetrics> = Vec::new();
    for t in &ensemble.trials {
        if let Ok((metrics, solver)) = &t.result {
            report.absorb_solver(solver);
            if metrics.functional {
                ok.push(*metrics);
            }
        }
    }
    let stats = McStats::from_metrics(&ok, trials).ok_or_else(|| {
        CoreError::NotFunctional(format!(
            "all {trials} Monte Carlo trials of {} failed",
            kind.label()
        ))
    })?;
    Ok((stats, report))
}

/// [`monte_carlo_stats_reported`] without the shard report.
///
/// # Errors
///
/// As [`monte_carlo_stats_reported`].
pub fn monte_carlo_stats(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    trials: usize,
    seed: u64,
    runner: &RunnerOptions,
) -> Result<McStats, CoreError> {
    monte_carlo_stats_reported(kind, domains, options, trials, seed, runner).map(|(s, _)| s)
}

/// Runs the Monte Carlo comparison of Tables 3/4 for both designs.
///
/// # Errors
///
/// Propagates a design whose every trial failed.
pub fn monte_carlo_table(
    domains: VoltagePair,
    options: &CharacterizeOptions,
    trials: usize,
    seed: u64,
    runner: &RunnerOptions,
) -> Result<McTable, CoreError> {
    Ok(McTable {
        domains,
        trials,
        sstvs: monte_carlo_stats(
            &ShifterKind::sstvs(),
            domains,
            options,
            trials,
            seed,
            runner,
        )?,
        combined: monte_carlo_stats(
            &ShifterKind::combined(),
            domains,
            options,
            trials,
            seed,
            runner,
        )?,
    })
}

/// Table 3: Monte Carlo at low→high. The paper uses 1000 trials.
pub fn table3(
    options: &CharacterizeOptions,
    trials: usize,
    seed: u64,
    runner: &RunnerOptions,
) -> Result<McTable, CoreError> {
    monte_carlo_table(VoltagePair::low_to_high(), options, trials, seed, runner)
}

/// Table 4: Monte Carlo at high→low. The paper uses 1000 trials.
pub fn table4(
    options: &CharacterizeOptions,
    trials: usize,
    seed: u64,
    runner: &RunnerOptions,
) -> Result<McTable, CoreError> {
    monte_carlo_table(VoltagePair::high_to_low(), options, trials, seed, runner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_the_leakage_ordering() {
        let t = table1(&CharacterizeOptions::default()).unwrap();
        let (_, _, leak_high_adv, leak_low_adv) = t.advantage();
        assert!(leak_high_adv > 2.0, "leak-high advantage {leak_high_adv}");
        assert!(leak_low_adv > 2.0, "leak-low advantage {leak_low_adv}");
        assert!(t.sstvs.functional && t.combined.functional);
    }

    #[test]
    fn table2_reproduces_the_leakage_ordering() {
        let t = table2(&CharacterizeOptions::default()).unwrap();
        let (_, _, leak_high_adv, leak_low_adv) = t.advantage();
        assert!(leak_high_adv > 1.5, "leak-high advantage {leak_high_adv}");
        assert!(leak_low_adv > 1.5, "leak-low advantage {leak_low_adv}");
    }

    #[test]
    fn small_monte_carlo_runs_and_is_deterministic() {
        let opts = CharacterizeOptions::default();
        let a = monte_carlo_stats(
            &ShifterKind::sstvs(),
            VoltagePair::low_to_high(),
            &opts,
            6,
            DEFAULT_MC_SEED,
            &RunnerOptions::default(),
        )
        .unwrap();
        assert_eq!(a.trials, 6);
        assert!(a.passed >= 5, "yield too low: {}/{}", a.passed, a.trials);
        assert!(a.delay_rise.mean > 0.0 && a.delay_rise.std >= 0.0);
        // Deterministic reruns, including on a single worker.
        let b = monte_carlo_stats(
            &ShifterKind::sstvs(),
            VoltagePair::low_to_high(),
            &opts,
            6,
            DEFAULT_MC_SEED,
            &RunnerOptions::serial(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn variation_spreads_the_metrics() {
        // With nonzero σ the delay samples must actually vary.
        let s = monte_carlo_stats(
            &ShifterKind::sstvs(),
            VoltagePair::high_to_low(),
            &CharacterizeOptions::default(),
            5,
            1,
            &RunnerOptions::default(),
        )
        .unwrap();
        assert!(s.delay_rise.std > 0.0, "no spread in MC delays");
        assert!(s.leakage_high.std > 0.0, "no spread in MC leakage");
    }
}
