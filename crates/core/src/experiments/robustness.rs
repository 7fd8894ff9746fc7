//! The §4 robustness validation: correct translation over the full
//! VDDI × VDDO range, across temperature, and under process variation.

use vls_cells::{ShifterKind, VoltagePair};
use vls_runner::RunnerOptions;

use crate::experiments::figures::delay_surface;
use crate::experiments::tables::monte_carlo_stats;
use crate::{CharacterizeOptions, CoreError};

/// Outcome of the robustness validation.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Grid yield per temperature: `(celsius, pass_fraction)`.
    pub grid_yield: Vec<(f64, f64)>,
    /// Monte Carlo yield per temperature:
    /// `(celsius, passed, trials)` — the paper reports 1000/1000 at
    /// each of 27/60/90 °C.
    pub mc_yield: Vec<(f64, usize, usize)>,
}

impl RobustnessReport {
    /// `true` when every grid point and every Monte Carlo trial at
    /// every temperature translated correctly.
    pub fn all_pass(&self) -> bool {
        self.grid_yield.iter().all(|&(_, y)| y >= 1.0)
            && self.mc_yield.iter().all(|&(_, p, n)| p == n)
    }
}

/// Runs the robustness validation for the SS-TVS: a `grid_step`-volt
/// functionality sweep over [0.8, 1.4] V² and `mc_trials` Monte Carlo
/// characterizations at both paper corners, at each temperature in
/// `temperatures_celsius`.
///
/// A grid point passes when its stimulus run translates
/// ([`delay_surface`] runs no leakage holds); every Monte Carlo trial
/// runs the full protocol, so its leakage settle check still counts.
///
/// # Errors
///
/// Propagates Monte Carlo runs in which every trial failed.
pub fn robustness_report(
    grid_step: f64,
    mc_trials: usize,
    seed: u64,
    temperatures_celsius: &[f64],
    runner: &RunnerOptions,
) -> Result<RobustnessReport, CoreError> {
    let mut grid_yield = Vec::new();
    let mut mc_yield = Vec::new();
    for &temp in temperatures_celsius {
        let options = CharacterizeOptions::at_celsius(temp);
        let surface = delay_surface(&ShifterKind::sstvs(), 0.8, 1.4, grid_step, &options, runner);
        grid_yield.push((temp, surface.yield_fraction()));

        let mut passed = 0;
        let mut total = 0;
        for domains in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
            let stats = monte_carlo_stats(
                &ShifterKind::sstvs(),
                domains,
                &options,
                mc_trials,
                seed,
                runner,
            )?;
            passed += stats.passed;
            total += stats.trials;
        }
        mc_yield.push((temp, passed, total));
    }
    Ok(RobustnessReport {
        grid_yield,
        mc_yield,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_robustness_run_passes_everywhere() {
        // Coarse but real: 4×4 grid at two temperatures, 3 MC trials.
        let r = robustness_report(0.2, 3, 7, &[27.0, 90.0], &RunnerOptions::default()).unwrap();
        assert_eq!(r.grid_yield.len(), 2);
        assert_eq!(r.mc_yield.len(), 2);
        for &(t, y) in &r.grid_yield {
            assert!(y >= 0.99, "grid yield {y} at {t} °C");
        }
        for &(t, p, n) in &r.mc_yield {
            assert_eq!(p, n, "MC failures at {t} °C");
        }
        assert!(r.all_pass());
    }
}
