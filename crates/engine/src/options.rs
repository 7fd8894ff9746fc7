//! Simulation tolerances and controls.

use vls_check::CheckLevel;
use vls_fault::FaultPlan;
use vls_units::Temperature;

/// Tolerances and controls shared by all analyses. The defaults follow
/// SPICE conventions and are what every experiment in this workspace
/// runs with unless stated otherwise in EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Device temperature.
    pub temperature: Temperature,
    /// Relative convergence tolerance (SPICE `RELTOL`).
    pub reltol: f64,
    /// Absolute voltage tolerance, V (SPICE `VNTOL`).
    pub vabstol: f64,
    /// Absolute current tolerance for branch unknowns, A.
    pub iabstol: f64,
    /// Conductance tied from every node to ground, S (SPICE `GMIN`).
    pub gmin: f64,
    /// Maximum Newton iterations per solve attempt.
    pub max_newton_iters: usize,
    /// Per-iteration clamp on any node-voltage update, V. Damps the
    /// exponential MOSFET characteristics exactly like SPICE's junction
    /// voltage limiting.
    pub max_voltage_step: f64,
    /// Largest transient step, s; `None` derives `tstop / 50`.
    pub max_step: Option<f64>,
    /// Smallest transient step before reporting step underflow, s.
    pub min_step: f64,
    /// First transient step after DC or a breakpoint, s.
    pub initial_step: f64,
    /// Transient local-truncation-error tolerance, V. The step size is
    /// adapted to hold the predictor–corrector disagreement below this.
    pub lte_tol: f64,
    /// Unknown count above which the sparse solver is used. At or below
    /// it the Newton kernel solves with dense LU (natural order, partial
    /// pivoting); above it the kernel factors the minimum-degree-ordered
    /// sparse system. `usize::MAX` forces the dense path at any size,
    /// which makes it the reference the sparse path is checked against.
    pub sparse_threshold: usize,
    /// Diagonal-preference pivot tolerance for the sparse LU: the
    /// diagonal is kept as pivot while its magnitude is at least this
    /// fraction of the column maximum. Also the pivot-health threshold
    /// guarding numeric-only refactorization. SPICE's classic value.
    pub sparse_pivot_tol: f64,
    /// Static electrical-rule checking to run before any analysis.
    /// `Off` (the default) keeps only the structural `validate()`
    /// pass; `Connectivity`/`Full` run `vls-check` and refuse to
    /// simulate a circuit with error-severity findings.
    pub check: CheckLevel,
    /// Armed fault-injection plan. Empty (the default) keeps every
    /// compiled-in hook cold and the solver bit-identical to a
    /// hook-free build. The plan stored here is expected to be
    /// seed-resolved already (`FaultPlan::arm`); the engine loads it
    /// into a fresh `FaultSession` per analysis phase.
    pub fault: FaultPlan,
    /// Hard ceiling on Newton iterations summed across a whole DC
    /// homotopy ladder (all stages, all continuation points). Acts as
    /// a deterministic timeout: crossing it aborts the solve with
    /// `EngineError::BudgetExhausted` instead of grinding on. `None`
    /// (the default) is unlimited.
    pub newton_budget: Option<u64>,
    /// Hard ceiling on transient step *attempts* (accepted + rejected)
    /// for one transient run — the stepper's deterministic timeout.
    /// `None` (the default) is unlimited.
    pub step_budget: Option<u64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            temperature: Temperature::ROOM,
            reltol: 1e-3,
            vabstol: 1e-6,
            iabstol: 1e-12,
            gmin: 1e-12,
            max_newton_iters: 120,
            max_voltage_step: 0.3,
            max_step: None,
            min_step: 1e-18,
            initial_step: 1e-13,
            lte_tol: 1e-3,
            sparse_threshold: 64,
            sparse_pivot_tol: 1e-3,
            check: CheckLevel::Off,
            fault: FaultPlan::none(),
            newton_budget: None,
            step_budget: None,
        }
    }
}

impl SimOptions {
    /// Convenience constructor for a given temperature in °C, keeping
    /// every other option at its default.
    pub fn at_celsius(celsius: f64) -> Self {
        Self {
            temperature: Temperature::from_celsius(celsius),
            ..Self::default()
        }
    }

    /// The retry-ladder escalation: a progressively more conservative
    /// variant of these options for retry rung `rung`. The steps are
    /// cumulative — each rung keeps everything the previous rungs
    /// changed and adds its own concession:
    ///
    /// * rung 0 — these options unchanged (the base attempt);
    /// * rung 1 — gmin floor raised 100× (stiffer regularization pulls
    ///   floating/bistable nodes toward convergence);
    /// * rung 2+ — additionally quarters the maximum and initial
    ///   transient steps (brute-force LTE headroom).
    ///
    /// Injected faults model a transient upset of the base attempt, so
    /// escalation also disarms the fault plan from rung 1 on — a retry
    /// is a *clean* re-run under more conservative numerics, which is
    /// exactly what a production retry would be.
    pub fn escalated(&self, rung: usize) -> Self {
        let mut o = self.clone();
        if rung == 0 {
            return o;
        }
        o.fault = FaultPlan::none();
        o.gmin = self.gmin * 100.0;
        if rung >= 2 {
            o.max_step = self.max_step.map(|s| s / 4.0);
            o.initial_step = self.initial_step / 4.0;
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_spice_like() {
        let o = SimOptions::default();
        assert_eq!(o.reltol, 1e-3);
        assert_eq!(o.gmin, 1e-12);
        assert_eq!(o.temperature, Temperature::ROOM);
        assert_eq!(o.sparse_pivot_tol, 1e-3);
        // Fault injection and budgets must default inert/unlimited.
        assert!(o.fault.is_empty());
        assert_eq!(o.newton_budget, None);
        assert_eq!(o.step_budget, None);
        // Cells (≤ 19 unknowns) stay on the dense path; only chip-scale
        // systems take the ordered sparse solve.
        assert_eq!(o.sparse_threshold, 64);
    }

    #[test]
    fn escalation_is_cumulative_and_disarms_faults() {
        let mut base = SimOptions {
            max_step: Some(1e-11),
            ..SimOptions::default()
        };
        base.fault = FaultPlan::parse("pivot").unwrap();
        assert_eq!(base.escalated(0), base, "rung 0 is the base attempt");
        let r1 = base.escalated(1);
        assert!(r1.fault.is_empty(), "retries run clean");
        assert_eq!(r1.gmin, base.gmin * 100.0);
        assert_eq!(r1.max_step, base.max_step);
        assert_eq!(r1.initial_step, base.initial_step);
        let r2 = base.escalated(2);
        assert!(r2.fault.is_empty());
        assert_eq!(r2.gmin, base.gmin * 100.0);
        assert_eq!(r2.max_step, Some(1e-11 / 4.0));
        assert_eq!(r2.initial_step, base.initial_step / 4.0);
        // The ladder has two rungs: every rung past the last repeats it.
        assert_eq!(base.escalated(3), r2);
        assert_eq!(base.escalated(7), r2);
    }

    #[test]
    fn at_celsius_only_changes_temperature() {
        let o = SimOptions::at_celsius(90.0);
        assert!((o.temperature.as_celsius() - 90.0).abs() < 1e-9);
        assert_eq!(o.reltol, SimOptions::default().reltol);
    }
}
