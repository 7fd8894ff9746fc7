//! Solver instrumentation counters.
//!
//! The Newton kernel counts what it actually did — device and Meyer
//! capacitance evaluations, full pivoting factorizations versus
//! numeric-only refactorizations — so every speedup claim in the bench
//! binaries is backed by observable work reduction, not just wall time.

/// Counters accumulated by one solve (a DC operating point or a whole
/// transient), mergeable across runs for ensemble-level reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Newton iterations performed (every assembly/solve round).
    pub newton_iters: u64,
    /// Linear systems solved (forward/backward substitutions).
    pub linear_solves: u64,
    /// Full factorizations with pivot search (dense LU or sparse
    /// Gilbert–Peierls with symbolic analysis).
    pub full_factorizations: u64,
    /// Numeric-only sparse refactorizations reusing the frozen pivot
    /// order and symbolic structure.
    pub refactorizations: u64,
    /// Refactorizations whose pivot-health check failed, forcing a
    /// fall back to a full re-pivoting factorization.
    pub refactor_fallbacks: u64,
    /// MOSFET operating-point evaluations: one per MOSFET per Newton
    /// iteration.
    pub device_evals: u64,
    /// Meyer capacitance evaluations: one per MOSFET per transient
    /// step attempt.
    pub cap_evals: u64,
    /// Faults injected into this solve by an armed fault plan. Zero in
    /// every production run; a nonzero value marks the counters above
    /// as describing a deliberately perturbed trajectory.
    pub injected_faults: u64,
}

impl SolverStats {
    /// Accumulates `other` into `self` — the ensemble aggregation
    /// primitive.
    pub fn merge(&mut self, other: &SolverStats) {
        self.newton_iters += other.newton_iters;
        self.linear_solves += other.linear_solves;
        self.full_factorizations += other.full_factorizations;
        self.refactorizations += other.refactorizations;
        self.refactor_fallbacks += other.refactor_fallbacks;
        self.device_evals += other.device_evals;
        self.cap_evals += other.cap_evals;
        self.injected_faults += other.injected_faults;
    }

    /// `true` when no counter ever ticked (e.g. a report that never
    /// absorbed solver activity).
    pub fn is_empty(&self) -> bool {
        *self == SolverStats::default()
    }

    /// Always `0.0`: the engine evaluates every device on every Newton
    /// iteration (device bypass was measured and removed, see
    /// EXPERIMENTS.md). Kept only because the benchmark's
    /// `device.bypass_share` metric reads it; drop both together in the
    /// next change to the benchmark.
    pub fn bypass_rate(&self) -> f64 {
        0.0
    }

    /// Fraction of sparse factorizations served by numeric-only
    /// refactorization, in `[0, 1]`. Zero when nothing was factorized.
    pub fn refactor_rate(&self) -> f64 {
        let total = self.full_factorizations + self.refactorizations;
        if total == 0 {
            0.0
        } else {
            self.refactorizations as f64 / total as f64
        }
    }

    /// One human-readable summary line for the bench drivers.
    pub fn render(&self) -> String {
        let mut line = format!(
            "newton {} iters, {} solves; factorizations {} full / {} refactor ({} fallback); \
             device evals {}; cap evals {}",
            self.newton_iters,
            self.linear_solves,
            self.full_factorizations,
            self.refactorizations,
            self.refactor_fallbacks,
            self.device_evals,
            self.cap_evals,
        );
        if self.injected_faults > 0 {
            line.push_str(&format!("; {} injected faults", self.injected_faults));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_counter() {
        let mut a = SolverStats {
            newton_iters: 1,
            linear_solves: 2,
            full_factorizations: 3,
            refactorizations: 4,
            refactor_fallbacks: 5,
            device_evals: 6,
            cap_evals: 7,
            injected_faults: 8,
        };
        a.merge(&a.clone());
        assert_eq!(a.newton_iters, 2);
        assert_eq!(a.cap_evals, 14);
        assert_eq!(a.injected_faults, 16);
        assert!(a.render().contains("16 injected faults"));
        assert!(!a.is_empty());
        assert!(SolverStats::default().is_empty());
    }

    #[test]
    fn rates_are_well_defined_at_zero() {
        let s = SolverStats::default();
        assert_eq!(s.bypass_rate(), 0.0);
        assert_eq!(s.refactor_rate(), 0.0);
        let t = SolverStats {
            device_evals: 3,
            full_factorizations: 1,
            refactorizations: 1,
            ..SolverStats::default()
        };
        assert_eq!(t.bypass_rate(), 0.0);
        assert!((t.refactor_rate() - 0.5).abs() < 1e-15);
        assert!(t.render().contains("device evals 3; cap evals 0"));
    }
}
