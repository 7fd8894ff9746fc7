//! Rendering an optimization run: a human summary for the terminal
//! and a JSON artifact for `--out`.

use std::fmt::Write as _;

use vls_charlib::json::{self, Json};
use vls_charlib::json_obj;
use vls_units::fmt_eng;

use crate::objective::COST_INFEASIBLE;
use crate::search::{EvalKind, OptOutcome, Verdict};

impl EvalKind {
    /// The stable token used in reports and JSON.
    pub fn token(&self) -> &'static str {
        match self {
            EvalKind::Surrogate => "surrogate",
            EvalKind::ExactFallback => "exact_fallback",
            EvalKind::Exact => "exact",
            EvalKind::YieldEnsemble => "yield_ensemble",
            EvalKind::Failed => "failed",
        }
    }
}

impl Verdict {
    /// The stable token used in reports and JSON.
    pub fn token(&self) -> &'static str {
        match self {
            Verdict::Accepted => "accepted",
            Verdict::Refused => "refused",
            Verdict::ExactFailed => "exact_failed",
        }
    }
}

/// Formats one cost under the run's objective: engineering notation
/// for real metric costs, an explicit penalty tag for the graded
/// bands, a fail-fraction for yield mode.
fn fmt_cost(objective: &str, v: f64) -> String {
    match objective {
        "yield" => format!("{:.1}% fail", 100.0 * v),
        _ if v >= COST_INFEASIBLE => format!("penalty {v:.3e}"),
        "edp" => fmt_eng(v, "Js"),
        _ => fmt_eng(v, "s"),
    }
}

impl OptOutcome {
    /// The human-readable run summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== vls-opt: {} objective ==", self.objective);
        for knob in self.space.knobs() {
            let _ = writeln!(
                out,
                "knob {}: [{}, {}] step {}",
                knob.name, knob.lo, knob.hi, knob.step
            );
        }
        let _ = writeln!(
            out,
            "budget {} (used {}), {} restart(s)",
            self.budget,
            self.evaluations,
            self.restarts.len()
        );
        let a = &self.accounting;
        let _ = writeln!(
            out,
            "traffic: {} surrogate, {} exact, {} yield, {} failed; fallbacks {} trust / {} corner / {} non-functional; {} verification",
            a.surrogate_hits,
            a.exact_evals,
            a.yield_evals,
            a.failed_candidates,
            a.fallback_out_of_trust,
            a.fallback_clamped_corner,
            a.fallback_non_functional,
            a.verification_evals,
        );
        for r in &self.restarts {
            let v = &r.verification;
            let gap = v
                .gap
                .map(|g| format!("{:.2}%", 100.0 * g))
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "restart {}: cost {} after {} eval(s), {}; verdict {} (search {}, exact {}, gap {})",
                r.restart,
                fmt_cost(&self.objective, r.best_cost),
                r.evaluations,
                if r.converged {
                    "converged"
                } else {
                    "budget-cut"
                },
                v.verdict.token(),
                fmt_cost(&self.objective, v.search_cost),
                v.exact_cost
                    .map(|c| fmt_cost(&self.objective, c))
                    .unwrap_or_else(|| v.error.clone().unwrap_or_else(|| "failed".into())),
                gap,
            );
        }
        match self.best_restart() {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "best: restart {} at exact cost {}",
                    r.restart,
                    fmt_cost(
                        &self.objective,
                        r.verification.exact_cost.unwrap_or(f64::NAN)
                    )
                );
                for (knob, v) in self.space.knobs().iter().zip(&r.best) {
                    let _ = writeln!(out, "  {} = {:.6}", knob.name, v);
                }
                if let Some(m) = &r.verification.exact_metrics {
                    let _ = writeln!(
                        out,
                        "  exact: delay {} / {}, leakage {} / {}",
                        fmt_eng(m.delay_rise, "s"),
                        fmt_eng(m.delay_fall, "s"),
                        fmt_eng(m.leakage_high, "A"),
                        fmt_eng(m.leakage_low, "A"),
                    );
                }
            }
            None => {
                let _ = writeln!(out, "best: none (no restart optimum survived verification)");
            }
        }
        out
    }

    /// The machine-readable artifact (`format` 1).
    pub fn to_json(&self) -> String {
        let knobs = self.space.knobs();
        let space = knobs
            .iter()
            .map(|k| json_obj!("name": k.name.as_str(), "lo": k.lo, "hi": k.hi, "step": k.step));
        let a = &self.accounting;
        let accounting = json_obj!(
            "surrogate_hits": a.surrogate_hits, "exact_evals": a.exact_evals,
            "yield_evals": a.yield_evals, "fallback_out_of_trust": a.fallback_out_of_trust,
            "fallback_clamped_corner": a.fallback_clamped_corner,
            "fallback_non_functional": a.fallback_non_functional,
            "failed_candidates": a.failed_candidates, "verification_evals": a.verification_evals,
        );
        let restarts = self.restarts.iter().map(|r| {
            let v = &r.verification;
            json_obj!(
                "restart": r.restart, "start": r.start.as_slice(), "best": r.best.as_slice(),
                "best_cost": r.best_cost, "evaluations": r.evaluations, "converged": r.converged,
                "verification": json_obj!(
                    "search_cost": v.search_cost, "exact_cost": v.exact_cost, "gap": v.gap,
                    "tolerance": v.tolerance, "verdict": v.verdict.token(),
                    "error": v.error.as_deref(),
                ),
            )
        });
        let best = self.best_restart().map(|r| {
            let sizing = knobs.iter().zip(&r.best);
            let metrics = r.verification.exact_metrics.as_ref().map(|m| {
                json_obj!(
                    "delay_rise": m.delay_rise, "delay_fall": m.delay_fall,
                    "power_rise": m.power_rise, "power_fall": m.power_fall,
                    "leakage_high": m.leakage_high, "leakage_low": m.leakage_low,
                    "functional": m.functional,
                )
            });
            json_obj!(
                "restart": r.restart,
                "sizing": Json::Obj(sizing.map(|(k, &v)| (k.name.clone(), v.into())).collect()),
                "exact_cost": r.verification.exact_cost,
                "metrics": metrics,
            )
        });
        let trajectory = self.trajectory.iter().map(|s| {
            json_obj!(
                "i": s.eval_index, "restart": s.restart, "x": s.x.as_slice(), "cost": s.cost,
                "kind": s.kind.token(), "accepted": s.accepted,
            )
        });
        json::render(&json_obj!(
            "format": 1usize,
            "objective": self.objective.as_str(),
            "budget": self.budget,
            "evaluations": self.evaluations,
            "space": space.collect::<Vec<_>>(),
            "accounting": accounting,
            "restarts": restarts.collect::<Vec<_>>(),
            "best": best,
            "trajectory": trajectory.collect::<Vec<_>>(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use vls_charlib::json::{parse, Json};
    use vls_charlib::TableMetrics;
    use vls_runner::RunnerOptions;

    use crate::objective::Objective;
    use crate::param::{Knob, ParamSpace};
    use crate::search::{optimize, OptimizerConfig};
    use crate::source::FnSource;

    fn run() -> crate::search::OptOutcome {
        let space = ParamSpace::new(vec![
            Knob::new("a", 0.0, 2.0, 0.1),
            Knob::new("b", 0.0, 2.0, 0.1),
        ])
        .unwrap();
        let src = FnSource::new(|x: &[f64]| {
            let v = 1e-10 * (1.0 + (x[0] - 0.7).powi(2) + (x[1] - 1.3).powi(2));
            Ok(TableMetrics {
                delay_rise: v,
                delay_fall: v,
                power_rise: 1e-6,
                power_fall: 1e-6,
                leakage_high: 1e-9,
                leakage_low: 1e-9,
                functional: true,
            })
        });
        let config = OptimizerConfig {
            budget: 150,
            restarts: 1,
            runner: RunnerOptions::serial(),
            ..OptimizerConfig::default()
        };
        optimize(
            &space,
            &Objective::DelayAtLeakageCap { cap_amps: 1e-6 },
            &src,
            None,
            &config,
        )
        .unwrap()
    }

    #[test]
    fn render_mentions_the_essentials() {
        let out = run();
        let text = out.render();
        assert!(text.contains("delay objective"));
        assert!(text.contains("knob a:"));
        assert!(text.contains("verdict accepted"));
        assert!(text.contains("best: restart"));
    }

    #[test]
    fn json_artifact_parses_and_carries_the_run() {
        let out = run();
        let json = parse(&out.to_json()).expect("artifact parses");
        assert_eq!(json.get("format").and_then(Json::as_num), Some(1.0));
        assert_eq!(json.get("objective").and_then(Json::as_str), Some("delay"));
        let traj = json.get("trajectory").and_then(Json::as_arr).unwrap();
        assert_eq!(traj.len(), out.trajectory.len());
        let best = json.get("best").unwrap();
        let sizing = best.get("sizing").unwrap();
        let a = sizing.get("a").and_then(Json::as_num).unwrap();
        assert!((a - 0.7).abs() < 1e-9, "converged a = {a}");
        let restarts = json.get("restarts").and_then(Json::as_arr).unwrap();
        assert_eq!(restarts.len(), out.restarts.len());
    }
}
