//! `vdd_surface`: the Figure 8/9 SS-TVS delay surface.
//!
//! A `points` × `points` grid over VDDI, VDDO inside the paper's
//! [0.8, 1.4] V range with nominal devices, through `delay_surface`
//! (the function `figure8_9` calls) on the runner. The seed shifts the
//! grid inward by up to 6 mV at both ends, so every seed solves its own
//! bias points while the pitch stays within 2 mV of 0.1 V. The traced
//! pass runs the same rows as `delay_surface` does, one
//! `characterize_with_stats` per point, so each characterization gets
//! its own span and the runner's report is kept.

use vls_cells::{Harness, ShifterKind, VoltagePair};
use vls_core::experiments::figures::delay_surface;
use vls_core::{characterize_with_stats, CharacterizeOptions};
use vls_netlist::{chipgen::unknowns_of, Circuit};
use vls_num::rng::{Rng, Xoshiro256pp};
use vls_runner::RunnerOptions;

use super::PassOutput;
use crate::check::{Obs, Tol};
use crate::trace::Tracer;

/// The 1e-9 relative tolerance of the pinned goldens.
const REL_TOL: f64 = 1e-9;

/// Largest inward shift of the grid ends, V.
const MAX_SHIFT: f64 = 0.006;

/// Set-up state of the workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    lo: f64,
    hi: f64,
    step: f64,
    axis: Vec<f64>,
    options: CharacterizeOptions,
    runner: RunnerOptions,
    /// The nominal fixture at the grid centre.
    center: Circuit,
}

/// Places the grid from the seed and warms up with one characterization
/// at its centre.
pub fn setup(seed: u64, points: usize, runner: &RunnerOptions) -> Inputs {
    assert!(points >= 2, "a surface needs at least two points per axis");
    let shift = Xoshiro256pp::seed_from_u64(seed).gen_range(0.0, MAX_SHIFT);
    let (lo, hi) = (0.8 + shift, 1.4 - shift);
    let step = (hi - lo) / (points - 1) as f64;
    // The axis exactly as `delay_surface` builds it.
    let n = ((hi - lo) / step).round() as usize + 1;
    let axis: Vec<f64> = (0..n).map(|k| lo + step * k as f64).collect();
    let options = CharacterizeOptions::default();
    let mid = axis[n / 2];
    let domains = VoltagePair::new(mid, mid);
    let (wave, _, _, _) = Harness::standard_stimulus(domains);
    let center = Harness::build(&ShifterKind::sstvs(), domains, wave, options.load_farads).circuit;
    let warm = characterize_with_stats(&ShifterKind::sstvs(), domains, &options, None)
        .expect("nominal characterization");
    assert!(warm.0.functional, "SS-TVS is not functional at {mid} V");
    Inputs {
        lo,
        hi,
        step,
        axis,
        options,
        runner: runner.clone(),
        center,
    }
}

impl Inputs {
    /// Jobs in one pass: every grid point.
    pub fn jobs(&self) -> usize {
        self.axis.len() * self.axis.len()
    }

    /// Unknowns of the fixture (the same at every bias point).
    pub fn unknowns(&self) -> usize {
        unknowns_of(&self.center)
    }

    /// Input sizes for the provenance record.
    pub fn sizes(&self) -> String {
        format!(
            "{{\"points\":{},\"lo_v\":{:?},\"hi_v\":{:?},\"pitch_v\":{:?}}}",
            self.jobs(),
            self.lo,
            self.hi,
            self.step
        )
    }

    /// The fixture whose DC solution the device calibration legs use.
    pub fn calibration_circuit(&self) -> &Circuit {
        &self.center
    }

    /// One full pass over the grid.
    pub fn pass(&self, tracer: Option<&Tracer>, parent: Option<u64>) -> PassOutput {
        let n = self.axis.len();
        let mut out = PassOutput::new(self.jobs());
        let kind = ShifterKind::sstvs();
        // (functional, rise ps, fall ps) per point, row-major.
        let mut points: Vec<(bool, f64, f64)> = Vec::with_capacity(n * n);
        match tracer {
            None => {
                let s = delay_surface(
                    &kind,
                    self.lo,
                    self.hi,
                    self.step,
                    &self.options,
                    &self.runner,
                );
                for i in 0..n {
                    for j in 0..n {
                        points.push((s.functional[i][j], s.rise_ps[i][j], s.fall_ps[i][j]));
                    }
                }
            }
            Some(t) => {
                let (rows, mut report) =
                    t.span("runner.run_indexed_reported", parent, None, |id| {
                        vls_runner::run_indexed_reported(n, &self.runner, |i| {
                            self.axis
                                .iter()
                                .enumerate()
                                .map(|(j, &vo)| {
                                    let domains = VoltagePair::new(self.axis[i], vo);
                                    let job = Some((i * n + j) as u64);
                                    t.span("core.characterize", Some(id), job, |_| {
                                        characterize_with_stats(&kind, domains, &self.options, None)
                                    })
                                })
                                .collect::<Vec<_>>()
                        })
                    });
                for (k, r) in rows.into_iter().flatten().enumerate() {
                    match r {
                        Ok((m, solver)) => {
                            report.absorb_solver(&solver);
                            points.push(if m.functional {
                                (true, m.delay_rise.as_picos(), m.delay_fall.as_picos())
                            } else {
                                (false, f64::NAN, f64::NAN)
                            });
                        }
                        Err(err) => {
                            out.fail(k..k + 1, format!("point {k}: {err}"));
                            points.push((false, f64::NAN, f64::NAN));
                        }
                    }
                }
                out.solver.merge(&report.solver);
                out.runs.push(report);
            }
        }
        for (k, &(functional, rise, fall)) in points.iter().enumerate() {
            if !functional {
                out.fail(k..k + 1, format!("point {k}: not functional"));
            }
            out.obs.push(Obs {
                key: format!("p{}.{}", k / n, k % n),
                jobs: k..k + 1,
                values: vec![
                    (Tol::Exact, f64::from(u8::from(functional))),
                    (Tol::Rel(REL_TOL), rise),
                    (Tol::Rel(REL_TOL), fall),
                ],
            });
        }
        out
    }

    /// Every point translates, with positive, finite delays.
    pub fn invariants(&self, out: &PassOutput) -> Vec<(std::ops::Range<usize>, String)> {
        out.obs
            .iter()
            .filter(|o| !o.values[1..].iter().all(|&(_, d)| d.is_finite() && d > 0.0))
            .map(|o| {
                (
                    o.jobs.clone(),
                    format!("{}: delays not positive and finite", o.key),
                )
            })
            .collect()
    }
}
