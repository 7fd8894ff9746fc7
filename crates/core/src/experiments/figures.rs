//! Figures 5, 8 and 9.

use vls_cells::{Harness, ShifterKind, VoltagePair};
use vls_engine::run_transient;
use vls_runner::RunnerOptions;
use vls_waveform::{ascii_chart, csv_from_series, Waveform};

use crate::characterize::characterize_delays;
use crate::{CharacterizeOptions, CoreError};

/// Figure 5: the SS-TVS timing diagram — input, output and the three
/// internal nodes the paper plots (`node1`, `node2`, `ctrl`).
#[derive(Debug, Clone)]
pub struct TimingDiagram {
    /// Sample times, s.
    pub times: Vec<f64>,
    /// Named waveforms aligned with [`Self::times`].
    pub series: Vec<(String, Vec<f64>)>,
    /// The domain pair simulated.
    pub domains: VoltagePair,
}

impl TimingDiagram {
    /// CSV rendition (time + one column per signal).
    pub fn to_csv(&self) -> String {
        let refs: Vec<(&str, &[f64])> = self
            .series
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_slice()))
            .collect();
        csv_from_series(&self.times, &refs)
    }

    /// ASCII-chart rendition for terminal inspection.
    pub fn to_ascii(&self, width: usize, lane_height: usize) -> String {
        let waves: Vec<(&str, Waveform)> = self
            .series
            .iter()
            .map(|(n, v)| {
                (
                    n.as_str(),
                    Waveform::new(self.times.clone(), v.clone()).expect("aligned"),
                )
            })
            .collect();
        let refs: Vec<(&str, &Waveform)> = waves.iter().map(|(n, w)| (*n, w)).collect();
        ascii_chart(&refs, width, lane_height)
    }
}

/// Regenerates Figure 5 at the given domain pair (the paper's diagram
/// applies to both scenarios; run it at each).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn figure5(
    domains: VoltagePair,
    options: &CharacterizeOptions,
) -> Result<TimingDiagram, CoreError> {
    let (wave, _, _, t_end) = Harness::standard_stimulus(domains);
    let harness = Harness::build(&ShifterKind::sstvs(), domains, wave, options.load_farads);
    let res = run_transient(&harness.circuit, t_end, &options.sim)?;
    let nodes = harness
        .sstvs_nodes
        .expect("SS-TVS harness exposes internals");
    let times = res.times().to_vec();
    let series = vec![
        ("in".to_string(), res.node_series(harness.input)),
        ("out".to_string(), res.node_series(harness.output)),
        ("node1".to_string(), res.node_series(nodes.node1)),
        ("node2".to_string(), res.node_series(nodes.node2)),
        ("ctrl".to_string(), res.node_series(nodes.ctrl)),
    ];
    Ok(TimingDiagram {
        times,
        series,
        domains,
    })
}

/// A delay surface over the VDDI × VDDO plane (Figures 8 and 9 share
/// one sweep: Figure 8 plots [`Self::rise_ps`], Figure 9
/// [`Self::fall_ps`]).
#[derive(Debug, Clone)]
pub struct DelaySurface {
    /// VDDI axis values, V.
    pub vddi: Vec<f64>,
    /// VDDO axis values, V.
    pub vddo: Vec<f64>,
    /// Rising delay at `[vddi_idx][vddo_idx]`, ps; NaN where the cell
    /// failed to translate.
    pub rise_ps: Vec<Vec<f64>>,
    /// Falling delay, ps; NaN where the cell failed.
    pub fall_ps: Vec<Vec<f64>>,
    /// Functionality verdict per grid point.
    pub functional: Vec<Vec<bool>>,
}

impl DelaySurface {
    /// Fraction of grid points that translated correctly.
    pub fn yield_fraction(&self) -> f64 {
        let total: usize = self.functional.iter().map(|r| r.len()).sum();
        let pass: usize = self
            .functional
            .iter()
            .map(|r| r.iter().filter(|&&f| f).count())
            .sum();
        pass as f64 / total as f64
    }

    /// CSV rendition: `vddi,vddo,rise_ps,fall_ps,functional` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("vddi,vddo,rise_ps,fall_ps,functional\n");
        for (i, &vi) in self.vddi.iter().enumerate() {
            for (j, &vo) in self.vddo.iter().enumerate() {
                out.push_str(&format!(
                    "{vi},{vo},{},{},{}\n",
                    self.rise_ps[i][j], self.fall_ps[i][j], self.functional[i][j]
                ));
            }
        }
        out
    }

    /// The largest relative jump between horizontally or vertically
    /// adjacent functional grid points — the paper's "delays change
    /// smoothly" claim, quantified.
    pub fn max_relative_step(&self, use_rise: bool) -> f64 {
        let data = if use_rise {
            &self.rise_ps
        } else {
            &self.fall_ps
        };
        let mut worst = 0.0f64;
        for i in 0..data.len() {
            for j in 0..data[i].len() {
                if !self.functional[i][j] {
                    continue;
                }
                for (ni, nj) in [(i + 1, j), (i, j + 1)] {
                    if ni < data.len() && nj < data[ni].len() && self.functional[ni][nj] {
                        let a = data[i][j];
                        let b = data[ni][nj];
                        worst = worst.max((a - b).abs() / a.abs().max(b.abs()));
                    }
                }
            }
        }
        worst
    }
}

/// Sweeps the SS-TVS delay over `VDDI, VDDO ∈ [v_min, v_max]` in steps
/// of `step` volts (the paper: 0.8–1.4 V; 5 mV steps in the text,
/// coarser grids are faithful subsamples). Non-translating points are
/// recorded as NaN/non-functional, not errors. VDDI rows are sharded
/// across workers per `runner`; the surface is identical for every
/// worker count.
///
/// Figures 8/9 plot delay only, so each point runs only the stimulus
/// transient of the protocol, not its leakage holds: a point is
/// functional when the stimulus run translates (both output edges
/// found, both rails reached). Its mask, rise and fall equal those of
/// the full [`crate::characterize`] bit for bit wherever that succeeds
/// (`tests/experiments_smoke.rs` checks a grid at 27 and 90 °C; the
/// 13×13 paper grid at 27, 60 and 90 °C differs at 0 of 507 points).
/// A point whose leakage window would not settle still reads as
/// functional here if its stimulus run translates: the settle check
/// gates leakage numbers, and every flow that reports one (Tables 1–4,
/// Monte Carlo, charlib, serve) runs the full protocol.
///
/// # Panics
///
/// Panics if the range or step is degenerate.
pub fn delay_surface(
    kind: &ShifterKind,
    v_min: f64,
    v_max: f64,
    step: f64,
    options: &CharacterizeOptions,
    runner: &RunnerOptions,
) -> DelaySurface {
    assert!(v_max > v_min && step > 0.0, "bad sweep range");
    let n = ((v_max - v_min) / step).round() as usize + 1;
    let axis: Vec<f64> = (0..n).map(|k| v_min + step * k as f64).collect();

    let rows = vls_runner::run_indexed(n, runner, |i| {
        let vi = axis[i];
        let mut rise = Vec::with_capacity(n);
        let mut fall = Vec::with_capacity(n);
        let mut func = Vec::with_capacity(n);
        for &vo in &axis {
            match characterize_delays(kind, VoltagePair::new(vi, vo), options) {
                Ok(m) if m.functional => {
                    rise.push(m.delay_rise.as_picos());
                    fall.push(m.delay_fall.as_picos());
                    func.push(true);
                }
                _ => {
                    rise.push(f64::NAN);
                    fall.push(f64::NAN);
                    func.push(false);
                }
            }
        }
        (rise, fall, func)
    });

    let mut rise_ps = Vec::with_capacity(n);
    let mut fall_ps = Vec::with_capacity(n);
    let mut functional = Vec::with_capacity(n);
    for (r, f, fv) in rows {
        rise_ps.push(r);
        fall_ps.push(f);
        functional.push(fv);
    }
    DelaySurface {
        vddi: axis.clone(),
        vddo: axis,
        rise_ps,
        fall_ps,
        functional,
    }
}

/// Figure 8/9 with the paper's axis range. `step` of 0.005 V matches
/// the text exactly; the regeneration binary defaults to 0.025 V.
pub fn figure8_9(step: f64, options: &CharacterizeOptions, runner: &RunnerOptions) -> DelaySurface {
    delay_surface(&ShifterKind::sstvs(), 0.8, 1.4, step, options, runner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_produces_all_five_traces() {
        let d = figure5(VoltagePair::low_to_high(), &CharacterizeOptions::default()).unwrap();
        assert_eq!(d.series.len(), 5);
        let names: Vec<&str> = d.series.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["in", "out", "node1", "node2", "ctrl"]);
        for (_, v) in &d.series {
            assert_eq!(v.len(), d.times.len());
        }
        let csv = d.to_csv();
        assert!(csv.starts_with("time,in,out,node1,node2,ctrl"));
        let chart = d.to_ascii(60, 4);
        assert!(chart.contains("ctrl"));
    }

    #[test]
    fn small_surface_is_functional_and_smooth() {
        // A 3×3 corner of the paper's range.
        let s = delay_surface(
            &ShifterKind::sstvs(),
            0.9,
            1.3,
            0.2,
            &CharacterizeOptions::default(),
            &RunnerOptions::default(),
        );
        assert_eq!(s.vddi.len(), 3);
        assert!(s.yield_fraction() > 0.99, "yield {}", s.yield_fraction());
        // All delays positive.
        for row in &s.rise_ps {
            for &d in row {
                assert!(d > 0.0, "non-positive delay {d}");
            }
        }
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 1 + 9);
        assert!(s.max_relative_step(true) <= 1.0);
    }
}
