//! `chip_tran`: DC and a fixed-window transient of generated floorplans.
//!
//! `floorplans` chips from `chipgen::spec_for_unknowns(unknowns, 3, k)`
//! with per-floorplan seeds derived from the workload seed, flattened in
//! set-up, then solved one at a time with `solve_dc` and `run_transient`
//! at default options. No runner: this is the single-threaded workload
//! and the only one above the sparse threshold.

use vls_engine::{run_transient, solve_dc, SimOptions};
use vls_netlist::chipgen::{generate_chip, island_rail, spec_for_unknowns, unknowns_of, ChipSpec};
use vls_netlist::{Circuit, NodeId};
use vls_runner::derive_seed;

use super::PassOutput;
use crate::check::{Obs, Tol};
use crate::trace::{traced, Tracer};

/// Voltage islands per floorplan.
const ISLANDS: usize = 3;

/// Final node voltages must agree with the reference this closely, V:
/// the structured-vs-natural agreement the solve-scale goldens assert.
const ABS_TOL: f64 = 1e-9;

/// Slack around the rails a settled node voltage may take, V.
const RAIL_SLACK: f64 = 0.1;

/// One generated, flattened floorplan.
#[derive(Debug, Clone)]
struct Floorplan {
    spec: ChipSpec,
    flat: Circuit,
}

/// Set-up state of the workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    floorplans: Vec<Floorplan>,
    tstop: f64,
    options: SimOptions,
}

/// Sizes, generates and flattens every floorplan, then warms up with the
/// DC operating point of the first.
pub fn setup(
    seed: u64,
    unknowns: usize,
    floorplans: usize,
    tstop: f64,
    tracer: Option<&Tracer>,
    parent: Option<u64>,
) -> Inputs {
    let options = SimOptions::default();
    let floorplans: Vec<Floorplan> = (0..floorplans)
        .map(|k| {
            let chip_seed = derive_seed(seed, k as u64);
            let spec = traced(tracer, "netlist.spec_for_unknowns", parent, None, |_| {
                spec_for_unknowns(unknowns, ISLANDS, chip_seed)
            });
            let flat = traced(tracer, "netlist.build", parent, None, |_| {
                generate_chip(&spec).flatten()
            });
            Floorplan { spec, flat }
        })
        .collect();
    let warm = solve_dc(&floorplans[0].flat, &options).expect("floorplan DC operating point");
    std::hint::black_box(warm);
    Inputs {
        floorplans,
        tstop,
        options,
    }
}

impl Inputs {
    /// Jobs in one pass: every floorplan.
    pub fn jobs(&self) -> usize {
        self.floorplans.len()
    }

    /// The largest MNA system among the floorplans.
    pub fn unknowns(&self) -> usize {
        self.floorplans
            .iter()
            .map(|f| unknowns_of(&f.flat))
            .max()
            .unwrap_or(0)
    }

    /// Input sizes for the provenance record.
    pub fn sizes(&self) -> String {
        let list = |f: fn(&Floorplan) -> String| {
            self.floorplans.iter().map(f).collect::<Vec<_>>().join(",")
        };
        format!(
            "{{\"floorplans\":{},\"unknowns\":[{}],\"instances\":[{}],\"chip_seeds\":[{}],\"window_s\":{:?}}}",
            self.floorplans.len(),
            list(|f| unknowns_of(&f.flat).to_string()),
            list(|f| f.spec.instances.to_string()),
            list(|f| f.spec.seed.to_string()),
            self.tstop
        )
    }

    /// The floorplan whose DC solution the device calibration legs use.
    pub fn calibration_circuit(&self) -> &Circuit {
        &self.floorplans[0].flat
    }

    /// One full pass: DC then the transient of every floorplan in turn.
    pub fn pass(&self, tracer: Option<&Tracer>, parent: Option<u64>) -> PassOutput {
        let mut out = PassOutput::new(self.jobs());
        for (k, f) in self.floorplans.iter().enumerate() {
            let job = Some(k as u64);
            let result = traced(tracer, "chip.floorplan", parent, job, |id| {
                let dc = traced(tracer, "engine.dc", Some(id), job, |_| {
                    solve_dc(&f.flat, &self.options)
                })?;
                let tran = traced(tracer, "engine.tran", Some(id), job, |_| {
                    run_transient(&f.flat, self.tstop, &self.options)
                })?;
                Ok::<_, vls_engine::EngineError>((dc, tran))
            });
            match result {
                Ok((dc, tran)) => {
                    out.solver.merge(&dc.solver_stats());
                    out.solver.merge(&tran.solver_stats());
                    out.tran_points += tran.len() as u64;
                    let finals: Vec<f64> = (1..f.flat.node_count())
                        .map(|i| tran.final_voltage(NodeId::from_index(i)))
                        .collect();
                    out.obs.push(Obs::new(
                        format!("chip{k}"),
                        k..k + 1,
                        Tol::Abs(ABS_TOL),
                        &finals,
                    ));
                }
                Err(err) => out.fail(k..k + 1, format!("floorplan {k}: {err}")),
            }
        }
        out
    }

    /// Every settled node voltage is finite and within the rails.
    pub fn invariants(&self, out: &PassOutput) -> Vec<(std::ops::Range<usize>, String)> {
        let top = (0..ISLANDS).map(island_rail).fold(0.0, f64::max) + RAIL_SLACK;
        out.obs
            .iter()
            .filter(|o| {
                !o.values
                    .iter()
                    .all(|&(_, v)| v.is_finite() && (-RAIL_SLACK..=top).contains(&v))
            })
            .map(|o| {
                (
                    o.jobs.clone(),
                    format!("{}: a node settled outside the rails", o.key),
                )
            })
            .collect()
    }
}
