//! The three workloads and what one pass of each returns.

use std::collections::BTreeMap;
use std::ops::Range;

use vls_engine::SolverStats;
use vls_netlist::Circuit;
use vls_runner::{RunReport, RunnerOptions};

use crate::check::Obs;
use crate::trace::Tracer;

pub mod chip_tran;
pub mod mc_tables;
pub mod vdd_surface;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Monte Carlo of Tables 3 and 4.
    McTables,
    /// The Figure 8/9 delay surface.
    VddSurface,
    /// Generated floorplans, DC plus transient.
    ChipTran,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::McTables, Workload::VddSurface, Workload::ChipTran];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McTables => "mc_tables",
            Workload::VddSurface => "vdd_surface",
            Workload::ChipTran => "chip_tran",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The recorded reference outputs of this workload.
    pub fn reference_text(self) -> &'static str {
        match self {
            Workload::McTables => include_str!("../../reference/mc_tables.txt"),
            Workload::VddSurface => include_str!("../../reference/vdd_surface.txt"),
            Workload::ChipTran => include_str!("../../reference/chip_tran.txt"),
        }
    }
}

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// `mc_tables`: trials per ensemble (four ensembles).
    pub mc_trials: usize,
    /// `vdd_surface`: grid points per axis.
    pub surface_points: usize,
    /// `chip_tran`: target MNA unknowns per floorplan.
    pub chip_unknowns: usize,
    /// `chip_tran`: floorplans per pass.
    pub chip_floorplans: usize,
    /// `chip_tran`: transient window, s.
    pub chip_tstop: f64,
}

impl Size {
    /// The sizes the benchmark runs.
    pub const FULL: Size = Size {
        mc_trials: 8,
        surface_points: 7,
        chip_unknowns: 200,
        chip_floorplans: 2,
        chip_tstop: 1e-10,
    };

    /// Sizes small enough for the benchmark's own tests.
    pub const TINY: Size = Size {
        mc_trials: 2,
        surface_points: 2,
        chip_unknowns: 70,
        chip_floorplans: 1,
        chip_tstop: 2e-11,
    };
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutput {
    /// Jobs attempted.
    pub jobs: usize,
    /// Failed jobs, by index, with the first reason found.
    pub failed: BTreeMap<usize, String>,
    /// The checked results.
    pub obs: Vec<Obs>,
    /// Solver counters of every engine call.
    pub solver: SolverStats,
    /// The report of every runner call.
    pub runs: Vec<RunReport>,
    /// Accepted transient points, where the workload can see them.
    pub tran_points: u64,
}

impl PassOutput {
    /// An empty output for `jobs` jobs.
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs,
            ..Self::default()
        }
    }

    /// Marks `jobs` failed, keeping an earlier reason.
    pub fn fail(&mut self, jobs: Range<usize>, reason: String) {
        for j in jobs {
            self.failed.entry(j).or_insert_with(|| reason.clone());
        }
    }
}

/// A workload after set-up.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `mc_tables`.
    Mc(mc_tables::Inputs),
    /// `vdd_surface`.
    Surface(vdd_surface::Inputs),
    /// `chip_tran`.
    Chip(chip_tran::Inputs),
}

impl Inputs {
    /// Builds the workload's inputs from its seed and warms up.
    pub fn setup(
        workload: Workload,
        seed: u64,
        size: &Size,
        runner: &RunnerOptions,
        tracer: Option<&Tracer>,
        parent: Option<u64>,
    ) -> Self {
        match workload {
            Workload::McTables => Inputs::Mc(mc_tables::setup(seed, size.mc_trials, runner)),
            Workload::VddSurface => {
                Inputs::Surface(vdd_surface::setup(seed, size.surface_points, runner))
            }
            Workload::ChipTran => Inputs::Chip(chip_tran::setup(
                seed,
                size.chip_unknowns,
                size.chip_floorplans,
                size.chip_tstop,
                tracer,
                parent,
            )),
        }
    }

    /// One full pass over the workload's jobs.
    pub fn pass(&self, tracer: Option<&Tracer>, parent: Option<u64>) -> PassOutput {
        match self {
            Inputs::Mc(w) => w.pass(tracer, parent),
            Inputs::Surface(w) => w.pass(tracer, parent),
            Inputs::Chip(w) => w.pass(tracer, parent),
        }
    }

    /// Checks that hold for every seed.
    pub fn invariants(&self, out: &PassOutput) -> Vec<(Range<usize>, String)> {
        match self {
            Inputs::Mc(w) => w.invariants(out),
            Inputs::Surface(w) => w.invariants(out),
            Inputs::Chip(w) => w.invariants(out),
        }
    }

    /// Draws one pass's process samples again under `tracer`, one
    /// `variation.sample` span each, and returns the root span's id;
    /// `None` for the nominal workloads.
    pub fn resample(&self, tracer: &Tracer) -> Option<u64> {
        match self {
            Inputs::Mc(w) => Some(w.resample(tracer)),
            Inputs::Surface(_) | Inputs::Chip(_) => None,
        }
    }

    /// The largest MNA system the workload solves.
    pub fn unknowns(&self) -> usize {
        match self {
            Inputs::Mc(w) => w.unknowns(),
            Inputs::Surface(w) => w.unknowns(),
            Inputs::Chip(w) => w.unknowns(),
        }
    }

    /// Input sizes, a JSON object.
    pub fn sizes(&self) -> String {
        match self {
            Inputs::Mc(w) => w.sizes(),
            Inputs::Surface(w) => w.sizes(),
            Inputs::Chip(w) => w.sizes(),
        }
    }

    /// The circuit whose DC solution the device calibration legs use.
    pub fn calibration_circuit(&self) -> &Circuit {
        match self {
            Inputs::Mc(w) => w.calibration_circuit(),
            Inputs::Surface(w) => w.calibration_circuit(),
            Inputs::Chip(w) => w.calibration_circuit(),
        }
    }
}
