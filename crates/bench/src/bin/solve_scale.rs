//! Sparse-solve benchmark: the default engine against the dense
//! reference.
//!
//! Every workload is solved end to end through `vls-engine` (the DC
//! operating point, then a fixed transient window) two ways:
//!
//! * **default** — `SimOptions::default()`: above `sparse_threshold`
//!   the Newton kernel factors the system under its one-time
//!   minimum-degree ordering with frozen-pivot refactorization;
//! * **dense** — `sparse_threshold: usize::MAX`: the same kernel on
//!   the natural-order dense LU with partial pivoting, re-pivoted every
//!   Newton iteration. Its cost grows with the cube of the unknown
//!   count, so on chips it is skipped above the pin size.
//!
//! Both legs must take the same number of accepted steps and agree
//! within [`SOLVE_TOL`]. Two workloads run:
//!
//! * **chip rows** — `chipgen` floorplans sized to a ladder of MNA
//!   unknown counts, over the first half of the stimulus edge. The
//!   legs must agree on every DC unknown and final node voltage. The
//!   default leg must be at least 4x faster end to end at 1 000
//!   unknowns (1.5x at 400 under `--smoke`).
//! * **mesh row** — the paper's Figure 3 multi-voltage SoC (twelve
//!   SS-TVS crossings, 140 unknowns) over a 4 ns window (2 ns under
//!   `--smoke`) that covers several staggered stimulus edges. The legs
//!   must agree at every sample of the first crossing's receiver, and
//!   the default leg must be at least 1.2x faster in both modes. The
//!   mesh is the paper's largest system, so this row also measures the
//!   `sparse_threshold = 64` choice at a size it decides.
//!
//! ```text
//! cargo run --release -p vls-bench --bin solve_scale [-- --smoke]
//! ```
//!
//! A full run writes the `BENCH_solve.json` perf-trajectory artifact
//! once both floors hold. `--smoke` shrinks the chip sizes to
//! [100, 400] and the mesh window to 2 ns, checks the same assertions
//! and the smoke floors, and writes its JSON under the system temporary
//! directory (`$TMPDIR`) so the trajectory only moves on deliberate
//! full runs. Any other argument is rejected.

use vls_bench::artifact::Artifact;
use vls_bench::timing::time_reps;
use vls_bench::{floors, BinArgs};
use vls_cells::MultiVoltageSystem;
use vls_charlib::json::Json;
use vls_charlib::json_obj;
use vls_engine::{run_transient, solve_dc, DcSolution, SimOptions, TransientResult};
use vls_netlist::chipgen::{generate_chip, spec_for_unknowns, unknowns_of};
use vls_netlist::Circuit;

/// Agreement tolerance between the two legs' solutions, V (or A).
const SOLVE_TOL: f64 = 1e-9;
/// Chip transient window: the first half of the 50 ps stimulus edge.
const CHIP_TSTOP: f64 = 2.5e-11;

/// One engine leg on one workload: DC plus the transient window.
struct Leg {
    dc_s: f64,
    tran_s: f64,
    dc: DcSolution,
    tran: TransientResult,
}

impl Leg {
    fn run(circuit: &Circuit, tstop: f64, sim: &SimOptions, reps: usize) -> Self {
        let (dc_t, dc) = time_reps(reps, || solve_dc(circuit, sim).expect("DC"));
        let (tran_t, tran) = time_reps(reps, || {
            run_transient(circuit, tstop, sim).expect("transient")
        });
        Self {
            dc_s: dc_t.best_s,
            tran_s: tran_t.best_s,
            dc,
            tran,
        }
    }

    fn total_s(&self) -> f64 {
        self.dc_s + self.tran_s
    }

    fn newton_iters(&self) -> u64 {
        self.dc.solver_stats().newton_iters + self.tran.solver_stats().newton_iters
    }

    fn s_per_newton(&self) -> f64 {
        self.total_s() / self.newton_iters() as f64
    }

    /// Asserts the dense leg took the same accepted steps as `self`.
    fn assert_same_steps(&self, dense: &Leg, what: &str) {
        assert_eq!(
            self.tran.len(),
            dense.tran.len(),
            "step sequences diverged on {what}"
        );
    }

    fn json(&self) -> Json {
        json_obj!(
            "dc_s": self.dc_s, "tran_s": self.tran_s, "tran_steps": self.tran.len(),
            "newton_iters": self.newton_iters(), "s_per_newton": self.s_per_newton(),
        )
    }
}

fn worst_gap(a: impl IntoIterator<Item = f64>, b: impl IntoIterator<Item = f64>) -> f64 {
    a.into_iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// DC unknowns followed by the final transient node voltages.
fn chip_state(circuit: &Circuit, leg: &Leg) -> Vec<f64> {
    let mut x = leg.dc.unknowns().to_vec();
    x.extend(
        circuit
            .node_ids()
            .skip(1)
            .map(|id| leg.tran.final_voltage(id)),
    );
    x
}

struct ChipRow {
    unknowns: usize,
    instances: usize,
    default: Leg,
    /// `None` above the pin size.
    dense: Option<Leg>,
}

impl ChipRow {
    fn speedup(&self) -> Option<f64> {
        self.dense
            .as_ref()
            .map(|d| d.total_s() / self.default.total_s())
    }

    fn json(&self) -> Json {
        json_obj!(
            "unknowns": self.unknowns, "instances": self.instances,
            "default": self.default.json(), "dense": self.dense.as_ref().map(Leg::json),
            "speedup": self.speedup(),
        )
    }
}

struct MeshRow {
    unknowns: usize,
    crossings: usize,
    tstop: f64,
    default: Leg,
    dense: Leg,
    /// Worst default-vs-dense deviation at the probe, V.
    worst: f64,
}

impl MeshRow {
    fn run(tstop: f64, reps: usize, default_sim: &SimOptions, dense_sim: &SimOptions) -> Self {
        let soc = MultiVoltageSystem::paper_example();
        let mesh = soc.build_full_mesh();
        let unknowns = unknowns_of(&mesh.circuit);
        assert!(
            unknowns > default_sim.sparse_threshold,
            "the mesh stays dense at {unknowns} unknowns"
        );
        let default = Leg::run(&mesh.circuit, tstop, default_sim, reps);
        let dense = Leg::run(&mesh.circuit, tstop, dense_sim, reps);
        default.assert_same_steps(&dense, "the Figure 3 mesh");
        let probe = mesh.crossings[0].rx;
        let worst = worst_gap(
            default.tran.node_series(probe),
            dense.tran.node_series(probe),
        );
        assert!(
            worst <= SOLVE_TOL,
            "mesh legs disagree by {worst:.3e} V at the first receiver"
        );
        let stats = default.tran.solver_stats();
        assert!(
            stats.refactorizations > 0,
            "the mesh never exercised numeric-only refactorization: {}",
            stats.render()
        );
        Self {
            unknowns,
            crossings: mesh.crossings.len(),
            tstop,
            default,
            dense,
            worst,
        }
    }

    fn speedup(&self) -> f64 {
        self.dense.total_s() / self.default.total_s()
    }

    fn json(&self) -> Json {
        json_obj!(
            "unknowns": self.unknowns, "crossings": self.crossings, "tstop_s": self.tstop,
            "default": self.default.json(), "dense": self.dense.json(),
            "worst_dev_v": self.worst, "speedup": self.speedup(),
        )
    }
}

fn main() {
    let smoke =
        BinArgs::parse_accepting(std::env::args().skip(1), &[], &["--smoke"]).switch("--smoke");
    let (targets, pin_target): (&[usize], usize) = if smoke {
        (&[100, 400], 400)
    } else {
        (&[100, 1000, 4000, 10_000], 1000)
    };
    let reps = if smoke { 2 } else { 3 };
    let mesh_tstop = if smoke { 2e-9 } else { 4e-9 };
    let default_sim = SimOptions::default();
    let dense_sim = SimOptions {
        sparse_threshold: usize::MAX,
        ..SimOptions::default()
    };

    println!(
        "chip-scale solve, DC + {:.0} ps transient ({} mode)",
        CHIP_TSTOP * 1e12,
        if smoke { "smoke" } else { "full" }
    );
    let mut rows: Vec<ChipRow> = Vec::new();
    for &target in targets {
        let spec = spec_for_unknowns(target, 3, 0x5510_c0de);
        let flat = generate_chip(&spec).flatten();
        let n = unknowns_of(&flat);
        assert!(n >= target, "sizing fell short: {n} < {target}");
        assert!(n > default_sim.sparse_threshold, "{n} unknowns stay dense");

        let default = Leg::run(&flat, CHIP_TSTOP, &default_sim, reps);
        let rail = flat.find_node("vdd_i0").expect("island rail").index() - 1;
        let v_rail = default.dc.unknowns()[rail];
        assert!((v_rail - 0.8).abs() < 1e-6, "rail solved to {v_rail} V");
        let dense = (target <= pin_target).then(|| {
            let dense = Leg::run(&flat, CHIP_TSTOP, &dense_sim, 1);
            default.assert_same_steps(&dense, &format!("{n} unknowns"));
            let worst = worst_gap(chip_state(&flat, &default), chip_state(&flat, &dense));
            assert!(
                worst <= SOLVE_TOL,
                "default and dense legs disagree by {worst:.3e} at {n} unknowns"
            );
            dense
        });

        let row = ChipRow {
            unknowns: n,
            instances: spec.instances,
            default,
            dense,
        };
        let d = &row.default;
        println!(
            "  {n:>6} unknowns ({} units): default dc {:.3} ms + tran({} steps) {:.3} ms, \
             {:.3} ms/newton{}",
            row.instances,
            d.dc_s * 1e3,
            d.tran.len(),
            d.tran_s * 1e3,
            d.s_per_newton() * 1e3,
            match (&row.dense, row.speedup()) {
                (Some(dense), Some(s)) => format!(
                    "; dense dc {:.3} ms + tran {:.3} ms, {:.3} ms/newton ({s:.1}x)",
                    dense.dc_s * 1e3,
                    dense.tran_s * 1e3,
                    dense.s_per_newton() * 1e3
                ),
                _ => "; dense skipped".to_string(),
            }
        );
        rows.push(row);
    }

    let mesh = MeshRow::run(mesh_tstop, reps, &default_sim, &dense_sim);
    let mesh_speedup = mesh.speedup();
    println!(
        "  Figure 3 mesh, {} unknowns ({} crossings, {:.0e} s window): \
         default {:.3} ms ({} steps), dense {:.3} ms ({mesh_speedup:.2}x), \
         worst deviation {:.2e} V",
        mesh.unknowns,
        mesh.crossings,
        mesh.tstop,
        mesh.default.total_s() * 1e3,
        mesh.default.tran.len(),
        mesh.dense.total_s() * 1e3,
        mesh.worst
    );
    println!(
        "  mesh default stats: {}",
        mesh.default.tran.solver_stats().render()
    );

    // Floors: default-vs-dense end-to-end speedup at the chip pin size
    // and on the mesh.
    let pin = rows
        .iter()
        .find(|r| r.unknowns >= pin_target && r.dense.is_some())
        .expect("pin size ran the dense leg");
    let pin_speedup = pin.speedup().expect("pin ran the dense leg");
    Artifact::new("solve", smoke)
        .floor(
            "pin_speedup",
            pin_speedup,
            floors::SOLVE_SPEEDUP[smoke as usize],
        )
        .floor("mesh_speedup", mesh_speedup, floors::SOLVE_MESH_SPEEDUP)
        .field("tstop_s", CHIP_TSTOP)
        .field("rows", rows.iter().map(ChipRow::json).collect::<Vec<_>>())
        .field("mesh", mesh.json())
        .write();
}
