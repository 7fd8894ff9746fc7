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
//!   default leg must be at least [`FULL_FLOOR`]x faster end to end at
//!   1 000 unknowns ([`SMOKE_FLOOR`]x at 400 under `--smoke`).
//! * **mesh row** — the paper's Figure 3 multi-voltage SoC (twelve
//!   SS-TVS crossings, 140 unknowns) over a 4 ns window (2 ns under
//!   `--smoke`) that covers several staggered stimulus edges. The legs
//!   must agree at every sample of the first crossing's receiver, and
//!   the default leg must be at least [`MESH_FLOOR`]x faster in both
//!   modes. The mesh is the paper's largest system, so this row also
//!   measures the `sparse_threshold = 64` choice at a size it decides.
//!
//! ```text
//! cargo run --release -p vls-bench --bin solve_scale [-- --smoke]
//! ```
//!
//! A full run writes the `BENCH_solve.json` perf-trajectory artifact.
//! `--smoke` shrinks the chip sizes to [100, 400] and the mesh window
//! to 2 ns, checks the same assertions and the smoke floors, and
//! writes its JSON under the system temporary directory (`$TMPDIR`) so
//! the trajectory only moves on deliberate full runs.

use std::fmt::Write as _;
use std::time::Instant;

use vls_cells::MultiVoltageSystem;
use vls_engine::{run_transient, solve_dc, DcSolution, SimOptions, TransientResult};
use vls_netlist::chipgen::{generate_chip, spec_for_unknowns, unknowns_of};
use vls_netlist::Circuit;

/// Minimum default-vs-dense end-to-end speedup at the chip pin size.
const FULL_FLOOR: f64 = 4.0;
const SMOKE_FLOOR: f64 = 1.5;
/// Minimum default-vs-dense end-to-end speedup on the Figure 3 mesh,
/// in both modes.
const MESH_FLOOR: f64 = 1.2;
/// Agreement tolerance between the two legs' solutions, V (or A).
const SOLVE_TOL: f64 = 1e-9;
/// Chip transient window: the first half of the 50 ps stimulus edge.
const CHIP_TSTOP: f64 = 2.5e-11;

/// Best-of-`reps` wall time for `f`, with the last result.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out.expect("reps >= 1"))
}

/// One engine leg on one workload: DC plus the transient window.
struct Leg {
    dc_s: f64,
    tran_s: f64,
    dc: DcSolution,
    tran: TransientResult,
}

impl Leg {
    fn run(circuit: &Circuit, tstop: f64, sim: &SimOptions, reps: usize) -> Self {
        let (dc_s, dc) = time_best(reps, || solve_dc(circuit, sim).expect("DC"));
        let (tran_s, tran) = time_best(reps, || {
            run_transient(circuit, tstop, sim).expect("transient")
        });
        Self {
            dc_s,
            tran_s,
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

    fn json(&self) -> String {
        format!(
            "{{\"dc_s\": {:.6}, \"tran_s\": {:.6}, \"tran_steps\": {}, \
             \"newton_iters\": {}, \"s_per_newton\": {:.9}}}",
            self.dc_s,
            self.tran_s,
            self.tran.len(),
            self.newton_iters(),
            self.s_per_newton()
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
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (targets, pin_target, floor): (&[usize], usize, f64) = if smoke {
        (&[100, 400], 400, SMOKE_FLOOR)
    } else {
        (&[100, 1000, 4000, 10_000], 1000, FULL_FLOOR)
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
    assert!(
        pin_speedup >= floor,
        "default speedup {pin_speedup:.2}x at {} unknowns is under the {floor}x floor",
        pin.unknowns
    );
    assert!(
        mesh_speedup >= MESH_FLOOR,
        "mesh speedup {mesh_speedup:.2}x is under the {MESH_FLOOR}x floor"
    );
    println!(
        "  floors held: {pin_speedup:.2}x >= {floor}x at {} unknowns, \
         mesh {mesh_speedup:.2}x >= {MESH_FLOOR}x",
        pin.unknowns
    );

    // Artifact.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"tstop_s\": {CHIP_TSTOP:e},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"unknowns\": {}, \"instances\": {}, \"default\": {}",
            r.unknowns,
            r.instances,
            r.default.json()
        );
        if let (Some(dense), Some(s)) = (&r.dense, r.speedup()) {
            let _ = write!(json, ", \"dense\": {}, \"speedup\": {s:.3}", dense.json());
        }
        let _ = writeln!(json, "}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"pin\": {{\"unknowns\": {}, \"speedup\": {pin_speedup:.3}, \"floor\": {floor}}},",
        pin.unknowns
    );
    let _ = writeln!(
        json,
        "  \"mesh\": {{\"unknowns\": {}, \"crossings\": {}, \"tstop_s\": {:e}, \
         \"default\": {}, \"dense\": {}, \"worst_dev_v\": {:.3e}, \
         \"speedup\": {mesh_speedup:.3}, \"floor\": {MESH_FLOOR}}}",
        mesh.unknowns,
        mesh.crossings,
        mesh.tstop,
        mesh.default.json(),
        mesh.dense.json(),
        mesh.worst
    );
    json.push_str("}\n");
    let path = vls_bench::artifact_path("BENCH_solve.json", smoke);
    std::fs::write(&path, &json).expect("could not write the solve artifact");
    println!("wrote {}", path.display());
}
