//! Chip-scale sparse-solve benchmark.
//!
//! Generates `chipgen` floorplans sized to a ladder of MNA unknown
//! counts and solves each end to end through `vls-engine`: the DC
//! operating point, then a fixed transient window over the first half
//! of the stimulus edge. Two legs run on every floorplan up to the pin
//! size:
//!
//! * **default** — `SimOptions::default()`: the symbolic kernel with
//!   the one-time minimum-degree ordering and frozen-pivot
//!   refactorization;
//! * **natural** — `KernelMode::Legacy` with `sparse_threshold: 0`:
//!   the natural-order sparse LU, re-pivoted every Newton iteration.
//!   Its cost grows with the fill natural order suffers on the
//!   rail/stimulus hub rows, so it is skipped above the pin size.
//!
//! Both legs must take the same number of accepted steps and land
//! within [`SOLVE_TOL`] of each other on every unknown of the DC point
//! and the final transient point. The floor pins the default leg at
//! least [`FULL_FLOOR`]x faster end to end at 1 000 unknowns
//! ([`SMOKE_FLOOR`]x at 400 under `--smoke`).
//!
//! ```text
//! cargo run --release -p vls-bench --bin solve_scale [-- --smoke]
//! ```
//!
//! A full run writes the `BENCH_solve.json` perf-trajectory artifact.
//! `--smoke` shrinks the sizes to [100, 400], checks the same
//! assertions and the smoke floor, and writes its JSON under the
//! system temporary directory (`$TMPDIR`) so the trajectory only
//! moves on deliberate full runs.

use std::fmt::Write as _;
use std::time::Instant;

use vls_engine::{run_transient, solve_dc, KernelMode, SimOptions};
use vls_netlist::chipgen::{generate_chip, spec_for_unknowns, unknowns_of};
use vls_netlist::Circuit;

/// Minimum default-vs-natural end-to-end speedup at the pin size.
const FULL_FLOOR: f64 = 4.0;
const SMOKE_FLOOR: f64 = 1.5;
/// Agreement tolerance between the two legs' solutions, V (or A).
const SOLVE_TOL: f64 = 1e-9;
/// Transient window: the first half of the 50 ps stimulus edge.
const TSTOP: f64 = 2.5e-11;

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

/// One engine leg on one floorplan: DC plus the transient window.
struct Leg {
    dc_s: f64,
    tran_s: f64,
    steps: usize,
    newton_iters: u64,
    /// DC unknowns followed by the final transient node voltages.
    x: Vec<f64>,
}

impl Leg {
    fn run(flat: &Circuit, sim: &SimOptions, reps: usize) -> Self {
        let (dc_s, dc) = time_best(reps, || solve_dc(flat, sim).expect("chip DC"));
        let (tran_s, tran) = time_best(reps, || {
            run_transient(flat, TSTOP, sim).expect("chip transient")
        });
        let mut x = dc.unknowns().to_vec();
        x.extend(flat.node_ids().skip(1).map(|id| tran.final_voltage(id)));
        Self {
            dc_s,
            tran_s,
            steps: tran.len(),
            newton_iters: dc.solver_stats().newton_iters + tran.solver_stats().newton_iters,
            x,
        }
    }

    fn total_s(&self) -> f64 {
        self.dc_s + self.tran_s
    }

    fn s_per_newton(&self) -> f64 {
        self.total_s() / self.newton_iters as f64
    }
}

struct Row {
    unknowns: usize,
    instances: usize,
    default: Leg,
    /// `None` above the pin size.
    natural: Option<Leg>,
}

impl Row {
    fn speedup(&self) -> Option<f64> {
        self.natural
            .as_ref()
            .map(|n| n.total_s() / self.default.total_s())
    }
}

fn leg_json(leg: &Leg) -> String {
    format!(
        "{{\"dc_s\": {:.6}, \"tran_s\": {:.6}, \"tran_steps\": {}, \
         \"newton_iters\": {}, \"s_per_newton\": {:.9}}}",
        leg.dc_s,
        leg.tran_s,
        leg.steps,
        leg.newton_iters,
        leg.s_per_newton()
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (targets, pin_target, floor): (&[usize], usize, f64) = if smoke {
        (&[100, 400], 400, SMOKE_FLOOR)
    } else {
        (&[100, 1000, 4000, 10_000], 1000, FULL_FLOOR)
    };
    let reps = if smoke { 2 } else { 3 };
    let default_sim = SimOptions::default();
    let natural_sim = SimOptions {
        kernel: KernelMode::Legacy,
        sparse_threshold: 0,
        ..SimOptions::default()
    };

    println!(
        "chip-scale sparse solve, DC + {:.0} ps transient ({} mode)",
        TSTOP * 1e12,
        if smoke { "smoke" } else { "full" }
    );
    let mut rows: Vec<Row> = Vec::new();
    for &target in targets {
        let spec = spec_for_unknowns(target, 3, 0x5510_c0de);
        let flat = generate_chip(&spec).flatten();
        let n = unknowns_of(&flat);
        assert!(n >= target, "sizing fell short: {n} < {target}");
        assert!(n > default_sim.sparse_threshold, "{n} unknowns stay dense");

        let default = Leg::run(&flat, &default_sim, reps);
        let rail = flat.find_node("vdd_i0").expect("island rail").index() - 1;
        assert!(
            (default.x[rail] - 0.8).abs() < 1e-6,
            "rail solved to {} V",
            default.x[rail]
        );
        let natural = (target <= pin_target).then(|| {
            let natural = Leg::run(&flat, &natural_sim, 1);
            assert_eq!(
                default.steps, natural.steps,
                "step sequences diverged at {n} unknowns"
            );
            let worst = default
                .x
                .iter()
                .zip(&natural.x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(
                worst <= SOLVE_TOL,
                "default and natural legs disagree by {worst:.3e} at {n} unknowns"
            );
            natural
        });

        let row = Row {
            unknowns: n,
            instances: spec.instances,
            default,
            natural,
        };
        let d = &row.default;
        println!(
            "  {n:>6} unknowns ({} units): default dc {:.3} ms + tran({} steps) {:.3} ms, \
             {:.3} ms/newton{}",
            row.instances,
            d.dc_s * 1e3,
            d.steps,
            d.tran_s * 1e3,
            d.s_per_newton() * 1e3,
            match (&row.natural, row.speedup()) {
                (Some(nat), Some(s)) => format!(
                    "; natural dc {:.3} ms + tran {:.3} ms, {:.3} ms/newton ({s:.1}x)",
                    nat.dc_s * 1e3,
                    nat.tran_s * 1e3,
                    nat.s_per_newton() * 1e3
                ),
                _ => "; natural skipped".to_string(),
            }
        );
        rows.push(row);
    }

    // Floor: default-vs-natural end-to-end speedup at the pin size.
    let pin = rows
        .iter()
        .find(|r| r.unknowns >= pin_target && r.natural.is_some())
        .expect("pin size ran the natural leg");
    let pin_speedup = pin.speedup().expect("pin ran the natural leg");
    assert!(
        pin_speedup >= floor,
        "default speedup {pin_speedup:.2}x at {} unknowns is under the {floor}x floor",
        pin.unknowns
    );
    println!(
        "  speedup floor: {pin_speedup:.2}x >= {floor}x at {} unknowns",
        pin.unknowns
    );

    // Artifact.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"tstop_s\": {TSTOP:e},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"unknowns\": {}, \"instances\": {}, \"default\": {}",
            r.unknowns,
            r.instances,
            leg_json(&r.default)
        );
        if let (Some(nat), Some(s)) = (&r.natural, r.speedup()) {
            let _ = write!(
                json,
                ", \"natural\": {}, \"speedup\": {s:.3}",
                leg_json(nat)
            );
        }
        let _ = writeln!(json, "}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"pin\": {{\"unknowns\": {}, \"speedup\": {pin_speedup:.3}, \"floor\": {floor}}}",
        pin.unknowns
    );
    json.push_str("}\n");
    let path = vls_bench::artifact_path("BENCH_solve.json", smoke);
    std::fs::write(&path, &json).expect("could not write the solve artifact");
    println!("wrote {}", path.display());
}
