//! Golden suite for the Newton kernel.
//!
//! The kernel (pattern-scatter assembly, numeric-only refactorization,
//! reusable workspaces, device/cap bypass) is the engine's one Newton
//! path; this file pins it:
//!
//! * on the dense linear path every one of the six cells reproduces a
//!   golden transient: the accepted-step count plus a 64-bit FNV-1a
//!   fingerprint of the input and output series bits, recorded when
//!   the kernel still matched the rebuild-everything Newton loop it
//!   replaced bit for bit;
//! * on the sparse path the kernel reuses the pivot order of its
//!   first factorization instead of re-pivoting every iteration, so
//!   it matches the dense path within Newton's own tolerances rather
//!   than bitwise — pinned here to 1e-8 V;
//! * bypass is an approximation bounded by `bypass_vtol`; a property
//!   test checks bypass-on vs bypass-off transients stay within the
//!   solver's `reltol`/`lte_tol` band across randomized Monte Carlo
//!   process perturbations;
//! * the `SolverStats` counters must be nonzero, balanced (with bypass
//!   off, `device_evals == mosfets × newton_iters` on the dense and the
//!   sparse path) and plumbed all the way into the runner's
//!   `RunReport`.

use sstvs::cells::primitives::Inverter;
use sstvs::cells::{Harness, KhanSsvs, PuriSsvs, ShifterKind, VoltagePair};
use sstvs::engine::{run_transient, SimOptions, TransientResult};
use sstvs::flows::experiments::tables::{monte_carlo_stats_reported, DEFAULT_MC_SEED};
use sstvs::flows::CharacterizeOptions;
use sstvs::netlist::{Circuit, Element};
use sstvs::num::rng::Xoshiro256pp;
use sstvs::runner::RunnerOptions;
use sstvs::variation::{sample_perturbation, VariationSpec};

/// A short window covering the first stimulus cycle's rise and fall —
/// plenty of Newton work without the full two-cycle runtime.
const TSTOP: f64 = 4e-9;

fn sim(bypass_vtol: f64, sparse_threshold: usize) -> SimOptions {
    SimOptions {
        bypass_vtol,
        sparse_threshold,
        ..SimOptions::default()
    }
}

/// All six cells with a domain pair each can legally shift, each with
/// its golden `(accepted steps, fingerprint)` over [`TSTOP`] at default
/// options.
fn six_cells() -> Vec<(ShifterKind, VoltagePair, (usize, u64))> {
    vec![
        (
            ShifterKind::sstvs(),
            VoltagePair::low_to_high(),
            (254, 0xc4fb_5311_16dc_c100),
        ),
        (
            ShifterKind::combined(),
            VoltagePair::low_to_high(),
            (239, 0x0899_85d2_2113_a15e),
        ),
        (
            ShifterKind::Conventional(Default::default()),
            VoltagePair::low_to_high(),
            (214, 0xba35_4dfe_fbab_2ad4),
        ),
        (
            ShifterKind::Khan(KhanSsvs::new()),
            VoltagePair::low_to_high(),
            (219, 0x71d6_31ba_aa76_6060),
        ),
        (
            ShifterKind::Puri(PuriSsvs::new()),
            VoltagePair::low_to_high(),
            (236, 0x20e8_0e96_7dbd_240a),
        ),
        (
            ShifterKind::Inverter(Inverter::minimum()),
            VoltagePair::high_to_low(),
            (194, 0x4197_d4a1_782b_fb22),
        ),
    ]
}

fn build(kind: &ShifterKind, domains: VoltagePair) -> Harness {
    let (wave, _, _, _) = Harness::standard_stimulus(domains);
    Harness::build(kind, domains, wave, 1e-15)
}

fn run(circuit: &Circuit, options: &SimOptions) -> TransientResult {
    run_transient(circuit, TSTOP, options).expect("transient failed")
}

/// Worst absolute deviation between two same-length transients on a
/// probe node; panics if the accepted-step sequences differ.
fn worst_deviation(a: &TransientResult, b: &TransientResult, probe: sstvs::netlist::NodeId) -> f64 {
    assert_eq!(a.len(), b.len(), "paths accepted different step sequences");
    a.node_series(probe)
        .iter()
        .zip(&b.node_series(probe))
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// 64-bit FNV-1a over the IEEE-754 bit patterns of `samples`, in
/// order, little-endian: any change to any bit of any sample moves it.
fn fingerprint<'a>(samples: impl IntoIterator<Item = &'a f64>) -> u64 {
    samples
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn six_cells_reproduce_their_golden_transients() {
    for (kind, domains, golden) in six_cells() {
        let h = build(&kind, domains);
        let res = run(&h.circuit, &sim(0.0, 64));
        let input = res.node_series(h.input);
        let output = res.node_series(h.output);
        let got = (res.len(), fingerprint(input.iter().chain(&output)));
        assert_eq!(
            got,
            golden,
            "{}: (accepted steps, fingerprint) moved from the golden",
            kind.label()
        );
    }
}

#[test]
fn sparse_kernel_agrees_with_the_dense_path() {
    // Extends `sparse_and_dense_paths_agree` (engine unit suite) to a
    // paper cell: force the sparse solver on the SS-TVS cell and pin
    // it to the dense path.
    let h = build(&ShifterKind::sstvs(), VoltagePair::low_to_high());
    let dense = run(&h.circuit, &sim(0.0, 64));
    let sparse = run(&h.circuit, &sim(0.0, 0));

    // Frozen-pivot refactorization vs per-iteration re-pivoting: the
    // trajectories agree far inside Newton's vabstol (1e-6 V) but not
    // bitwise.
    let d = worst_deviation(&dense, &sparse, h.output);
    assert!(d <= 1e-8, "sparse vs dense strayed {d:.3e} V apart");

    let stats = sparse.solver_stats();
    assert!(
        stats.refactorizations > 0,
        "sparse kernel never refactorized: {}",
        stats.render()
    );
    assert!(
        stats.full_factorizations > 0,
        "sparse kernel never fully factorized: {}",
        stats.render()
    );
}

/// Linear interpolation of a transient at time `t`.
fn sample_at(times: &[f64], series: &[f64], t: f64) -> f64 {
    match times.iter().position(|&tk| tk >= t) {
        None => *series.last().unwrap(),
        Some(0) => series[0],
        Some(k) => {
            let (t0, t1) = (times[k - 1], times[k]);
            let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
            series[k - 1] + w * (series[k] - series[k - 1])
        }
    }
}

#[test]
fn bypass_stays_within_solver_tolerances_across_mc_perturbations() {
    // Property test: for randomized process perturbations of the cell
    // devices, the bypassed transient must track the exact one within
    // the band the solver itself guarantees (reltol of the swing plus
    // the LTE budget) at every common time point, with identical final
    // logic levels.
    let domains = VoltagePair::low_to_high();
    let reference = build(&ShifterKind::sstvs(), domains);
    let spec = VariationSpec::paper();
    let exact_sim = sim(0.0, 64);
    let bypass_sim = sim(1e-4, 64);
    // Bypass perturbs the Newton trajectory, which shifts edge timing
    // within reltol; on a 50 ps edge that timing shift converts to a
    // few millivolts of pointwise deviation.
    let tol = 10.0 * (exact_sim.reltol * domains.vddo + exact_sim.lte_tol);

    for seed in 1..=4u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let map = sample_perturbation(&reference.circuit, &spec, &mut rng, |name| {
            name.starts_with("dut")
        });
        let mut circuit = reference.circuit.clone();
        map.apply(&mut circuit);

        let exact = run(&circuit, &exact_sim);
        let bypassed = run(&circuit, &bypass_sim);
        let (t_ex, v_ex) = (exact.times(), exact.node_series(reference.output));
        let (t_by, v_by) = (bypassed.times(), bypassed.node_series(reference.output));

        let mut worst = 0.0f64;
        for k in 0..=200 {
            let t = TSTOP * k as f64 / 200.0;
            let d = (sample_at(t_ex, &v_ex, t) - sample_at(t_by, &v_by, t)).abs();
            worst = worst.max(d);
        }
        assert!(
            worst <= tol,
            "seed {seed}: bypass strayed {worst:.3e} V from exact (tol {tol:.3e})"
        );

        let stats = bypassed.solver_stats();
        assert!(
            stats.device_bypasses > 0,
            "seed {seed}: bypass never engaged: {}",
            stats.render()
        );
    }
}

#[test]
fn solver_stats_are_nonzero_and_reach_the_run_report() {
    let h = build(&ShifterKind::sstvs(), VoltagePair::low_to_high());

    // Exact run: every hot-path counter but the bypass ones.
    let stats = run(&h.circuit, &sim(0.0, 64)).solver_stats();
    assert!(stats.newton_iters > 0 && stats.linear_solves > 0);
    assert!(stats.full_factorizations > 0);
    assert!(stats.device_evals > 0 && stats.cap_evals > 0);
    assert_eq!(stats.device_bypasses, 0, "bypass engaged while disabled");
    assert_eq!(stats.cap_bypasses, 0, "cap bypass engaged while disabled");

    // Counter balance: with bypass off, every Newton iteration of the
    // default kernel evaluates every MOSFET exactly once, on the dense
    // (threshold 64) and the sparse (threshold 0) linear path alike.
    for domains in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
        let cell = build(&ShifterKind::sstvs(), domains);
        let mosfets = cell
            .circuit
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::Mosfet { .. }))
            .count() as u64;
        assert!(mosfets > 0);
        for threshold in [64, 0] {
            let stats = run(&cell.circuit, &sim(0.0, threshold)).solver_stats();
            assert!(stats.newton_iters > 0);
            assert_eq!(
                stats.device_evals,
                mosfets * stats.newton_iters,
                "{domains:?}, sparse_threshold {threshold}: device evals out of balance: {}",
                stats.render()
            );
        }
    }

    // End-to-end plumbing: characterization trials fold their counters
    // through `characterize_with_stats` into the runner's RunReport.
    let (mc, report) = monte_carlo_stats_reported(
        &ShifterKind::sstvs(),
        VoltagePair::low_to_high(),
        &CharacterizeOptions::default(),
        3,
        DEFAULT_MC_SEED,
        &RunnerOptions::serial(),
    )
    .expect("MC failed");
    assert!(mc.passed > 0);
    assert!(
        !report.solver.is_empty(),
        "SolverStats did not reach RunReport"
    );
    assert!(report.solver.newton_iters > 0 && report.solver.linear_solves > 0);
    assert!(report.render().contains("solver:"));
}
