//! Golden suite for the Newton kernel.
//!
//! The kernel (pattern-scatter assembly, numeric-only refactorization,
//! reusable workspaces) is the engine's one Newton
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
//! * the `SolverStats` counters must be nonzero, balanced
//!   (`device_evals == mosfets × newton_iters` on the dense and the
//!   sparse path) and plumbed all the way into the runner's
//!   `RunReport`.

use sstvs::cells::primitives::Inverter;
use sstvs::cells::{Harness, KhanSsvs, PuriSsvs, ShifterKind, VoltagePair};
use sstvs::engine::{run_transient, SimOptions, TransientResult};
use sstvs::flows::experiments::tables::{monte_carlo_stats_reported, DEFAULT_MC_SEED};
use sstvs::flows::CharacterizeOptions;
use sstvs::netlist::{Circuit, Element};
use sstvs::runner::RunnerOptions;

/// A short window covering the first stimulus cycle's rise and fall —
/// plenty of Newton work without the full two-cycle runtime.
const TSTOP: f64 = 4e-9;

fn sim(sparse_threshold: usize) -> SimOptions {
    SimOptions {
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
        let res = run(&h.circuit, &sim(64));
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
    let dense = run(&h.circuit, &sim(64));
    let sparse = run(&h.circuit, &sim(0));

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

#[test]
fn solver_stats_are_nonzero_and_reach_the_run_report() {
    let h = build(&ShifterKind::sstvs(), VoltagePair::low_to_high());

    // Every hot-path counter ticks.
    let stats = run(&h.circuit, &sim(64)).solver_stats();
    assert!(stats.newton_iters > 0 && stats.linear_solves > 0);
    assert!(stats.full_factorizations > 0);
    assert!(stats.device_evals > 0 && stats.cap_evals > 0);

    // Counter balance: every Newton iteration of the default kernel evaluates every MOSFET exactly once, on the dense
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
            let stats = run(&cell.circuit, &sim(threshold)).solver_stats();
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
