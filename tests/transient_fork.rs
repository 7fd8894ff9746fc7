//! The forked transient: one simulated prefix continued on several
//! circuits must equal one uninterrupted run per circuit, bit for bit,
//! and every misuse must come back as a typed error.

use sstvs::cells::{Harness, ShifterKind, VoltagePair};
use sstvs::device::SourceWaveform;
use sstvs::engine::{
    run_transient, run_transient_forked, EngineError, FaultPlan, SimOptions, TransientResult,
};
use sstvs::netlist::{Circuit, Element};

const FORK_AT: f64 = 5e-9;
const T_END: f64 = 400e-9;

/// The leakage-hold stimulus of the characterization protocol: an
/// initializing pulse, then the input held at `hold` from 5 ns on.
fn hold_wave(vddi: f64, hold: f64) -> SourceWaveform {
    SourceWaveform::Pwl(vec![
        (0.0, 0.0),
        (1e-9, 0.0),
        (1.05e-9, vddi),
        (4e-9, vddi),
        (4.05e-9, 0.0),
        (FORK_AT, 0.0),
        (5.05e-9, hold),
    ])
}

/// The two hold circuits (input high, input low) of `kind`.
fn holds(kind: &ShifterKind) -> [Circuit; 2] {
    let d = VoltagePair::low_to_high();
    [d.vddi, 0.0].map(|hold| Harness::build(kind, d, hold_wave(d.vddi, hold), 1e-15).circuit)
}

fn mosfets(circuit: &Circuit) -> u64 {
    circuit
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Mosfet { .. }))
        .count() as u64
}

fn hold_options() -> SimOptions {
    SimOptions {
        max_step: Some(5e-9),
        ..SimOptions::default()
    }
}

/// Every unknown of every sample, as bits.
fn sample_bits(res: &TransientResult, circuit: &Circuit) -> Vec<Vec<u64>> {
    let mut series: Vec<Vec<u64>> = circuit
        .node_ids()
        .map(|n| res.node_series(n).iter().map(|v| v.to_bits()).collect())
        .collect();
    for e in circuit.elements() {
        if let Some(i) = res.branch_series(e.name()) {
            series.push(i.iter().map(|v| v.to_bits()).collect());
        }
    }
    series
}

/// Same times, samples and counters, bit for bit.
fn assert_bitwise_equal(
    forked: &TransientResult,
    reference: &TransientResult,
    circuit: &Circuit,
    what: &str,
) {
    let bits = |r: &TransientResult| r.times().iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(forked), bits(reference), "{what}: times");
    assert_eq!(
        sample_bits(forked, circuit),
        sample_bits(reference, circuit),
        "{what}: samples"
    );
    assert_eq!(
        forked.solver_stats(),
        reference.solver_stats(),
        "{what}: counters"
    );
}

#[test]
fn forked_holds_equal_two_uninterrupted_runs() {
    // The dense default and the sparse path (whose frozen pivot order
    // and factor the fork must carry over).
    let variants = [
        ("dense", hold_options()),
        (
            "sparse",
            SimOptions {
                sparse_threshold: 0,
                ..hold_options()
            },
        ),
    ];
    for kind in [ShifterKind::sstvs(), ShifterKind::combined()] {
        let circuits = holds(&kind);
        for (label, options) in &variants {
            let what = format!("{kind:?} {label}");
            let forked =
                run_transient_forked(&[&circuits[0], &circuits[1]], FORK_AT, T_END, options)
                    .expect("fork runs");
            let prefix = run_transient(&circuits[0], FORK_AT, options).expect("prefix runs");
            let mut merged = forked.solver_stats();
            let mut branch_total = sstvs::num::SolverStats::default();
            for (branch, circuit) in forked.into_branches().into_iter().zip(&circuits) {
                let branch = &branch.expect("branch runs");
                let reference = run_transient(circuit, T_END, options).expect("reference runs");
                assert_bitwise_equal(branch, &reference, circuit, &what);
                // Every Newton iteration of the branch, its prefix and
                // its DC solve evaluated every MOSFET exactly once.
                let stats = branch.solver_stats();
                assert_eq!(
                    stats.device_evals,
                    mosfets(circuit) * stats.newton_iters,
                    "{what}: device evals out of balance: {}",
                    stats.render()
                );
                // The branch starts with the prefix, sample for sample.
                let n = prefix.len();
                assert_eq!(branch.times()[..n], prefix.times()[..], "{what}");
                assert_eq!(
                    sample_bits(&prefix, circuit),
                    sample_bits(branch, circuit)
                        .into_iter()
                        .map(|s| s[..n].to_vec())
                        .collect::<Vec<_>>(),
                    "{what}: prefix samples"
                );
                branch_total.merge(&branch.solver_stats());
            }
            // The merged counters hold the prefix once: adding it back
            // gives the two uninterrupted runs' totals.
            merged.merge(&prefix.solver_stats());
            assert_eq!(merged, branch_total, "{what}: merged counters");
            assert!(prefix.solver_stats().newton_iters > 0);
        }
    }
}

#[test]
fn fork_misuse_is_a_typed_error() {
    let [high, low] = holds(&ShifterKind::sstvs());
    let options = hold_options();
    let bad_fork = |r: Result<_, EngineError>| match r {
        Err(e @ EngineError::BadFork(_)) => {
            assert_eq!(e.failure_class(), "bad_fork");
            e.to_string()
        }
        other => panic!("expected a typed fork error, got {other:?}"),
    };

    // A fork time that is not a breakpoint.
    let msg = bad_fork(run_transient_forked(
        &[&high, &low],
        4.5e-9,
        T_END,
        &options,
    ));
    assert!(msg.contains("not a source breakpoint"), "{msg}");
    // A fork time outside the run, and nothing to fork.
    bad_fork(run_transient_forked(&[&high, &low], T_END, T_END, &options));
    bad_fork(run_transient_forked(&[&high, &low], 0.0, T_END, &options));
    bad_fork(run_transient_forked(&[], FORK_AT, T_END, &options));

    // Circuits whose layouts differ: another cell behind the same
    // stimulus.
    let other = holds(&ShifterKind::combined());
    let msg = bad_fork(run_transient_forked(
        &[&high, &other[1]],
        FORK_AT,
        T_END,
        &options,
    ));
    assert!(msg.contains("layouts differ"), "{msg}");

    // The same layout with one device resized is not a fork either.
    let mut resized = low.clone();
    for e in resized.elements_mut() {
        if let sstvs::netlist::Element::Mosfet { geom, .. } = e {
            *geom = sstvs::device::MosGeometry::from_microns(0.5, 0.1);
            break;
        }
    }
    bad_fork(run_transient_forked(
        &[&high, &resized],
        FORK_AT,
        T_END,
        &options,
    ));

    // Sources that disagree before the fork: a later initializing
    // pulse.
    let d = VoltagePair::low_to_high();
    let late = SourceWaveform::Pwl(vec![
        (0.0, 0.0),
        (2e-9, 0.0),
        (2.05e-9, d.vddi),
        (4e-9, d.vddi),
        (4.05e-9, 0.0),
        (FORK_AT, 0.0),
        (5.05e-9, 0.0),
    ]);
    let late = Harness::build(&ShifterKind::sstvs(), d, late, 1e-15).circuit;
    let msg = bad_fork(run_transient_forked(
        &[&high, &late],
        FORK_AT,
        T_END,
        &options,
    ));
    assert!(msg.contains("differs before the fork"), "{msg}");
}

#[test]
fn step_budget_and_fault_plans_behave_as_in_uninterrupted_runs() {
    let circuits = holds(&ShifterKind::sstvs());
    let check = |options: &SimOptions, what: &str| -> (bool, usize) {
        let forked = run_transient_forked(&[&circuits[0], &circuits[1]], FORK_AT, T_END, options);
        let references: Vec<_> = circuits
            .iter()
            .map(|c| run_transient(c, T_END, options))
            .collect();
        match forked {
            // A prefix failure is every uninterrupted run's failure.
            Err(e) => {
                for r in &references {
                    assert_eq!(r.as_ref().err(), Some(&e), "{what}");
                }
                (false, 0)
            }
            Ok(forked) => {
                let mut branch_errors = 0;
                for ((branch, reference), circuit) in forked
                    .into_branches()
                    .iter()
                    .zip(&references)
                    .zip(&circuits)
                {
                    match (branch, reference) {
                        (Ok(b), Ok(r)) => assert_bitwise_equal(b, r, circuit, what),
                        (Err(b), Err(r)) => {
                            assert_eq!(b, r, "{what}");
                            branch_errors += 1;
                        }
                        (b, r) => panic!("{what}: fork {b:?} vs uninterrupted {r:?}"),
                    }
                }
                (true, branch_errors)
            }
        }
    };

    // Step budgets: one exhausted inside the shared prefix, one after
    // the fork (the branch keeps counting the prefix's attempts).
    let full = run_transient(&circuits[0], T_END, &hold_options()).unwrap();
    let prefix = run_transient(&circuits[0], FORK_AT, &hold_options()).unwrap();
    let in_prefix = (prefix.len() / 2) as u64;
    let after_fork = (full.len() - 2) as u64;
    assert!(after_fork > prefix.len() as u64);
    let budget = |b: u64| SimOptions {
        step_budget: Some(b),
        ..hold_options()
    };
    assert_eq!(check(&budget(in_prefix), "budget in prefix"), (false, 0));
    let (prefix_ok, branch_errors) = check(&budget(after_fork), "budget after fork");
    assert!(
        prefix_ok && branch_errors >= 1,
        "budget must run out after the fork"
    );

    // An armed fault plan: LTE rejections early in the prefix, and
    // enough pivot-health charges on the sparse path to outlast the
    // prefix, so the branches inherit the session mid-plan.
    let plan = FaultPlan::parse("lte:count=2,pivot:count=1500").unwrap();
    let options = SimOptions {
        sparse_threshold: 0,
        fault: plan.arm(0),
        ..hold_options()
    };
    let prefix = run_transient(&circuits[0], FORK_AT, &options).unwrap();
    let full = run_transient(&circuits[0], T_END, &options).unwrap();
    let (p, f) = (prefix.solver_stats(), full.solver_stats());
    assert!(p.injected_faults > 2 && f.injected_faults > p.injected_faults);
    assert_eq!(check(&options, "armed plan"), (true, 0));
}
