//! Golden suite for the chip-scale sparse solve.
//!
//! Above `sparse_threshold` the engine compiles every system under a
//! one-time minimum-degree fill-reducing ordering. This file pins that
//! one sparse path:
//!
//! * **property sweep** — over seeded random hub-and-chain patterns,
//!   the ordered factorization represents the same operator (solving
//!   against unit vectors reproduces the identity to 1e-10, i.e.
//!   P·A·Pᵀ = L·U reconstructs A) and never fills in more than the
//!   natural order;
//! * **dense-reference agreement** — default options on a generated
//!   100-instance floorplan match the dense reference
//!   (`sparse_threshold: usize::MAX`: natural-order dense LU with
//!   partial pivoting, re-pivoted every iteration) to 1e-9 V for DC and
//!   for a transient, with identical step sequences;
//! * **identity ordering** — a circuit whose minimum-degree permutation
//!   is the identity takes the natural compile and solves bit for bit
//!   like the dense reference.

use sstvs::device::{MosGeometry, MosModel, SourceWaveform};
use sstvs::engine::{run_transient, solve_dc, SimOptions};
use sstvs::netlist::chipgen::{generate_chip, ChipSpec};
use sstvs::netlist::Circuit;
use sstvs::num::rng::{Rng, Xoshiro256pp};
use sstvs::num::{invert_permutation, is_identity, DenseMatrix, SparseLu, TripletMatrix};

/// A seeded hub-and-chain pattern: dense diagonal, one hub row/column
/// coupling every unknown, a wrap-around chain, and random symmetric
/// extras. Natural elimination hits the hub first and fills the whole
/// matrix; minimum degree defers it to the end and stays sparse —
/// exactly the fill asymmetry the ordering exists to remove.
fn random_hub_stamps(n: usize, seed: u64) -> Vec<(usize, usize, f64)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut stamps = Vec::new();
    for i in 0..n {
        // Strong diagonal keeps every pivot healthy under the
        // diagonal-preference rule, so natural and ordered paths pivot
        // identically (no fallback noise in the fill comparison).
        stamps.push((i, i, 8.0 + rng.gen_range(0.0, 4.0)));
    }
    for i in 1..n {
        let v = rng.gen_range(-1.0, 1.0);
        stamps.push((0, i, v));
        stamps.push((i, 0, v));
        let w = rng.gen_range(-1.0, 1.0);
        let j = (i % (n - 1)) + 1;
        stamps.push((i, j, w));
        stamps.push((j, i, w));
    }
    for _ in 0..n {
        let i = rng.gen_index(n - 1) + 1;
        let j = rng.gen_index(n - 1) + 1;
        let v = rng.gen_range(-0.5, 0.5);
        stamps.push((i, j, v));
        stamps.push((j, i, v));
    }
    stamps
}

#[test]
fn ordered_factorization_reconstructs_and_reduces_fill_over_a_seed_sweep() {
    let n = 30;
    for seed in 0..8u64 {
        let stamps = random_hub_stamps(n, seed);
        let mut t = TripletMatrix::new(n);
        for &(r, c, v) in &stamps {
            t.add(r, c, v);
        }
        let natural = t.to_csc();
        let nat_lu = SparseLu::factorize(&natural).expect("natural factorization");

        // The compiled ordered pattern starts zero-valued; replay the
        // stamp sequence through its scatter map, as the kernel does.
        let (mut ordered, map, perm) = t.compile_ordered();
        for (k, &(_, _, v)) in stamps.iter().enumerate() {
            ordered.values_mut()[map[k]] += v;
        }
        let ord_lu = SparseLu::factorize(&ordered).expect("ordered factorization");
        let new_of = invert_permutation(&perm);

        // Fill: minimum degree must never lose to natural order on a
        // hub pattern (it wins by a wide margin; ≤ is the contract).
        assert!(
            ord_lu.factor_nnz() <= nat_lu.factor_nnz(),
            "seed {seed}: ordering increased fill ({} > {})",
            ord_lu.factor_nnz(),
            nat_lu.factor_nnz()
        );

        // Reconstruction: solving P·A·Pᵀ·(P·x) = P·e_j for every unit
        // vector and mapping back through the permutation must invert
        // the dense operator — L·U represents exactly A.
        let dense: DenseMatrix = natural.to_dense();
        let reference = dense.factorize().expect("dense factorization");
        let mut pb = vec![0.0; n];
        let mut px = vec![0.0; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            for (old, &bv) in e.iter().enumerate() {
                pb[new_of[old]] = bv;
            }
            ord_lu.solve_into(&pb, &mut px).expect("ordered solve");
            let x: Vec<f64> = (0..n).map(|old| px[new_of[old]]).collect();
            // x must reproduce the dense solution…
            let xd = reference.solve(&e);
            for (i, (a, b)) in x.iter().zip(&xd).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-10,
                    "seed {seed}, rhs {j}: x[{i}] ordered {a} vs dense {b}"
                );
            }
            // …and A·x must reproduce the unit vector.
            let ax = dense.mul_vec(&x).expect("dimensions match");
            for (i, v) in ax.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (v - want).abs() <= 1e-10,
                    "seed {seed}: (A·x)[{i}] = {v}, want {want}"
                );
            }
        }
    }
}

/// Transient window of the dense-reference comparison: the opening of
/// the 50 ps stimulus edge.
const TSTOP: f64 = 2e-12;

/// The 100-instance floorplan: flattened, it is well past the dense
/// threshold, and its rail and stimulus hubs make natural order fill.
fn chip_100() -> Circuit {
    generate_chip(&ChipSpec {
        instances: 100,
        islands: 3,
        seed: 0x5510_c0de,
    })
    .flatten()
}

/// The dense reference: at any size the kernel factors the
/// natural-order system with dense partial-pivoting LU, re-pivoted
/// every Newton iteration — no ordering, no frozen pivots, no sparse
/// code at all.
fn dense_reference() -> SimOptions {
    SimOptions {
        sparse_threshold: usize::MAX,
        ..SimOptions::default()
    }
}

fn worst_gap(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

#[test]
fn structured_solves_match_the_flat_natural_solve() {
    let flat = chip_100();
    let default = SimOptions::default();
    assert!(
        flat.node_count() > default.sparse_threshold,
        "chip_100 must take the sparse path"
    );

    let ordered = solve_dc(&flat, &default).expect("default DC");
    let dense = solve_dc(&flat, &dense_reference()).expect("dense DC");
    let worst = worst_gap(ordered.unknowns(), dense.unknowns());
    assert!(
        worst <= 1e-9,
        "DC strayed {worst:.3e} from the dense reference"
    );

    // The window is capped at one step's worth of `max_step` (instead
    // of the default tstop / 50) so the dense reference stays
    // affordable; both legs share every other option.
    let window = |o: SimOptions| SimOptions {
        max_step: Some(TSTOP),
        ..o
    };
    let ordered = run_transient(&flat, TSTOP, &window(default)).expect("default transient");
    let dense = run_transient(&flat, TSTOP, &window(dense_reference())).expect("dense transient");
    // Same accepted steps; the step sizes derive from the solutions, so
    // they agree to rounding, not bitwise.
    assert_eq!(ordered.len(), dense.len(), "step sequences differ");
    for (k, (a, b)) in ordered.times().iter().zip(dense.times()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs(),
            "step {k} at {a:e} vs {b:e} s"
        );
    }
    for id in flat.node_ids().skip(1) {
        let worst = worst_gap(&ordered.node_series(id), &dense.node_series(id));
        assert!(
            worst <= 1e-9,
            "transient node {} strayed {worst:.3e} from the dense reference",
            flat.node_name(id)
        );
    }
}

/// A current-driven RC ladder with a MOSFET across every rung: every
/// element couples neighbouring nodes only and there is no branch
/// unknown, so the MNA pattern is tridiagonal and minimum degree
/// eliminates it front to back — the identity permutation.
fn ladder(rungs: usize) -> Circuit {
    let mut c = Circuit::new();
    let nodes: Vec<_> = (0..rungs).map(|k| c.node(&format!("n{k}"))).collect();
    c.add_isource(
        "iin",
        Circuit::GROUND,
        nodes[0],
        SourceWaveform::Pulse {
            v1: 0.0,
            v2: 1e-4,
            delay: 0.0,
            rise: 50e-12,
            fall: 50e-12,
            width: 1e-9,
            period: 2e-9,
        },
    );
    for (k, w) in nodes.windows(2).enumerate() {
        c.add_resistor(&format!("r{k}"), w[0], w[1], 1e3);
        c.add_mosfet(
            &format!("m{k}"),
            w[1],
            w[0],
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(0.2, 0.1),
        );
    }
    for (k, &n) in nodes.iter().enumerate() {
        c.add_resistor(&format!("rg{k}"), n, Circuit::GROUND, 1e4);
        c.add_capacitor(&format!("c{k}"), n, Circuit::GROUND, 1e-15);
    }
    c
}

#[test]
fn identity_ordering_solves_bit_for_bit_like_the_natural_compile() {
    // The ladder's pattern: tridiagonal plus the diagonal. Minimum
    // degree returns the identity, and the ordered compile is then the
    // natural compile — pattern and stamp map alike.
    let rungs = 80;
    let mut t = TripletMatrix::new(rungs);
    for k in 0..rungs {
        t.add(k, k, 1.0);
        if k + 1 < rungs {
            t.add(k, k + 1, 1.0);
            t.add(k + 1, k, 1.0);
        }
    }
    let (ordered, ordered_map, perm) = t.compile_ordered();
    assert!(is_identity(&perm), "tridiagonal ordering moved: {perm:?}");
    let (natural, natural_map) = t.compile();
    assert_eq!(ordered.col_ptr(), natural.col_ptr());
    assert_eq!(ordered.row_indices(), natural.row_indices());
    assert_eq!(ordered_map, natural_map);

    // End to end: default options (sparse, above the threshold) and the
    // dense reference agree bit for bit: on this tridiagonal pattern
    // both LUs keep the diagonal pivots and eliminate one sub-diagonal
    // entry per column in natural order, the same arithmetic.
    let c = ladder(rungs);
    assert!(c.node_count() - 1 > SimOptions::default().sparse_threshold);
    let ordered = solve_dc(&c, &SimOptions::default()).expect("default DC");
    let dense = solve_dc(&c, &dense_reference()).expect("dense DC");
    for (i, (x, y)) in ordered.unknowns().iter().zip(dense.unknowns()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "DC unknown {i}: {x} vs {y}");
    }
    let ordered = run_transient(&c, 1e-10, &SimOptions::default()).expect("default transient");
    let dense = run_transient(&c, 1e-10, &dense_reference()).expect("dense transient");
    assert_eq!(ordered.times(), dense.times(), "step sequences differ");
    for id in c.node_ids().skip(1) {
        for (k, (x, y)) in ordered
            .node_series(id)
            .iter()
            .zip(&dense.node_series(id))
            .enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "sample {k}: {x} vs {y}");
        }
    }
}
