//! The Newton kernel: the one implementation of Newton–Raphson that
//! every DC ladder stage and every transient step runs through.
//!
//! For a fixed circuit the structure of the linear system is invariant
//! between iterations — only the *values* change. The kernel hoists
//! that invariant work to construction time:
//!
//! * **Symbolic phase (once per circuit):** one probe assembly records
//!   the stamp sequence; [`TripletMatrix::compile_ordered`] turns it
//!   into a frozen CSC pattern under a minimum-degree fill-reducing
//!   order plus a stamp-pointer map. Every subsequent assembly is a
//!   branch-light scatter `values[map[cursor]] += v` — no sort, no
//!   dedup, no allocation.
//! * **Numeric-only refactorization:** the pivot order found by the
//!   first full factorization is replayed by [`SparseLu::refactorize`];
//!   a pivot-health check falls back to a full re-pivoting
//!   factorization when values drift. Dense circuits reuse the `n²`
//!   factor storage through [`DenseMatrix::factorize_into`].
//! * **Reusable workspaces:** the iterate, right-hand side, solution
//!   and delta vectors live in the kernel, so steady-state transient
//!   stepping performs no per-iteration allocation.
//! * **Device bypass (SPICE3 style):** with a positive
//!   [`SimOptions::bypass_vtol`], each MOSFET's linearization is cached
//!   and replayed while its terminal voltages stay within tolerance —
//!   but a bypassed evaluation is never allowed to decide convergence:
//!   the kernel always confirms with one full-evaluation iteration.
//!
//! At or below [`SimOptions::sparse_threshold`] the kernel factors
//! densely in natural order with partial pivoting, re-pivoting every
//! iteration. That path shares no ordering or pivot reuse with the
//! sparse one, so `sparse_threshold: usize::MAX` is the reference the
//! sparse path is checked against (`tests/solve_scale.rs`): within
//! Newton tolerance with the same accepted steps on a chip floorplan,
//! bit for bit on a tridiagonal ladder whose minimum-degree order is
//! the identity.

use vls_device::{MosBias, MosCaps, MosCapsCache, MosGeometry, MosModel, MosStamp, MosStampCache};
use vls_fault::FaultSession;
use vls_num::{
    invert_permutation, is_identity, weighted_converged, CscMatrix, DenseLu, DenseMatrix, NumError,
    SolverStats, SparseLu, TripletMatrix,
};

use crate::dc::{singular_failure, NewtonFailure};
use crate::mna::{CompanionCap, MatrixSink, Mna, StampCtx};
use crate::SimOptions;

/// Scatter sink: replays a recorded stamp sequence into the frozen CSC
/// value array through the stamp-pointer map. Positions are ignored —
/// the map already encodes them.
struct PatternScatter<'a> {
    values: &'a mut [f64],
    map: &'a [usize],
    cursor: usize,
}

impl MatrixSink for PatternScatter<'_> {
    #[inline]
    fn stamp(&mut self, _row: usize, _col: usize, value: f64) {
        self.values[self.map[self.cursor]] += value;
        self.cursor += 1;
    }
}

/// Factor step of the sparse path: numeric replay on the frozen pivot
/// sequence, falling back to a full re-pivoting factorization when
/// pivot health degrades. The pivot fault hook only arms on an
/// existing factorization — the first (full) factorization has no
/// pivot sequence to drift.
fn factor_sparse(
    lu: &mut Option<SparseLu>,
    pattern: &CscMatrix,
    tol: f64,
    faults: &mut FaultSession,
    stats: &mut SolverStats,
) -> Result<(), NumError> {
    match lu {
        Some(f) => {
            if faults.fire_pivot() {
                // Injected drift: the next refactorize reports a
                // pivot-health failure, driving the fallback arm below.
                f.degrade_pivot_health();
            }
            match f.refactorize(pattern, tol) {
                Ok(()) => {
                    stats.refactorizations += 1;
                    Ok(())
                }
                Err(_) => {
                    // Pivot health degraded: full re-pivoting
                    // factorization.
                    stats.refactor_fallbacks += 1;
                    let nf = SparseLu::factorize_with_tolerance(pattern, tol)?;
                    stats.full_factorizations += 1;
                    *f = nf;
                    Ok(())
                }
            }
        }
        None => {
            let nf = SparseLu::factorize_with_tolerance(pattern, tol)?;
            stats.full_factorizations += 1;
            *lu = Some(nf);
            Ok(())
        }
    }
}

/// The factorization backend chosen at construction time from
/// `SimOptions::sparse_threshold`.
// One instance lives per kernel (per circuit), never in a collection,
// so the variant size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum LinearPath {
    Dense {
        a: DenseMatrix,
        lu: DenseLu,
    },
    /// Sparse LU over the pattern compiled under its one-time
    /// minimum-degree ordering. The stamp map scatters straight into
    /// permuted slots, so the per-iteration assembly cost does not
    /// depend on the order.
    Sparse {
        pattern: CscMatrix,
        map: Vec<usize>,
        lu: Option<SparseLu>,
        /// `None` when the minimum-degree permutation is the identity:
        /// the ordered compile is then the natural compile, and the
        /// solve runs unpermuted, bit-identical to it.
        order: Option<FillOrder>,
    },
}

/// A non-identity elimination order and its permutation workspaces.
struct FillOrder {
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// `new_of[old] = new`.
    new_of: Vec<usize>,
    /// Permuted right-hand-side workspace.
    pb: Vec<f64>,
    /// Permuted solution workspace.
    px: Vec<f64>,
}

impl FillOrder {
    /// Permutes the natural-order `b` into elimination order, solves
    /// with `lu`, and permutes the solution back into `x`.
    fn solve(&mut self, lu: &SparseLu, b: &[f64], x: &mut [f64]) -> Result<(), NumError> {
        for (old, &bv) in b.iter().enumerate() {
            self.pb[self.new_of[old]] = bv;
        }
        lu.solve_into(&self.pb, &mut self.px)?;
        for (old, xo) in x.iter_mut().enumerate() {
            *xo = self.px[self.new_of[old]];
        }
        Ok(())
    }
}

/// A per-circuit Newton solver with one-time symbolic analysis,
/// reusable numeric workspaces, and optional device bypass. Build it
/// once per circuit (and per analysis kind — DC and transient stamp
/// different patterns) and call [`NewtonKernel::solve`] as many times
/// as needed; caches and factors persist across calls, which is where
/// the speedup on homotopy ladders and transient stepping comes from.
pub(crate) struct NewtonKernel<'m, 'c> {
    mna: &'m Mna<'c>,
    path: LinearPath,
    /// Right-hand side workspace.
    b: Vec<f64>,
    /// Newton iterate workspace; holds the solution after a successful
    /// solve.
    x: Vec<f64>,
    /// Linear-solve output workspace.
    x_new: Vec<f64>,
    /// Damped-update workspace for the convergence test.
    delta: Vec<f64>,
    /// Per-element MOSFET linearization caches (indexed by element).
    stamp_caches: Vec<MosStampCache>,
    /// Per-element Meyer capacitance caches (indexed by element).
    cap_caches: Vec<MosCapsCache>,
    stats: SolverStats,
}

impl<'m, 'c> NewtonKernel<'m, 'c> {
    /// Builds the kernel, running the symbolic phase when the circuit
    /// is above the sparse threshold. `reactive_probe` must carry the
    /// same companion-branch node pairs that later `solve` calls will
    /// stamp (values are irrelevant — stamp positions depend only on
    /// topology); pass `None` for DC.
    pub fn new(
        mna: &'m Mna<'c>,
        options: &SimOptions,
        reactive_probe: Option<&[CompanionCap]>,
    ) -> Self {
        let n = mna.n_unknowns;
        let path = if n > options.sparse_threshold {
            // Record the stamp sequence once. The dummy evaluator keeps
            // the probe free of model evaluations: positions and stamp
            // order are value-independent.
            let mut t = TripletMatrix::new(n);
            let mut b = vec![0.0; n];
            let x0 = vec![0.0; n];
            let probe_ctx = StampCtx {
                time: 0.0,
                source_scale: 0.0,
                gmin: options.gmin,
                temp_k: options.temperature.as_kelvin(),
                reactive: reactive_probe,
            };
            mna.assemble_with_eval(&x0, &mut t, &mut b, &probe_ctx, &mut |_, _, _, _| {
                MosStamp::default()
            });
            let (pattern, map, perm) = t.compile_ordered();
            let order = (!is_identity(&perm)).then(|| FillOrder {
                new_of: invert_permutation(&perm),
                perm,
                pb: vec![0.0; n],
                px: vec![0.0; n],
            });
            LinearPath::Sparse {
                pattern,
                map,
                lu: None,
                order,
            }
        } else {
            LinearPath::Dense {
                a: DenseMatrix::zeros(n),
                lu: DenseLu::empty(),
            }
        };
        let n_elems = mna.element_count();
        Self {
            mna,
            path,
            b: vec![0.0; n],
            x: Vec::with_capacity(n),
            x_new: vec![0.0; n],
            delta: vec![0.0; n],
            stamp_caches: vec![MosStampCache::new(); n_elems],
            cap_caches: vec![MosCapsCache::new(); n_elems],
            stats: SolverStats::default(),
        }
    }

    /// The counters accumulated since construction.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Meyer capacitance evaluation through the bypass cache (the
    /// transient loop's analogue of device bypass). `bypass_tol ≤ 0`
    /// always evaluates.
    pub fn eval_caps(
        &mut self,
        elem_idx: usize,
        model: &MosModel,
        geom: &MosGeometry,
        bias: MosBias,
        temp_k: f64,
        bypass_tol: f64,
    ) -> MosCaps {
        if let Some(c) = self.cap_caches[elem_idx].lookup(&bias, bypass_tol) {
            self.stats.cap_bypasses += 1;
            return c;
        }
        let c = model.caps(geom, bias.vg, bias.vd, bias.vs, bias.vb, temp_k);
        if bypass_tol > 0.0 {
            self.cap_caches[elem_idx].store(bias, c);
        }
        self.stats.cap_evals += 1;
        c
    }

    /// One Newton solve from `x0` under `ctx`: damped updates, the
    /// weighted convergence test on voltages and branch currents, and
    /// a typed failure on singularity or iteration exhaustion. Returns
    /// the converged unknown vector and the iterations spent.
    pub fn solve(
        &mut self,
        x0: &[f64],
        ctx: &StampCtx<'_>,
        options: &SimOptions,
        faults: &mut FaultSession,
    ) -> Result<(Vec<f64>, usize), NewtonFailure> {
        let iters = self.solve_in_place(x0, ctx, options, faults)?;
        Ok((self.x.clone(), iters))
    }

    /// [`NewtonKernel::solve`] leaving the solution in the internal
    /// workspace (read it with [`NewtonKernel::solution`]) — no
    /// allocation at all.
    pub fn solve_in_place(
        &mut self,
        x0: &[f64],
        ctx: &StampCtx<'_>,
        options: &SimOptions,
        faults: &mut FaultSession,
    ) -> Result<usize, NewtonFailure> {
        let n = self.mna.n_unknowns;
        let nvu = self.mna.node_unknowns();
        debug_assert_eq!(x0.len(), n);
        self.x.clear();
        self.x.extend_from_slice(x0);
        let bypass_tol = options.bypass_vtol.max(0.0);
        let mut allow_bypass = bypass_tol > 0.0;
        if bypass_tol > 0.0 && faults.fire_bypass() {
            // Plant a garbage linearization (an all-zero stamp tagged at
            // the zero bias) in every device cache, armed to hit once
            // regardless of how far the solver is from that bias. The
            // confirm-iteration rule below is what must absorb it.
            for cache in &mut self.stamp_caches {
                cache.poison(MosBias::default(), MosStamp::default());
            }
        }

        for iter in 1..=options.max_newton_iters {
            self.stats.newton_iters += 1;
            let Self {
                mna,
                path,
                b,
                x,
                x_new,
                stamp_caches,
                stats,
                ..
            } = self;
            b.fill(0.0);
            let mut bypassed = false;
            let temp_k = ctx.temp_k;
            let mut eval =
                |elem_idx: usize, model: &MosModel, geom: &MosGeometry, bias: MosBias| {
                    if allow_bypass {
                        if let Some(s) = stamp_caches[elem_idx].lookup(&bias, bypass_tol) {
                            stats.device_bypasses += 1;
                            bypassed = true;
                            return s;
                        }
                    }
                    let op = model.op(geom, bias.vg, bias.vd, bias.vs, bias.vb, temp_k);
                    let s = MosStamp::from_op(&op, &bias);
                    if bypass_tol > 0.0 {
                        stamp_caches[elem_idx].store(bias, s);
                    }
                    stats.device_evals += 1;
                    s
                };
            match path {
                LinearPath::Dense { a, lu } => {
                    a.clear();
                    mna.assemble_with_eval(x, a, b, ctx, &mut eval);
                    // Ends the closure's borrow of `stats`.
                    #[allow(clippy::drop_non_drop)]
                    drop(eval);
                    if let Err(e) = a.factorize_into(lu) {
                        return Err(singular_failure(mna, None, &e));
                    }
                    stats.full_factorizations += 1;
                    lu.solve_into(b, x_new);
                }
                LinearPath::Sparse {
                    pattern,
                    map,
                    lu,
                    order,
                } => {
                    pattern.reset_values();
                    {
                        let mut sink = PatternScatter {
                            values: pattern.values_mut(),
                            map,
                            cursor: 0,
                        };
                        mna.assemble_with_eval(x, &mut sink, b, ctx, &mut eval);
                        // Pattern-drift tripwire: the stamp sequence must
                        // replay the recorded one stamp for stamp.
                        assert_eq!(
                            sink.cursor,
                            map.len(),
                            "assembly stamped a different sequence than the symbolic phase"
                        );
                    }
                    // Ends the closure's borrow of `stats`.
                    #[allow(clippy::drop_non_drop)]
                    drop(eval);
                    if let Err(e) =
                        factor_sparse(lu, pattern, options.sparse_pivot_tol, faults, stats)
                    {
                        let perm = order.as_ref().map(|o| o.perm.as_slice());
                        return Err(singular_failure(mna, perm, &e));
                    }
                    let f = lu.as_ref().expect("factorized above");
                    let solved = match order {
                        None => f.solve_into(b, x_new),
                        Some(o) => o.solve(f, b, x_new),
                    };
                    if solved.is_err() {
                        return Err(NewtonFailure::Singular(None));
                    }
                }
            }
            stats.linear_solves += 1;

            // Damped update: clamp voltage moves to tame the exponential
            // device characteristics.
            let delta = &mut self.delta;
            let x = &mut self.x;
            let x_new = &self.x_new;
            let mut clamped = false;
            for i in 0..n {
                let mut d = x_new[i] - x[i];
                if !d.is_finite() {
                    return Err(NewtonFailure::Singular(None));
                }
                if i < nvu && d.abs() > options.max_voltage_step {
                    d = d.signum() * options.max_voltage_step;
                    clamped = true;
                }
                delta[i] = d;
                x[i] += d;
            }
            if clamped {
                allow_bypass = bypass_tol > 0.0;
                continue;
            }
            let (dv, di) = delta.split_at(nvu);
            let (xv, xi) = x.split_at(nvu);
            if weighted_converged(dv, xv, options.vabstol, options.reltol)
                && weighted_converged(di, xi, options.iabstol, options.reltol)
            {
                if bypassed {
                    // A bypassed evaluation must never decide
                    // convergence: confirm with one full-evaluation
                    // iteration before accepting.
                    allow_bypass = false;
                    continue;
                }
                return Ok(iter);
            }
            allow_bypass = bypass_tol > 0.0;
        }
        Err(NewtonFailure::NoConvergence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vls_netlist::Circuit;

    /// Whether the kernel built for `c` above the sparse threshold runs
    /// a genuinely permuted order, after checking that an unpermuted
    /// path compiled exactly the natural pattern and stamp map.
    fn sparse_path_is_permuted(c: &Circuit) -> bool {
        let mna = Mna::new(c);
        let options = SimOptions {
            sparse_threshold: 0,
            ..SimOptions::default()
        };
        let kernel = NewtonKernel::new(&mna, &options, None);
        let LinearPath::Sparse {
            pattern,
            map,
            order,
            ..
        } = &kernel.path
        else {
            panic!("sparse_threshold 0 built a dense path");
        };
        if order.is_none() {
            let n = mna.n_unknowns;
            let mut t = TripletMatrix::new(n);
            let mut b = vec![0.0; n];
            let ctx = StampCtx {
                time: 0.0,
                source_scale: 0.0,
                gmin: options.gmin,
                temp_k: options.temperature.as_kelvin(),
                reactive: None,
            };
            mna.assemble_with_eval(&vec![0.0; n], &mut t, &mut b, &ctx, &mut |_, _, _, _| {
                MosStamp::default()
            });
            let (natural, natural_map) = t.compile();
            assert_eq!(pattern.col_ptr(), natural.col_ptr());
            assert_eq!(pattern.row_indices(), natural.row_indices());
            assert_eq!(map, &natural_map);
        }
        order.is_some()
    }

    #[test]
    fn identity_ordering_compiles_the_natural_pattern() {
        // A resistor chain driven by a current source: tridiagonal, so
        // minimum degree eliminates it front to back.
        let mut c = Circuit::new();
        let nodes: Vec<_> = (0..6).map(|k| c.node(&format!("n{k}"))).collect();
        c.add_isource(
            "i1",
            Circuit::GROUND,
            nodes[0],
            vls_device::SourceWaveform::Dc(1e-3),
        );
        for (k, w) in nodes.windows(2).enumerate() {
            c.add_resistor(&format!("r{k}"), w[0], w[1], 1e3);
        }
        c.add_resistor("rl", nodes[5], Circuit::GROUND, 1e3);
        assert!(!sparse_path_is_permuted(&c));
    }

    #[test]
    fn hub_nodes_take_the_permuted_path() {
        // A voltage-source rail feeding a fan of loads: the rail row is
        // a hub created first, which minimum degree defers to the end.
        let mut c = Circuit::new();
        let rail = c.node("rail");
        c.add_vsource(
            "v1",
            rail,
            Circuit::GROUND,
            vls_device::SourceWaveform::Dc(1.0),
        );
        for k in 0..5 {
            let n = c.node(&format!("n{k}"));
            c.add_resistor(&format!("r{k}"), rail, n, 1e3);
            c.add_resistor(&format!("rl{k}"), n, Circuit::GROUND, 1e3);
        }
        assert!(sparse_path_is_permuted(&c));
    }
}
