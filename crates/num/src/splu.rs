//! Left-looking sparse LU factorization (Gilbert–Peierls) with partial
//! pivoting, in the style of CSparse's `cs_lu`.
//!
//! For each column `k` the sparse triangular system `L·x = A(:,k)` is
//! solved symbolically (depth-first reachability over the structure of
//! the already-computed part of `L`) and numerically in one pass; the
//! result splits into the new column of `U` (already-pivotal rows) and
//! the new column of `L` (the rest, scaled by the chosen pivot).
//!
//! A diagonal-preference pivot tolerance is supported because MNA
//! matrices are close to diagonally dominant and preserving the diagonal
//! keeps fill-in low.

use crate::{CscMatrix, NumError};

/// Sparse LU factors of a [`CscMatrix`]: `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Column-major L, unit diagonal stored explicitly as first entry,
    /// rows renumbered into pivot order.
    l_ptr: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<f64>,
    /// Column-major U, diagonal stored as last entry of each column.
    u_ptr: Vec<usize>,
    u_row: Vec<usize>,
    u_val: Vec<f64>,
    /// `pinv[original_row] = pivot position`.
    pinv: Vec<usize>,
    /// Dense workspace reused by [`SparseLu::refactorize`].
    scratch: Vec<f64>,
    /// One-shot fault-injection latch: when set, the next
    /// [`SparseLu::refactorize`] reports a pivot-health failure before
    /// touching the factors. See [`SparseLu::degrade_pivot_health`].
    degraded: bool,
}

impl SparseLu {
    /// Factorizes with strict partial pivoting (tolerance 1.0).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] if some column has no usable pivot.
    pub fn factorize(a: &CscMatrix) -> Result<Self, NumError> {
        Self::factorize_with_tolerance(a, 1.0)
    }

    /// Factorizes with diagonal-preference pivoting: the diagonal entry
    /// is kept as pivot whenever its magnitude is at least `tol` times
    /// the column maximum. `tol = 1.0` is strict partial pivoting;
    /// SPICE-like engines typically use `1e-3`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] if some column has no usable pivot.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not in `(0, 1]`.
    pub fn factorize_with_tolerance(a: &CscMatrix, tol: f64) -> Result<Self, NumError> {
        assert!(tol > 0.0 && tol <= 1.0, "pivot tolerance must be in (0, 1]");
        let n = a.dim();
        const NOT_PIVOTAL: usize = usize::MAX;
        let mut pinv = vec![NOT_PIVOTAL; n];
        // Growable per-column factors; flattened at the end.
        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);

        let mut x = vec![0.0f64; n]; // dense scratch
        let mut mark = vec![usize::MAX; n]; // column stamp for visited flags
        let mut topo: Vec<usize> = Vec::with_capacity(n); // reverse postorder
        let mut stack: Vec<(usize, usize)> = Vec::new();

        for k in 0..n {
            // --- symbolic: reachability of A(:,k)'s pattern through L ---
            topo.clear();
            let a_lo = a.col_ptr()[k];
            let a_hi = a.col_ptr()[k + 1];
            for &seed in &a.row_indices()[a_lo..a_hi] {
                if mark[seed] == k {
                    continue;
                }
                // Iterative DFS; children of node i are the rows of
                // L(:, pinv[i]) when row i is already pivotal.
                stack.push((seed, 0));
                mark[seed] = k;
                while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                    let col = pinv[node];
                    let kids: &[(usize, f64)] = if col == NOT_PIVOTAL {
                        &[]
                    } else {
                        &l_cols[col]
                    };
                    let mut descended = false;
                    while *child < kids.len() {
                        let next = kids[*child].0;
                        *child += 1;
                        if mark[next] != k {
                            mark[next] = k;
                            stack.push((next, 0));
                            descended = true;
                            break;
                        }
                    }
                    if !descended {
                        topo.push(node);
                        stack.pop();
                    }
                }
            }
            // topo is in postorder; reverse gives topological order.
            topo.reverse();

            // --- numeric: x = L \ A(:,k) over the computed pattern ---
            for &i in &topo {
                x[i] = 0.0;
            }
            for idx in a_lo..a_hi {
                x[a.row_indices()[idx]] = a.values()[idx];
            }
            for &j in &topo {
                let col = pinv[j];
                if col == NOT_PIVOTAL {
                    continue;
                }
                let xj = x[j]; // L diagonal is 1.0, no division needed
                if xj == 0.0 {
                    continue;
                }
                for &(r, v) in l_cols[col].iter().skip(1) {
                    x[r] -= v * xj;
                }
            }

            // --- pivot selection ---
            let mut best_row = NOT_PIVOTAL;
            let mut best_mag = 0.0f64;
            let mut u_col: Vec<(usize, f64)> = Vec::new();
            for &i in &topo {
                if pinv[i] == NOT_PIVOTAL {
                    let mag = x[i].abs();
                    if mag > best_mag {
                        best_mag = mag;
                        best_row = i;
                    }
                } else {
                    u_col.push((pinv[i], x[i]));
                }
            }
            if best_row == NOT_PIVOTAL || best_mag <= 0.0 {
                return Err(NumError::Singular(k));
            }
            // Diagonal preference: keep A's own diagonal when acceptable.
            if pinv[k] == NOT_PIVOTAL && x[k].abs() >= tol * best_mag && x[k] != 0.0 {
                best_row = k;
            }
            let pivot = x[best_row];
            u_col.push((k, pivot)); // U diagonal last
            pinv[best_row] = k;

            let mut l_col: Vec<(usize, f64)> = Vec::new();
            l_col.push((best_row, 1.0)); // unit diagonal first
            for &i in &topo {
                // Keep numerically-zero entries: the stored pattern must
                // stay the full structural reach set so a later
                // refactorization with different values can reuse it.
                if pinv[i] == NOT_PIVOTAL {
                    l_col.push((i, x[i] / pivot));
                }
                x[i] = 0.0;
            }
            x[best_row] = 0.0;
            l_cols.push(l_col);
            u_cols.push(u_col);
        }

        // Renumber L's row indices into pivot order so L is truly lower
        // triangular, then flatten both factors.
        let mut l_ptr = vec![0usize; n + 1];
        let mut l_row = Vec::new();
        let mut l_val = Vec::new();
        for (j, col) in l_cols.iter().enumerate() {
            for &(r, v) in col {
                l_row.push(pinv[r]);
                l_val.push(v);
            }
            l_ptr[j + 1] = l_row.len();
        }
        let mut u_ptr = vec![0usize; n + 1];
        let mut u_row = Vec::new();
        let mut u_val = Vec::new();
        for (j, col) in u_cols.iter().enumerate() {
            for &(r, v) in col {
                u_row.push(r);
                u_val.push(v);
            }
            u_ptr[j + 1] = u_row.len();
        }
        Ok(Self {
            n,
            l_ptr,
            l_row,
            l_val,
            u_ptr,
            u_row,
            u_val,
            pinv,
            // `x` ends the elimination fully zeroed; recycle it as the
            // refactorization workspace.
            scratch: x,
            degraded: false,
        })
    }

    /// Numeric-only refactorization: recomputes the factor values for a
    /// matrix with the **same sparsity pattern** as the one originally
    /// factorized, reusing the frozen pivot order and symbolic
    /// structure. No reachability search, no pivot search, and no
    /// allocation — this is the per-iteration hot path of a solver that
    /// factorizes the same topology thousands of times.
    ///
    /// A pivot-magnitude health check guards the frozen order: at each
    /// column the retained pivot must satisfy
    /// `|pivot| ≥ tol · max|candidate|` over the rows that were eligible
    /// in the original factorization. When the values have drifted far
    /// enough that this fails (or a pivot becomes exactly zero), the
    /// factors are left partially updated and an error is returned; the
    /// caller is expected to fall back to a full re-pivoting
    /// [`SparseLu::factorize_with_tolerance`].
    ///
    /// When the check passes everywhere, the result is identical — to
    /// the last bit — to a full factorization that happens to choose
    /// the same pivots, because the stored column order replays the
    /// original elimination's topological update order.
    ///
    /// # Errors
    ///
    /// [`NumError::DimensionMismatch`] if `a` has a different dimension;
    /// [`NumError::Singular`] (with the failing column) when the
    /// pivot-health check trips.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not in `(0, 1]`, or if `a` contains an entry
    /// outside the factorized pattern (debug builds only; release
    /// builds would silently mis-scatter, so callers must keep the
    /// pattern frozen).
    pub fn refactorize(&mut self, a: &CscMatrix, tol: f64) -> Result<(), NumError> {
        assert!(tol > 0.0 && tol <= 1.0, "pivot tolerance must be in (0, 1]");
        if a.dim() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                found: a.dim(),
            });
        }
        if self.degraded {
            // Injected degradation: behave exactly like a column-0
            // health-check trip, without touching the stored factors.
            self.degraded = false;
            return Err(NumError::Singular(0));
        }
        let n = self.n;
        let mut y = std::mem::take(&mut self.scratch);
        y.resize(n, 0.0);
        for k in 0..n {
            // The pivot-space reach of column k is exactly the union of
            // the stored U rows (pivotal part, diagonal included) and L
            // rows (sub-diagonal part plus the diagonal's unit entry).
            for p in self.u_ptr[k]..self.u_ptr[k + 1] {
                y[self.u_row[p]] = 0.0;
            }
            for p in self.l_ptr[k]..self.l_ptr[k + 1] {
                y[self.l_row[p]] = 0.0;
            }
            for p in a.col_ptr()[k]..a.col_ptr()[k + 1] {
                let r = self.pinv[a.row_indices()[p]];
                debug_assert!(
                    {
                        let in_u = self.u_row[self.u_ptr[k]..self.u_ptr[k + 1]].contains(&r);
                        let in_l = self.l_row[self.l_ptr[k]..self.l_ptr[k + 1]].contains(&r);
                        in_u || in_l
                    },
                    "entry ({r},{k}) outside the factorized pattern"
                );
                y[r] = a.values()[p];
            }
            // Replay the elimination over U's stored (topological)
            // column order; the update order is bitwise-identical to
            // the original left-looking pass.
            let diag_pos = self.u_ptr[k + 1] - 1;
            for p in self.u_ptr[k]..diag_pos {
                let j = self.u_row[p];
                let yj = y[j];
                self.u_val[p] = yj;
                if yj == 0.0 {
                    continue;
                }
                for q in (self.l_ptr[j] + 1)..self.l_ptr[j + 1] {
                    y[self.l_row[q]] -= self.l_val[q] * yj;
                }
            }
            // Frozen pivot with health check against the rows that were
            // pivot candidates in the original factorization.
            let pivot = y[k];
            let mut best_mag = pivot.abs();
            for q in (self.l_ptr[k] + 1)..self.l_ptr[k + 1] {
                best_mag = best_mag.max(y[self.l_row[q]].abs());
            }
            if pivot == 0.0 || pivot.abs() < tol * best_mag {
                self.scratch = y;
                return Err(NumError::Singular(k));
            }
            self.u_val[diag_pos] = pivot;
            for q in (self.l_ptr[k] + 1)..self.l_ptr[k + 1] {
                self.l_val[q] = y[self.l_row[q]] / pivot;
            }
        }
        self.scratch = y;
        Ok(())
    }

    /// Arms a one-shot injected pivot-health failure: the next
    /// [`SparseLu::refactorize`] returns `Err(NumError::Singular(0))`
    /// without modifying the factors, exactly as if the incoming values
    /// had drifted past the health tolerance. The latch clears on that
    /// call, so the caller's natural fallback (a full re-pivoting
    /// factorization followed by resumed reuse) is exercised end to
    /// end. Fault-injection hook; never set on production paths.
    pub fn degrade_pivot_health(&mut self) {
        self.degraded = true;
    }

    /// The factorized dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total nonzeros in `L + U` (a fill-in metric).
    pub fn factor_nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`SparseLu::solve`] into a caller-owned output buffer — the
    /// allocation-free variant for solvers that reuse workspaces. Every
    /// element of `x` is overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `b` or `x` has the
    /// wrong length.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumError> {
        if b.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        if x.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                found: x.len(),
            });
        }
        let n = self.n;
        // x = P·b (the permutation writes every slot).
        for (i, &bi) in b.iter().enumerate() {
            x[self.pinv[i]] = bi;
        }
        // Forward substitution: L has unit diagonal stored first.
        for j in 0..n {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for p in (self.l_ptr[j] + 1)..self.l_ptr[j + 1] {
                x[self.l_row[p]] -= self.l_val[p] * xj;
            }
        }
        // Backward substitution: U diagonal is the last entry per column.
        for j in (0..n).rev() {
            let diag_pos = self.u_ptr[j + 1] - 1;
            let xj = x[j] / self.u_val[diag_pos];
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for p in self.u_ptr[j]..diag_pos {
                x[self.u_row[p]] -= self.u_val[p] * xj;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseMatrix, TripletMatrix};

    fn solve_both_ways(t: &TripletMatrix, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let csc = t.to_csc();
        let xs = SparseLu::factorize(&csc).unwrap().solve(b).unwrap();
        let xd = csc.to_dense().solve(b).unwrap();
        (xs, xd)
    }

    #[test]
    fn diagonal_system() {
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 2.0);
        t.add(1, 1, 4.0);
        t.add(2, 2, 8.0);
        let (xs, _) = solve_both_ways(&t, &[2.0, 4.0, 8.0]);
        assert_eq!(xs, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn matches_dense_on_structured_system() {
        let mut t = TripletMatrix::new(4);
        // An MNA-like pattern: diagonally dominant with couplings.
        t.add(0, 0, 3.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 4.0);
        t.add(1, 2, -2.0);
        t.add(2, 1, -2.0);
        t.add(2, 2, 5.0);
        t.add(2, 3, -1.0);
        t.add(3, 2, -1.0);
        t.add(3, 3, 2.0);
        let (xs, xd) = solve_both_ways(&t, &[1.0, -2.0, 3.0, 0.5]);
        for (a, b) in xs.iter().zip(xd.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the diagonal; solvable only with row exchange.
        let mut t = TripletMatrix::new(2);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        let (xs, _) = solve_both_ways(&t, &[5.0, 7.0]);
        assert_eq!(xs, vec![7.0, 5.0]);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 1, 2.0);
        // Row 1 empty → structurally singular.
        let csc = t.to_csc();
        assert!(matches!(
            SparseLu::factorize(&csc),
            Err(NumError::Singular(_))
        ));
    }

    #[test]
    fn diagonal_preference_keeps_diagonal_pivot() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 0, 2.0); // larger off-diagonal
        t.add(0, 1, 1.0);
        t.add(1, 1, 5.0);
        let csc = t.to_csc();
        let strict = SparseLu::factorize_with_tolerance(&csc, 1.0).unwrap();
        let relaxed = SparseLu::factorize_with_tolerance(&csc, 0.1).unwrap();
        // Both must solve correctly regardless of pivot choice.
        let b = [3.0, 12.0];
        for lu in [&strict, &relaxed] {
            let x = lu.solve(&b).unwrap();
            let r = csc.mul_vec(&x).unwrap();
            assert!((r[0] - b[0]).abs() < 1e-12 && (r[1] - b[1]).abs() < 1e-12);
        }
        // With relaxed tolerance the diagonal is kept: pinv is identity.
        assert_eq!(relaxed.pinv, vec![0, 1]);
        // Strict partial pivoting swaps.
        assert_eq!(strict.pinv, vec![1, 0]);
    }

    #[test]
    fn random_systems_match_dense() {
        use crate::rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        for trial in 0..50 {
            let n = 2 + rng.gen_index(18);
            let mut t = TripletMatrix::new(n);
            let mut dense_check = DenseMatrix::zeros(n);
            for i in 0..n {
                // Ensure nonsingularity via dominant diagonal.
                let d = rng.gen_range(1.0, 10.0) + n as f64;
                t.add(i, i, d);
                dense_check.add(i, i, d);
                for _ in 0..rng.gen_index(4) {
                    let j = rng.gen_index(n);
                    let v = rng.gen_range(-1.0, 1.0);
                    t.add(i, j, v);
                    dense_check.add(i, j, v);
                }
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0, 5.0)).collect();
            let csc = t.to_csc();
            let xs = SparseLu::factorize(&csc).unwrap().solve(&b).unwrap();
            let xd = dense_check.solve(&b).unwrap();
            for (a, bb) in xs.iter().zip(xd.iter()) {
                assert!((a - bb).abs() < 1e-9, "trial {trial}: {a} vs {bb}");
            }
        }
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        let lu = SparseLu::factorize(&t.to_csc()).unwrap();
        assert!(matches!(
            lu.solve(&[1.0]),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactorize_matches_full_factorization_bitwise() {
        use crate::rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for trial in 0..25 {
            let n = 3 + rng.gen_index(15);
            // Build one structure, then refresh its values and compare a
            // refactorization against a from-scratch factorization.
            let mut coords: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            for i in 0..n {
                for _ in 0..rng.gen_index(4) {
                    coords.push((i, rng.gen_index(n)));
                }
            }
            let fill = |rng: &mut Xoshiro256pp| {
                let mut t = TripletMatrix::new(n);
                for &(r, c) in &coords {
                    let v = if r == c {
                        rng.gen_range(1.0, 10.0) + n as f64
                    } else {
                        rng.gen_range(-1.0, 1.0)
                    };
                    t.add(r, c, v);
                }
                t.to_csc()
            };
            let first = fill(&mut rng);
            let mut lu = SparseLu::factorize_with_tolerance(&first, 1e-3).unwrap();
            for _ in 0..3 {
                let refreshed = fill(&mut rng);
                lu.refactorize(&refreshed, 1e-3).unwrap();
                let full = SparseLu::factorize_with_tolerance(&refreshed, 1e-3).unwrap();
                // Diagonal dominance keeps the pivot order identical, so
                // the replayed elimination must agree to the last bit.
                assert_eq!(lu.pinv, full.pinv, "trial {trial}: pivot order changed");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&lu.l_val),
                    bits(&full.l_val),
                    "trial {trial}: L differs"
                );
                assert_eq!(
                    bits(&lu.u_val),
                    bits(&full.u_val),
                    "trial {trial}: U differs"
                );
            }
        }
    }

    #[test]
    fn refactorize_health_check_rejects_degraded_pivots() {
        // Factorize with a dominant diagonal, then refresh with values
        // that make the frozen diagonal pivot tiny relative to the
        // off-diagonal candidate: the health check must trip.
        let mut good = TripletMatrix::new(2);
        good.add(0, 0, 10.0);
        good.add(1, 0, 1.0);
        good.add(0, 1, 1.0);
        good.add(1, 1, 10.0);
        let mut lu = SparseLu::factorize_with_tolerance(&good.to_csc(), 1e-3).unwrap();

        let mut bad = TripletMatrix::new(2);
        bad.add(0, 0, 1e-9);
        bad.add(1, 0, 1.0);
        bad.add(0, 1, 1.0);
        bad.add(1, 1, 10.0);
        assert!(matches!(
            lu.refactorize(&bad.to_csc(), 1e-3),
            Err(NumError::Singular(0))
        ));
        // The fallback path: a full factorization still solves it.
        let full = SparseLu::factorize_with_tolerance(&bad.to_csc(), 1e-3).unwrap();
        let x = full.solve(&[1.0, 2.0]).unwrap();
        let r = bad.to_csc().mul_vec(&x).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-9 && (r[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn refactorize_rejects_exactly_singular_values() {
        let mut good = TripletMatrix::new(2);
        good.add(0, 0, 2.0);
        good.add(1, 1, 3.0);
        let mut lu = SparseLu::factorize(&good.to_csc()).unwrap();
        let mut zeroed = TripletMatrix::new(2);
        zeroed.add(0, 0, 0.0);
        zeroed.add(1, 1, 3.0);
        assert!(matches!(
            lu.refactorize(&zeroed.to_csc(), 1.0),
            Err(NumError::Singular(0))
        ));
    }

    #[test]
    fn refactorize_rejects_dimension_mismatch() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 1, 1.0);
        let mut lu = SparseLu::factorize(&t.to_csc()).unwrap();
        let other = TripletMatrix::new(3).to_csc();
        assert!(matches!(
            lu.refactorize(&other, 1.0),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_into_matches_solve() {
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 3.0);
        t.add(0, 1, -1.0);
        t.add(1, 0, -1.0);
        t.add(1, 1, 4.0);
        t.add(2, 2, 5.0);
        let lu = SparseLu::factorize(&t.to_csc()).unwrap();
        let b = [1.0, -2.0, 3.0];
        let alloc = lu.solve(&b).unwrap();
        let mut reused = vec![f64::NAN; 3]; // stale garbage must be overwritten
        lu.solve_into(&b, &mut reused).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&alloc), bits(&reused));
        assert!(matches!(
            lu.solve_into(&b, &mut [0.0; 2]),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn degrade_pivot_health_is_one_shot() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 2.0);
        t.add(1, 1, 3.0);
        let csc = t.to_csc();
        let mut lu = SparseLu::factorize(&csc).unwrap();
        lu.degrade_pivot_health();
        assert!(matches!(
            lu.refactorize(&csc, 1.0),
            Err(NumError::Singular(0))
        ));
        // The latch clears and the factors are untouched: the next
        // refactorization succeeds and still solves exactly.
        lu.refactorize(&csc, 1.0).unwrap();
        assert_eq!(lu.solve(&[2.0, 3.0]).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn fill_in_metric_is_reported() {
        let mut t = TripletMatrix::new(3);
        for i in 0..3 {
            t.add(i, i, 2.0);
        }
        let lu = SparseLu::factorize(&t.to_csc()).unwrap();
        assert_eq!(lu.factor_nnz(), 6); // 3 unit-diag L + 3 diag U
        assert_eq!(lu.dim(), 3);
    }

    #[test]
    fn singleton_matrix_factorizes_and_zero_singleton_is_typed() {
        let mut t = TripletMatrix::new(1);
        t.add(0, 0, 4.0);
        let lu = SparseLu::factorize(&t.to_csc()).unwrap();
        assert_eq!(lu.solve(&[8.0]).unwrap(), vec![2.0]);
        assert_eq!(lu.factor_nnz(), 2); // unit L diag + U diag
        let mut z = TripletMatrix::new(1);
        z.add(0, 0, 0.0);
        assert!(matches!(
            SparseLu::factorize(&z.to_csc()),
            Err(NumError::Singular(0))
        ));
    }

    #[test]
    fn empty_column_is_a_typed_structural_singularity() {
        // Column 1 has no entries at all: the elimination reaches it
        // with an empty candidate set and must report a typed error —
        // no panic, no index arithmetic on an empty reach.
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 1.0);
        t.add(2, 2, 1.0);
        t.add(2, 0, -1.0);
        assert!(matches!(
            SparseLu::factorize(&t.to_csc()),
            Err(NumError::Singular(1))
        ));
    }

    #[test]
    fn empty_row_is_a_typed_structural_singularity() {
        // Row 1 never appears: every column factorizes until the
        // pivot for the empty row is demanded.
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 1.0);
        t.add(0, 1, 2.0);
        t.add(2, 1, 1.0);
        t.add(2, 2, 1.0);
        assert!(matches!(
            SparseLu::factorize(&t.to_csc()),
            Err(NumError::Singular(_))
        ));
    }

    #[test]
    fn duplicate_triplets_accumulate_identically_through_compile_and_ordered_compile() {
        // The same stamp sequence with duplicates, assembled three
        // ways: to_csc, compile+scatter, compile_ordered+scatter (the
        // last permuted back). All must agree exactly.
        let mut t = TripletMatrix::new(4);
        let stamps = [
            (0usize, 0usize, 2.0),
            (0, 0, 1.5),
            (1, 1, 4.0),
            (2, 2, 5.0),
            (3, 3, 6.0),
            (1, 0, -1.0),
            (1, 0, -0.5),
            (0, 1, -1.5),
            (3, 2, -2.0),
            (2, 3, -2.0),
            (3, 3, 0.25),
        ];
        for &(r, c, v) in &stamps {
            t.add(r, c, v);
        }
        let reference = t.to_csc();
        let (mut pat, map) = t.compile();
        pat.reset_values();
        for (&slot, &(_, _, v)) in map.iter().zip(&stamps) {
            pat.values_mut()[slot] += v;
        }
        assert_eq!(pat, reference);
        let (mut opat, omap, operm) = t.compile_ordered();
        opat.reset_values();
        for (&slot, &(_, _, v)) in omap.iter().zip(&stamps) {
            opat.values_mut()[slot] += v;
        }
        let back = crate::order::invert_permutation(&operm);
        // opat is P·A·Pᵀ: check entry by entry through the permutation.
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(opat.get(back[r], back[c]), reference.get(r, c));
            }
        }
    }
}
