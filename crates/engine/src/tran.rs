//! Transient analysis: trapezoidal/backward-Euler companion integration
//! with local-truncation-error step control and source breakpoints.
//!
//! Reactive elements (explicit capacitors and the Meyer capacitances of
//! every MOSFET) are replaced at each time step by companion models
//! `i = geq·v − ieq`; the resulting resistive network is solved by the
//! same damped Newton iteration as the DC analysis, warm-started from
//! the previous time point. The step size adapts to hold the
//! disagreement between the predictor (polynomial extrapolation) and
//! the corrector below `SimOptions::lte_tol`; steps are forced to land
//! on every source breakpoint so input edges are never straddled.
//! Because the stepper drops its history at a breakpoint, a run whose
//! stimuli share a prefix can be simulated once up to a shared
//! breakpoint and forked there ([`run_transient_forked`]).
//!
//! Integration uses a θ-damped trapezoid (θ = 0.55): plain trapezoidal
//! integration is only marginally stable and lets capacitor-current
//! ringing persist forever on quiet plateaus, which would corrupt the
//! nanoamp-level leakage extraction this workspace depends on. The
//! slight damping decays the ringing while keeping near-second-order
//! accuracy; on plateaus (steps cruising at the maximum size) the
//! engine additionally drops to backward Euler, which kills any
//! residual oscillation outright where accuracy is free.

use vls_device::{MosBias, SourceWaveform};
use vls_fault::FaultSession;
use vls_netlist::{Circuit, Element, NodeId};
use vls_num::SolverStats;

use crate::dc::{solve_dc_at, DcSolution};
use crate::kernel::NewtonKernel;
use crate::mna::{CompanionCap, Mna, StampCtx};
use crate::{EngineError, SimOptions};

/// The sampled result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `samples[k]` is the full unknown vector at `times[k]`.
    samples: Vec<Vec<f64>>,
    n_node_unknowns: usize,
    branch_names: Vec<String>,
    stats: SolverStats,
}

impl TransientResult {
    /// The sample times, ascending, starting at 0.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were stored (never the case for a
    /// successful run, which stores at least the DC point).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The voltage waveform of `node`, aligned with [`Self::times`].
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the simulated circuit.
    pub fn node_series(&self, node: NodeId) -> Vec<f64> {
        if node.is_ground() {
            return vec![0.0; self.times.len()];
        }
        let i = node.index() - 1;
        assert!(i < self.n_node_unknowns, "node outside circuit");
        self.samples.iter().map(|s| s[i]).collect()
    }

    /// The branch-current waveform of the named voltage source (SPICE
    /// convention: positive from `+` through the source to `−`).
    pub fn branch_series(&self, source_name: &str) -> Option<Vec<f64>> {
        let pos = self.branch_names.iter().position(|n| n == source_name)?;
        let idx = self.n_node_unknowns + pos;
        Some(self.samples.iter().map(|s| s[idx]).collect())
    }

    /// The last sampled voltage at `node`.
    ///
    /// # Panics
    ///
    /// Panics if the result is empty or the node is foreign.
    pub fn final_voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            return 0.0;
        }
        self.samples.last().expect("nonempty result")[node.index() - 1]
    }

    /// Work counters accumulated over the whole run — the initial DC
    /// solve (when any) plus every transient Newton solve.
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }
}

/// Integration damping: θ = 0.5 is plain trapezoid, 1.0 is backward
/// Euler. 0.55 decays plateau ringing while staying near second order.
const THETA: f64 = 0.55;

/// One dynamic (capacitive) branch tracked across steps.
#[derive(Clone)]
struct DynamicCap {
    a: Option<usize>,
    b: Option<usize>,
    /// Capacitance for the current step, F.
    c: f64,
    /// Branch voltage at the previous accepted time point.
    v_prev: f64,
    /// Branch current at the previous accepted time point (trapezoidal
    /// history).
    i_prev: f64,
}

/// Per-MOSFET bookkeeping for the five Meyer capacitances.
#[derive(Clone)]
struct MosCapsRef {
    elem_idx: usize,
    /// Indices into the dynamic-cap array: gs, gd, gb, db, sb.
    slots: [usize; 5],
}

/// Runs a transient analysis from `t = 0` to `tstop`.
///
/// The initial condition is the DC operating point with sources
/// evaluated at `t = 0`. Returns the sampled waveforms of every node
/// and every voltage-source branch current.
///
/// # Errors
///
/// Propagates DC failures, and reports
/// [`EngineError::StepUnderflow`] when Newton cannot converge even at
/// the minimum step size.
///
/// # Panics
///
/// Panics if `tstop` is not strictly positive and finite.
pub fn run_transient(
    circuit: &Circuit,
    tstop: f64,
    options: &SimOptions,
) -> Result<TransientResult, EngineError> {
    assert!(
        tstop > 0.0 && tstop.is_finite(),
        "tstop must be positive, got {tstop}"
    );
    let dc: DcSolution = solve_dc_at(circuit, options, 0.0)?;
    let dc_stats = dc.solver_stats();
    transient_from_state(circuit, tstop, options, dc.unknowns().to_vec(), dc_stats)
}

/// Runs a transient from user-supplied initial conditions instead of
/// the DC operating point — SPICE's `.tran … UIC` with `.ic` cards.
/// Nodes named in `ics` start at the given voltages; every other node
/// (and every branch current) starts at zero. The first time step
/// reconciles the state with the sources, exactly as SPICE's UIC does.
///
/// # Errors
///
/// As [`run_transient`], minus the DC stage (which UIC skips).
///
/// # Panics
///
/// Panics if `tstop` is not strictly positive and finite.
pub fn run_transient_uic(
    circuit: &Circuit,
    tstop: f64,
    options: &SimOptions,
    ics: &[(NodeId, f64)],
) -> Result<TransientResult, EngineError> {
    assert!(
        tstop > 0.0 && tstop.is_finite(),
        "tstop must be positive, got {tstop}"
    );
    crate::preflight(circuit, options)?;
    let mna = Mna::new(circuit);
    let mut x0 = vec![0.0; mna.n_unknowns];
    for (node, v) in ics {
        if let Some(i) = mna.idx(*node) {
            x0[i] = *v;
        }
    }
    transient_from_state(circuit, tstop, options, x0, SolverStats::default())
}

/// The results of [`run_transient_forked`]: one transient per circuit,
/// all sharing one simulated prefix.
#[derive(Debug, Clone)]
pub struct ForkedTransient {
    branches: Vec<Result<TransientResult, EngineError>>,
    stats: SolverStats,
}

impl ForkedTransient {
    /// One outcome per circuit, in the order the circuits were given.
    /// A branch that failed after the fork holds its own error; its
    /// siblings are unaffected.
    pub fn into_branches(self) -> Vec<Result<TransientResult, EngineError>> {
        self.branches
    }

    /// Work counters of the whole call: the initial DC solve and the
    /// shared prefix counted once, plus every branch's own stepping
    /// (failed branches included).
    pub fn solver_stats(&self) -> SolverStats {
        self.stats
    }
}

/// Runs one transient prefix up to the breakpoint `fork_at`, then
/// continues each circuit of `circuits` from the state the prefix
/// reached, to `tstop`.
///
/// The circuits must share one MNA layout — the same nodes and the
/// same elements with the same values, in the same order — and may
/// differ only in independent-source waveforms that agree up to the
/// fork. A source that differs must be piecewise linear in every
/// circuit, with identical corners up to and including one at
/// `fork_at`, so its value on `[0, fork_at]` is the same in all of
/// them. Every circuit then takes the same steps up to the fork, and at
/// a breakpoint the stepper has already reset its step size,
/// integration order and predictor history. What a branch inherits is
/// therefore small: the time and unknowns, each companion capacitor's
/// voltage and current history, the step-attempt count (the
/// [`SimOptions::step_budget`] keeps counting), the fault-session
/// position, and the Newton kernel's factors and caches.
///
/// Branch `k` equals `run_transient(circuits[k], tstop, options)` bit
/// for bit: its samples start with the shared prefix and its
/// [`TransientResult::solver_stats`] count the prefix as an
/// uninterrupted run would. [`ForkedTransient::solver_stats`] counts
/// the prefix once.
///
/// # Errors
///
/// [`EngineError::BadFork`] when `circuits` is empty, `fork_at` is not
/// inside `(0, tstop)` or is not a breakpoint of the first circuit, or
/// a circuit's layout or sources do not match the first one's as
/// described above. Preflight, DC and prefix failures are the whole
/// call's error; a failure after the fork is that branch's entry in
/// [`ForkedTransient::into_branches`].
pub fn run_transient_forked(
    circuits: &[&Circuit],
    fork_at: f64,
    tstop: f64,
    options: &SimOptions,
) -> Result<ForkedTransient, EngineError> {
    let Some((&first, rest)) = circuits.split_first() else {
        return Err(EngineError::BadFork("no circuits to fork".into()));
    };
    if !(tstop.is_finite() && fork_at > 0.0 && fork_at < tstop) {
        return Err(EngineError::BadFork(format!(
            "fork time {fork_at:e} s is not inside (0, {tstop:e}) s"
        )));
    }
    if !breakpoints(first, tstop).contains(&fork_at) {
        return Err(EngineError::BadFork(format!(
            "fork time {fork_at:e} s is not a source breakpoint"
        )));
    }
    for (k, c) in rest.iter().enumerate() {
        if let Some(why) = fork_mismatch(first, c, fork_at) {
            return Err(EngineError::BadFork(format!("circuit {}: {why}", k + 1)));
        }
        crate::preflight(c, options)?;
    }
    let dc = solve_dc_at(first, options, 0.0)?;
    let mnas: Vec<Mna> = circuits.iter().map(|c| Mna::new(c)).collect();
    let mut prefix = Stepper::new(
        first,
        &mnas[0],
        options,
        tstop,
        dc.unknowns().to_vec(),
        dc.solver_stats(),
    );
    prefix.run_until(fork_at, options)?;
    let mut stats = prefix.stats();
    let prefix_fired = prefix.state.faults.fired();
    let branches = circuits
        .iter()
        .zip(&mnas)
        .map(|(c, mna)| {
            let mut branch = prefix.fork(c, mna);
            let outcome = branch.run_until(tstop, options);
            stats.merge(&branch.kernel.stats());
            stats.injected_faults += branch.state.faults.fired() - prefix_fired;
            outcome.map(|()| branch.finish())
        })
        .collect();
    Ok(ForkedTransient { branches, stats })
}

/// Why `b` cannot continue a prefix simulated on `a` up to `fork_at`,
/// or `None` when it can (see [`run_transient_forked`]).
fn fork_mismatch(a: &Circuit, b: &Circuit, fork_at: f64) -> Option<String> {
    if a.node_count() != b.node_count() || a.elements().len() != b.elements().len() {
        return Some("the MNA layouts differ".into());
    }
    for (ea, eb) in a.elements().iter().zip(b.elements()) {
        match (ea, eb) {
            (
                Element::VoltageSource {
                    name,
                    pos,
                    neg,
                    wave,
                },
                Element::VoltageSource {
                    name: name_b,
                    pos: pos_b,
                    neg: neg_b,
                    wave: wave_b,
                },
            )
            | (
                Element::CurrentSource {
                    name,
                    pos,
                    neg,
                    wave,
                },
                Element::CurrentSource {
                    name: name_b,
                    pos: pos_b,
                    neg: neg_b,
                    wave: wave_b,
                },
            ) => {
                if (name, pos, neg) != (name_b, pos_b, neg_b) {
                    return Some(format!("the MNA layouts differ at source {name}"));
                }
                if !waves_agree_until(wave, wave_b, fork_at) {
                    return Some(format!("source {name} differs before the fork"));
                }
            }
            _ if ea == eb => {}
            _ => return Some(format!("the MNA layouts differ at element {}", ea.name())),
        }
    }
    None
}

/// Whether two source waveforms take bit-identical values on
/// `[0, fork_at]`: they are equal, or both are piecewise linear with
/// the same corners up to and including one at `fork_at` (a PWL value
/// there depends on no later corner).
fn waves_agree_until(a: &SourceWaveform, b: &SourceWaveform, fork_at: f64) -> bool {
    fn head(w: &SourceWaveform, fork_at: f64) -> Option<&[(f64, f64)]> {
        let SourceWaveform::Pwl(points) = w else {
            return None;
        };
        let k = points.iter().position(|&(t, _)| t == fork_at)?;
        Some(&points[..=k])
    }
    a == b || matches!((head(a, fork_at), head(b, fork_at)), (Some(x), Some(y)) if x == y)
}

/// The stepper's breakpoints for `circuit` over `(0, tstop]`: every
/// source corner plus `tstop`, sorted, near-duplicates merged.
fn breakpoints(circuit: &Circuit, tstop: f64) -> Vec<f64> {
    let mut breakpoints: Vec<f64> = Vec::new();
    for e in circuit.elements() {
        if let Element::VoltageSource { wave, .. } | Element::CurrentSource { wave, .. } = e {
            breakpoints.extend(wave.breakpoints(tstop));
        }
    }
    breakpoints.push(tstop);
    breakpoints.retain(|&t| t > 0.0);
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
    breakpoints
}

/// The DC-initialized and UIC entry points: one stepper from
/// `initial` to `tstop`. `initial_stats` carries the counters of the DC
/// solve that produced `initial` (zero for UIC) so the result reports
/// whole-run totals.
fn transient_from_state(
    circuit: &Circuit,
    tstop: f64,
    options: &SimOptions,
    initial: Vec<f64>,
    initial_stats: SolverStats,
) -> Result<TransientResult, EngineError> {
    let mna = Mna::new(circuit);
    let mut stepper = Stepper::new(circuit, &mna, options, tstop, initial, initial_stats);
    stepper.run_until(tstop, options)?;
    Ok(stepper.finish())
}

fn volt_of(x: &[f64], n: Option<usize>) -> f64 {
    n.map_or(0.0, |i| x[i])
}

/// Everything the stepping loop carries from one accepted time point
/// to the next. Cloning it at a breakpoint forks the run.
#[derive(Clone)]
struct StepState {
    t: f64,
    /// Size proposed for the next step.
    h: f64,
    /// `false` right after the initial point, a breakpoint or a Newton
    /// failure: the next step is backward Euler.
    use_trap: bool,
    x: Vec<f64>,
    /// Predictor history: the previous solution and the size of the
    /// last step.
    x_prevprev: Option<(Vec<f64>, f64)>,
    caps: Vec<DynamicCap>,
    /// One fault session for the whole stepping phase (the initial DC
    /// solve, when any, ran under its own session).
    faults: FaultSession,
    /// Every attempt, accepted or rejected, draws from the step budget.
    step_attempts: u64,
    times: Vec<f64>,
    samples: Vec<Vec<f64>>,
}

/// The transient stepper of one circuit: its dynamic-branch layout,
/// breakpoints and Newton kernel, plus the [`StepState`] it advances.
struct Stepper<'m, 'c> {
    circuit: &'c Circuit,
    mna: &'m Mna<'c>,
    kernel: NewtonKernel<'m, 'c>,
    mos_refs: Vec<MosCapsRef>,
    breakpoints: Vec<f64>,
    /// Index of the first breakpoint not yet consumed.
    next_bp: usize,
    tstop: f64,
    max_step: f64,
    companions: Vec<CompanionCap>,
    /// Counters of the work done before this stepper's kernel: the
    /// initial DC solve, and for a fork branch the shared prefix.
    base_stats: SolverStats,
    state: StepState,
}

impl<'m, 'c> Stepper<'m, 'c> {
    /// A stepper at `t = 0` in state `initial`, whose producing solve
    /// spent `base_stats`.
    fn new(
        circuit: &'c Circuit,
        mna: &'m Mna<'c>,
        options: &SimOptions,
        tstop: f64,
        initial: Vec<f64>,
        base_stats: SolverStats,
    ) -> Self {
        // --- dynamic branch setup -----------------------------------
        let mut caps: Vec<DynamicCap> = Vec::new();
        let mut mos_refs: Vec<MosCapsRef> = Vec::new();
        for (elem_idx, e) in circuit.elements().iter().enumerate() {
            match e {
                Element::Capacitor {
                    a, b, capacitor, ..
                } if capacitor.capacitance() > 0.0 => {
                    caps.push(DynamicCap {
                        a: mna.idx(*a),
                        b: mna.idx(*b),
                        c: capacitor.capacitance(),
                        v_prev: 0.0,
                        i_prev: 0.0,
                    });
                }
                Element::Mosfet {
                    drain,
                    gate,
                    source,
                    bulk,
                    ..
                } => {
                    let (d, g, s, bk) = (
                        mna.idx(*drain),
                        mna.idx(*gate),
                        mna.idx(*source),
                        mna.idx(*bulk),
                    );
                    let pairs = [(g, s), (g, d), (g, bk), (d, bk), (s, bk)];
                    let base = caps.len();
                    for (na, nb) in pairs {
                        caps.push(DynamicCap {
                            a: na,
                            b: nb,
                            c: 0.0,
                            v_prev: 0.0,
                            i_prev: 0.0,
                        });
                    }
                    mos_refs.push(MosCapsRef {
                        elem_idx,
                        slots: [base, base + 1, base + 2, base + 3, base + 4],
                    });
                }
                _ => {}
            }
        }
        // Initialize branch voltages from the initial point.
        for cap in caps.iter_mut() {
            cap.v_prev = volt_of(&initial, cap.a) - volt_of(&initial, cap.b);
        }

        // One Newton kernel for the whole run: the transient stamp
        // pattern (including every companion branch — zero-cap slots
        // are stamped as placeholders, so the pattern never changes
        // between steps) is analyzed once, and the LU storage and
        // workspaces persist across all time steps.
        let probe: Vec<CompanionCap> = caps
            .iter()
            .map(|cap| CompanionCap {
                a: cap.a,
                b: cap.b,
                geq: 0.0,
                ieq: 0.0,
            })
            .collect();
        let kernel = NewtonKernel::new(mna, options, Some(&probe));
        let max_step = options.max_step.unwrap_or(tstop / 50.0);
        Self {
            circuit,
            mna,
            kernel,
            mos_refs,
            breakpoints: breakpoints(circuit, tstop),
            next_bp: 0,
            tstop,
            max_step,
            companions: Vec::with_capacity(caps.len()),
            base_stats,
            state: StepState {
                t: 0.0,
                h: options.initial_step.min(max_step),
                use_trap: false, // first step after DC is backward Euler
                times: vec![0.0],
                samples: vec![initial.clone()],
                x: initial,
                x_prevprev: None,
                caps,
                faults: FaultSession::new(&options.fault),
                step_attempts: 0,
            },
        }
    }

    /// This stepper's state continued on `circuit`, which has the same
    /// layout (checked by [`fork_mismatch`]). The kernel's factors and
    /// caches carry over, so the branch computes exactly what an
    /// uninterrupted run on `circuit` would.
    fn fork<'m2, 'c2>(&self, circuit: &'c2 Circuit, mna: &'m2 Mna<'c2>) -> Stepper<'m2, 'c2> {
        let mut base_stats = self.base_stats;
        base_stats.merge(&self.kernel.stats());
        Stepper {
            circuit,
            mna,
            kernel: self.kernel.fork(mna),
            mos_refs: self.mos_refs.clone(),
            breakpoints: breakpoints(circuit, self.tstop),
            next_bp: 0,
            tstop: self.tstop,
            max_step: self.max_step,
            companions: Vec::with_capacity(self.state.caps.len()),
            base_stats,
            state: self.state.clone(),
        }
    }

    /// Whole-run counters so far: the base solves, this kernel's
    /// solves and every injected fault.
    fn stats(&self) -> SolverStats {
        let mut stats = self.base_stats;
        stats.merge(&self.kernel.stats());
        stats.injected_faults += self.state.faults.fired();
        stats
    }

    fn finish(self) -> TransientResult {
        let stats = self.stats();
        let branch_names = self
            .circuit
            .elements()
            .iter()
            .filter(|e| e.needs_branch_current())
            .map(|e| e.name().to_string())
            .collect();
        TransientResult {
            times: self.state.times,
            samples: self.state.samples,
            n_node_unknowns: self.mna.node_unknowns(),
            branch_names,
            stats,
        }
    }

    /// Steps until the time reaches `until`, which is `tstop` or one of
    /// the breakpoints: steps land on breakpoints exactly, so the loop
    /// stops at `until` itself.
    fn run_until(&mut self, until: f64, options: &SimOptions) -> Result<(), EngineError> {
        let Self {
            circuit,
            mna,
            kernel,
            mos_refs,
            breakpoints,
            next_bp,
            tstop,
            max_step,
            companions,
            state: s,
            ..
        } = self;
        let (tstop, max_step) = (*tstop, *max_step);
        let temp_k = options.temperature.as_kelvin();

        while s.t < until - 1e-21 {
            // Refresh Meyer capacitances at the last accepted solution.
            for m in mos_refs.iter() {
                if let Element::Mosfet {
                    drain,
                    gate,
                    source,
                    bulk,
                    model,
                    geom,
                    ..
                } = &circuit.elements()[m.elem_idx]
                {
                    let vg = mna.voltage(&s.x, *gate);
                    let vd = mna.voltage(&s.x, *drain);
                    let vs = mna.voltage(&s.x, *source);
                    let vb = mna.voltage(&s.x, *bulk);
                    let mc = kernel.eval_caps(model, geom, MosBias::new(vg, vd, vs, vb), temp_k);
                    let values = [mc.cgs, mc.cgd, mc.cgb, mc.cdb, mc.csb];
                    for (slot, val) in m.slots.iter().zip(values) {
                        s.caps[*slot].c = val;
                    }
                }
            }

            // Clamp the step to the next breakpoint.
            let next = loop {
                match breakpoints.get(*next_bp) {
                    Some(&bp) if bp <= s.t + 1e-21 => *next_bp += 1,
                    Some(&bp) => break Some(bp),
                    None => break None,
                }
            };
            let mut h_now = s.h.min(max_step).min(tstop - s.t);
            let mut lands_on_bp = false;
            if let Some(bp) = next {
                if s.t + h_now >= bp - 1e-21 {
                    h_now = bp - s.t;
                    lands_on_bp = true;
                }
            }

            // Inner attempt loop: shrink h_now on Newton failure or huge LTE.
            let accepted = loop {
                if h_now < options.min_step {
                    return Err(EngineError::StepUnderflow { time: s.t });
                }
                // Deterministic timeout: every attempt (accepted or
                // rejected) draws from the step budget.
                s.step_attempts += 1;
                if let Some(budget) = options.step_budget {
                    if s.step_attempts > budget {
                        return Err(EngineError::BudgetExhausted {
                            context: format!("transient stepping at t = {:.3e} s", s.t),
                            spent: s.step_attempts,
                            budget,
                        });
                    }
                }
                // θ-damped trapezoid; backward Euler (θ = 1) right after
                // breakpoints/failures and when cruising on a plateau.
                let theta = if s.use_trap && h_now < 0.99 * max_step {
                    THETA
                } else {
                    1.0
                };
                // Build companion models (full-length, zero-cap slots are
                // placeholders so state updates stay index-aligned).
                companions.clear();
                for cap in &s.caps {
                    if cap.c <= 0.0 {
                        companions.push(CompanionCap {
                            a: cap.a,
                            b: cap.b,
                            geq: 0.0,
                            ieq: 0.0,
                        });
                        continue;
                    }
                    let geq = cap.c / (theta * h_now);
                    let ieq = geq * cap.v_prev + (1.0 - theta) / theta * cap.i_prev;
                    companions.push(CompanionCap {
                        a: cap.a,
                        b: cap.b,
                        geq,
                        ieq,
                    });
                }
                // A landing step ends on the breakpoint itself, so the
                // sources are never evaluated past it.
                let t_new = match next {
                    Some(bp) if lands_on_bp => bp,
                    _ => s.t + h_now,
                };
                let ctx = StampCtx {
                    time: t_new,
                    source_scale: 1.0,
                    gmin: options.gmin,
                    temp_k,
                    reactive: Some(companions),
                };
                match kernel.solve(&s.x, &ctx, options, &mut s.faults) {
                    Ok((x_new, _iters)) => {
                        if s.faults.fire_lte() {
                            // Injected LTE rejection: discard the converged
                            // solution and quarter the step, exactly as a
                            // real predictor disagreement below would.
                            h_now /= 4.0;
                            lands_on_bp = false;
                            continue;
                        }
                        // Predictor for LTE: linear extrapolation through the
                        // two previous points (zero-order on the first step).
                        let nvu = mna.node_unknowns();
                        let mut err_ratio = 0.0f64;
                        for i in 0..nvu {
                            let pred = match &s.x_prevprev {
                                Some((xp, hp)) if *hp > 0.0 => {
                                    s.x[i] + (s.x[i] - xp[i]) * (h_now / hp)
                                }
                                _ => s.x[i],
                            };
                            let tol = options.lte_tol + options.reltol * x_new[i].abs();
                            err_ratio = err_ratio.max((x_new[i] - pred).abs() / tol);
                        }
                        // Reject wildly inaccurate steps (unless pinned to a
                        // breakpoint edge at minimum size already).
                        if err_ratio > 16.0 && h_now > options.min_step * 64.0 {
                            h_now /= 4.0;
                            lands_on_bp = false;
                            continue;
                        }
                        break (x_new, err_ratio, t_new);
                    }
                    Err(_) => {
                        h_now /= 8.0;
                        lands_on_bp = false;
                        s.use_trap = false; // BE is more robust
                        continue;
                    }
                }
            };
            let (x_new, err_ratio, t_new) = accepted;

            // Update dynamic-branch state via the companion identity
            // i_new = geq·v_new − ieq.
            for (cap, comp) in s.caps.iter_mut().zip(companions.iter()) {
                let v_new = volt_of(&x_new, cap.a) - volt_of(&x_new, cap.b);
                if cap.c > 0.0 {
                    cap.i_prev = comp.geq * v_new - comp.ieq;
                }
                cap.v_prev = v_new;
            }

            s.t = t_new;
            s.x_prevprev = Some((std::mem::replace(&mut s.x, x_new), h_now));
            s.times.push(s.t);
            s.samples.push(s.x.clone());

            // Step-size controller.
            let grow = (1.0 / (err_ratio + 0.05)).sqrt().clamp(0.3, 2.0);
            s.h = (h_now * grow).min(max_step);
            if lands_on_bp {
                // Restart conservatively after an input corner.
                s.h = options.initial_step.min(max_step);
                s.use_trap = false;
                s.x_prevprev = None;
            } else {
                s.use_trap = true;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vls_device::{MosGeometry, MosModel, SourceWaveform};

    fn opts() -> SimOptions {
        SimOptions::default()
    }

    #[test]
    fn rc_charging_matches_the_analytic_exponential() {
        // 1 kΩ · 1 pF, step at t = 0.1 ns: v(t) = 1 − e^(−t/τ), τ = 1 ns.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        c.add_resistor("r1", inp, out, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        let res = run_transient(&c, 12e-9, &opts()).unwrap();
        let v = res.node_series(out);
        let times = res.times();
        let tau = 1e-9;
        for (k, (&tk, &vk)) in times.iter().zip(v.iter()).enumerate() {
            if tk < 0.2e-9 {
                continue;
            }
            let expect = 1.0 - (-(tk - 0.1e-9 - 0.5e-12) / tau).exp();
            assert!(
                (vk - expect).abs() < 0.02,
                "sample {k} at t={tk:.3e}: {vk} vs {expect}"
            );
        }
        // Fully charged at the end.
        assert!((res.final_voltage(out) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rc_discharge_through_branch_current() {
        // Supply charges C through R; the branch current decays to ~0.
        let mut c = Circuit::new();
        let top = c.node("top");
        let out = c.node("out");
        c.add_vsource("v1", top, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r1", top, out, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        let res = run_transient(&c, 10e-9, &opts()).unwrap();
        let i = res.branch_series("v1").unwrap();
        // DC init charges the cap already, so current is tiny throughout.
        assert!(i.iter().all(|ii| ii.abs() < 1e-5));
        assert!(res.branch_series("nope").is_none());
    }

    #[test]
    fn inverter_switches_and_is_sampled_densely_at_edges() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: 1.2,
                delay: 0.5e-9,
                rise: 50e-12,
                fall: 50e-12,
                width: 2e-9,
                period: f64::INFINITY,
            },
        );
        c.add_mosfet(
            "mp",
            out,
            inp,
            vdd,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(0.4, 0.1),
        );
        c.add_mosfet(
            "mn",
            out,
            inp,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(0.2, 0.1),
        );
        c.add_capacitor("cl", out, Circuit::GROUND, 1e-15);
        let res = run_transient(&c, 5e-9, &opts()).unwrap();
        let v = res.node_series(out);
        let t = res.times();
        // Starts high (input low).
        assert!((v[0] - 1.2).abs() < 0.02, "initial output {}", v[0]);
        // Low while the input pulse is high (sample mid-pulse).
        let mid = t.iter().position(|&tt| tt > 1.5e-9).unwrap();
        assert!(v[mid] < 0.05, "mid-pulse output {}", v[mid]);
        // Recovers high after the pulse.
        assert!((res.final_voltage(out) - 1.2).abs() < 0.02);
        // Breakpoint at the pulse start is hit exactly.
        assert!(t.iter().any(|&tt| (tt - 0.5e-9).abs() < 1e-21));
    }

    #[test]
    fn capacitive_divider_respects_charge_conservation() {
        // Two series caps driven by a step: the middle node lands at the
        // capacitive divider ratio.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::step(0.0, 1.0, 1e-9, 10e-12),
        );
        c.add_capacitor("c1", inp, mid, 3e-15);
        c.add_capacitor("c2", mid, Circuit::GROUND, 1e-15);
        // Bleed resistor so DC is well defined; large enough not to
        // discharge much within the window.
        c.add_resistor("rb", mid, Circuit::GROUND, 1e12);
        let res = run_transient(&c, 2e-9, &opts()).unwrap();
        let v_end = res.final_voltage(mid);
        assert!((v_end - 0.75).abs() < 0.02, "divider landed at {v_end}");
    }

    #[test]
    fn result_accessors_are_consistent() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r", a, Circuit::GROUND, 1000.0);
        let res = run_transient(&c, 1e-9, &opts()).unwrap();
        assert!(!res.is_empty());
        assert_eq!(res.len(), res.times().len());
        assert_eq!(res.node_series(a).len(), res.len());
        assert_eq!(res.node_series(Circuit::GROUND), vec![0.0; res.len()]);
        assert_eq!(res.times()[0], 0.0);
        let t_last = *res.times().last().unwrap();
        assert!((t_last - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn sparse_and_dense_paths_agree() {
        // Force the sparse solver on a MOSFET circuit and compare the
        // full waveform against the dense default: the two linear-
        // algebra paths must produce the same physics.
        use vls_device::{MosGeometry, MosModel};
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::Pulse {
                v1: 0.0,
                v2: 1.2,
                delay: 0.3e-9,
                rise: 50e-12,
                fall: 50e-12,
                width: 1.5e-9,
                period: f64::INFINITY,
            },
        );
        c.add_mosfet(
            "mp",
            out,
            inp,
            vdd,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(0.4, 0.1),
        );
        c.add_mosfet(
            "mn",
            out,
            inp,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(0.2, 0.1),
        );
        c.add_capacitor("cl", out, Circuit::GROUND, 1e-15);

        // Both linear paths must produce the same accepted-step
        // trajectory (identical Newton behaviour) and matching voltages
        // throughout.
        let dense = run_transient(&c, 4e-9, &opts()).unwrap();
        let sparse = run_transient(
            &c,
            4e-9,
            &SimOptions {
                sparse_threshold: 0,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(dense.len(), sparse.len(), "steps diverged");
        let (vd, vs) = (dense.node_series(out), sparse.node_series(out));
        for (k, (a, b)) in vd.iter().zip(&vs).enumerate() {
            assert!((a - b).abs() < 1e-9, "sample {k}: {a} vs {b}");
        }
    }

    #[test]
    fn rc_charging_conserves_energy() {
        // Step-charging a capacitor through a resistor: the source
        // delivers C·V² in total — half stored, half dissipated. The
        // integral of the branch current over the run must equal the
        // delivered charge C·V to ~1 %, a direct check on the
        // companion-model integration accuracy.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "vin",
            inp,
            Circuit::GROUND,
            SourceWaveform::step(0.0, 1.0, 0.1e-9, 1e-12),
        );
        c.add_resistor("r1", inp, out, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        let res = run_transient(&c, 12e-9, &opts()).unwrap();
        let t = res.times();
        let i = res.branch_series("vin").unwrap();
        // Trapezoidal integral of the delivered current (−branch).
        let mut q = 0.0;
        for k in 1..t.len() {
            q += 0.5 * (-i[k] - i[k - 1]) * (t[k] - t[k - 1]);
        }
        let expect = 1e-12 * 1.0; // C·V
        assert!(
            (q - expect).abs() < 0.01 * expect,
            "delivered charge {q:.4e} vs C*V {expect:.4e}"
        );
    }

    #[test]
    fn uic_starts_from_the_given_state() {
        // RC discharge from a user-set initial condition: no DC pass,
        // v(out) decays from the IC value with tau = RC.
        let mut c = Circuit::new();
        let out = c.node("out");
        c.add_resistor("r1", out, Circuit::GROUND, 1000.0);
        c.add_capacitor("c1", out, Circuit::GROUND, 1e-12);
        // A reference source elsewhere keeps the netlist non-degenerate.
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r2", a, Circuit::GROUND, 1e6);
        let res = run_transient_uic(&c, 5e-9, &SimOptions::default(), &[(out, 1.0)]).unwrap();
        let v = res.node_series(out);
        let t = res.times();
        assert!((v[0] - 1.0).abs() < 1e-12, "IC not applied: {}", v[0]);
        // Check the analytic decay at a mid sample.
        let k = t.iter().position(|&tt| tt >= 1e-9).unwrap();
        let expect = (-t[k] / 1e-9_f64).exp();
        assert!((v[k] - expect).abs() < 0.03, "decay {} vs {expect}", v[k]);
        // Without the IC the node would start (and stay) at zero.
        let res0 = run_transient_uic(&c, 1e-9, &SimOptions::default(), &[]).unwrap();
        assert!(res0.node_series(out)[0].abs() < 1e-12);
    }

    #[test]
    fn uic_biases_a_latch_into_the_chosen_state() {
        use vls_device::{MosGeometry, MosModel};
        // Cross-coupled inverters: UIC picks which stable state wins.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let q = c.node("q");
        let qb = c.node("qb");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
        for (i, (inp, out)) in [(q, qb), (qb, q)].into_iter().enumerate() {
            c.add_mosfet(
                &format!("mp{i}"),
                out,
                inp,
                vdd,
                vdd,
                MosModel::ptm90_pmos(),
                MosGeometry::from_microns(0.4, 0.1),
            );
            c.add_mosfet(
                &format!("mn{i}"),
                out,
                inp,
                Circuit::GROUND,
                Circuit::GROUND,
                MosModel::ptm90_nmos(),
                MosGeometry::from_microns(0.2, 0.1),
            );
        }
        let res = run_transient_uic(
            &c,
            3e-9,
            &SimOptions::default(),
            &[(q, 1.2), (qb, 0.0), (vdd, 1.2)],
        )
        .unwrap();
        assert!(
            (res.final_voltage(q) - 1.2).abs() < 0.02,
            "q = {}",
            res.final_voltage(q)
        );
        assert!(
            res.final_voltage(qb).abs() < 0.02,
            "qb = {}",
            res.final_voltage(qb)
        );
    }

    #[test]
    #[should_panic(expected = "tstop must be positive")]
    fn zero_tstop_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v", a, Circuit::GROUND, SourceWaveform::Dc(1.0));
        c.add_resistor("r", a, Circuit::GROUND, 1000.0);
        let _ = run_transient(&c, 0.0, &opts());
    }
}
