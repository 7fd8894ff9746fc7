//! The paper's measurement protocol.
//!
//! One transient run per characterization: a two-cycle pulse train
//! drives the cell through its input driver chain. Cycle 1 initializes
//! the cell's dynamic nodes (both designs contain them); cycle 2 is
//! measured:
//!
//! * **fall delay** — cell input rising through VDDI/2 → output
//!   falling through VDDO/2;
//! * **rise delay** — cell input falling through VDDI/2 → output
//!   rising through VDDO/2;
//! * **fall/rise power** — average power drawn from *both* supplies
//!   over a fixed window starting at the input edge (the paper's
//!   "Power Rise/Fall"). Both rails must be summed because a
//!   high-to-low conversion pumps charge from the 1.2 V input domain
//!   *into* the 0.8 V output rail through the shifter — metering VDDO
//!   alone would read negative. The identically sized input drivers
//!   contribute equally to every design, keeping the comparison fair;
//! * **leakage high/low** — the cell's total static supply draw with
//!   the output settled high respectively low, expressed as an
//!   equivalent VDDO current:
//!   `(VDDI·I_vddi + VDDO·I_vddo − P_driver) / VDDO`, where
//!   `P_driver` is the static power of the bare input-driver chain
//!   (measured separately at DC and subtracted, since the drivers are
//!   shared by every design). Summing both rails matters because in a
//!   high-to-low configuration part of the static current enters from
//!   the input domain and *exits* into the VDDO rail — metering VDDO
//!   alone would under- or even negative-count it. Extracted from two
//!   dedicated long-hold transients (one per state, each preceded by
//!   an initializing pulse): the cell's dynamic internal nodes keep
//!   relaxing for hundreds of nanoseconds after a switching event, so
//!   the tail of the fast delay/power run is *not* yet the static
//!   state the paper's leakage numbers describe.

use vls_cells::{Harness, ShifterKind, VoltagePair};
use vls_engine::{run_transient, SimOptions, SolverStats, TransientResult};
use vls_units::{Current, Power, Time};
use vls_variation::PerturbationMap;
use vls_waveform::{average, delay_between, is_settled, Edge, Waveform};

use crate::CoreError;

/// Options for one characterization run.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeOptions {
    /// Engine tolerances and temperature.
    pub sim: SimOptions,
    /// Output load, F (the paper: 1 fF).
    pub load_farads: f64,
    /// Input-stimulus edge slew, s (the paper: 50 ps). Together with
    /// [`Self::load_farads`] this is a characterization-grid axis.
    pub input_slew: f64,
    /// Power-measurement window after each input edge, s.
    pub power_window: f64,
    /// Fraction of VDDO the output must approach for functionality.
    pub level_tolerance: f64,
}

impl Default for CharacterizeOptions {
    fn default() -> Self {
        Self {
            sim: SimOptions::default(),
            load_farads: 1e-15,
            input_slew: 50e-12,
            power_window: 3e-9,
            level_tolerance: 0.1,
        }
    }
}

impl CharacterizeOptions {
    /// Default options at the given temperature (°C).
    pub fn at_celsius(celsius: f64) -> Self {
        Self {
            sim: SimOptions::at_celsius(celsius),
            ..Self::default()
        }
    }
}

/// The six metrics of the paper's Tables 1–4 plus a functionality
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Output rising delay.
    pub delay_rise: Time,
    /// Output falling delay.
    pub delay_fall: Time,
    /// Average switching power for the rising-output event.
    pub power_rise: Power,
    /// Average switching power for the falling-output event.
    pub power_fall: Power,
    /// Steady-state VDDO current, output high.
    pub leakage_high: Current,
    /// Steady-state VDDO current, output low.
    pub leakage_low: Current,
    /// `true` when the output reached both rails within tolerance.
    pub functional: bool,
}

/// Extracts all waveforms the protocol needs from a transient run.
struct Probes {
    input: Waveform,
    output: Waveform,
    vddo_current: Waveform,
    vddi_current: Waveform,
}

fn supply_current(res: &TransientResult, source: &str) -> Waveform {
    let times = res.times().to_vec();
    // Delivered current is minus the branch current (SPICE convention).
    let i = res
        .branch_series(source)
        .expect("harness always defines its supply sources")
        .iter()
        .map(|v| -v)
        .collect();
    Waveform::new(times, i).expect("engine produces monotonic time")
}

fn probes(harness: &Harness, res: &TransientResult) -> Probes {
    let times = res.times().to_vec();
    let input = Waveform::new(times.clone(), res.node_series(harness.input))
        .expect("engine produces monotonic time");
    let output = Waveform::new(times, res.node_series(harness.output))
        .expect("engine produces monotonic time");
    Probes {
        input,
        output,
        vddo_current: supply_current(res, Harness::VDDO_SOURCE),
        vddi_current: supply_current(res, Harness::VDDI_SOURCE),
    }
}

/// Static power of the bare input-driver chain at the given input
/// state — the baseline subtracted from every leakage measurement.
fn driver_baseline_power(
    domains: VoltagePair,
    options: &CharacterizeOptions,
    input_high: bool,
    stats: &mut SolverStats,
) -> Result<f64, CoreError> {
    use vls_netlist::Circuit;
    let mut c = Circuit::new();
    let vddi_n = c.node("vddi_rail");
    let stim = c.node("stim");
    let d1 = c.node("drv1");
    let d2 = c.node("drv2out");
    let level = if input_high { domains.vddi } else { 0.0 };
    c.add_vsource(
        Harness::VDDI_SOURCE,
        vddi_n,
        Circuit::GROUND,
        vls_device::SourceWaveform::Dc(domains.vddi),
    );
    c.add_vsource(
        Harness::STIM_SOURCE,
        stim,
        Circuit::GROUND,
        vls_device::SourceWaveform::Dc(level),
    );
    let drv = vls_cells::primitives::Inverter::minimum();
    drv.build(&mut c, "drv1", stim, d1, vddi_n);
    drv.build(&mut c, "drv2", d1, d2, vddi_n);
    let sol = vls_engine::solve_dc(&c, &options.sim)?;
    stats.merge(&sol.solver_stats());
    let i_vddi = -sol
        .branch_current(Harness::VDDI_SOURCE)
        .expect("source exists");
    Ok(i_vddi * domains.vddi)
}

/// One dedicated leakage run: an initializing pulse, then a long hold
/// in the requested input state; returns the total static supply
/// power over the settled tail, referred to VDDO and corrected for the
/// driver baseline.
fn leakage_run(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    input_high: bool,
    perturbation: Option<&PerturbationMap>,
    stats: &mut SolverStats,
) -> Result<f64, CoreError> {
    // Init pulse 1–4 ns; then hold at the target level from 5 ns on.
    let hold = if input_high { domains.vddi } else { 0.0 };
    let wave = vls_device::SourceWaveform::Pwl(vec![
        (0.0, 0.0),
        (1e-9, 0.0),
        (1.05e-9, domains.vddi),
        (4e-9, domains.vddi),
        (4.05e-9, 0.0),
        (5e-9, 0.0),
        (5.05e-9, hold),
    ]);
    let mut harness = Harness::build(kind, domains, wave, options.load_farads);
    if let Some(map) = perturbation {
        map.apply(&mut harness.circuit);
    }
    let t_end = 400e-9;
    let mut sim = options.sim.clone();
    // Quiet circuit: let the step controller stride.
    sim.max_step = Some(5e-9);
    let res = run_transient(&harness.circuit, t_end, &sim)?;
    stats.merge(&res.solver_stats());
    let i_vddo = supply_current(&res, Harness::VDDO_SOURCE);
    let i_vddi = supply_current(&res, Harness::VDDI_SOURCE);
    let out = Waveform::new(res.times().to_vec(), res.node_series(harness.output))
        .expect("engine produces monotonic time");
    let window = 50e-9;
    if !is_settled(&out, window, 0.02 * domains.vddo) {
        return Err(CoreError::NotSettled(format!(
            "leakage run (input {}) did not settle",
            if input_high { "high" } else { "low" }
        )));
    }
    let p_total = average(&i_vddo, t_end - window, t_end) * domains.vddo
        + average(&i_vddi, t_end - window, t_end) * domains.vddi;
    let p_cell = p_total - driver_baseline_power(domains, options, input_high, stats)?;
    Ok(p_cell / domains.vddo)
}

/// Runs the paper's measurement protocol for `kind` at `domains`.
///
/// # Errors
///
/// Propagates engine failures and reports [`CoreError::MissingEdge`] /
/// [`CoreError::NotSettled`] when the run cannot be measured. A run
/// whose output levels are degraded is *not* an error — it comes back
/// with `functional = false` so sweeps can map the working region.
pub fn characterize(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
) -> Result<CellMetrics, CoreError> {
    characterize_with(kind, domains, options, None)
}

/// [`characterize`] with an optional process-variation sample applied
/// to the cell under test in every run of the protocol — the Monte
/// Carlo entry point (Tables 3 and 4).
pub fn characterize_with(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    perturbation: Option<&PerturbationMap>,
) -> Result<CellMetrics, CoreError> {
    characterize_with_stats(kind, domains, options, perturbation).map(|(m, _)| m)
}

/// [`characterize_with`] also returning the aggregated
/// [`SolverStats`] of every engine run the protocol performed (the
/// stimulus transient, both leakage transients and the driver-baseline
/// DC solves) — what the Monte Carlo drivers fold into the runner's
/// [`vls_runner::RunReport`].
pub fn characterize_with_stats(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    perturbation: Option<&PerturbationMap>,
) -> Result<(CellMetrics, SolverStats), CoreError> {
    // The standard two-cycle train at the configured edge slew; the
    // default 50 ps reproduces `Harness::standard_stimulus` exactly.
    let (wave, t_rise2, t_fall2, t_end) =
        Harness::pulse_stimulus_with_slew(domains, 7e-9, 8.9e-9, options.input_slew);
    let mut stats = SolverStats::default();
    let metrics = characterize_stimulus(
        kind,
        domains,
        options,
        perturbation,
        wave,
        t_rise2,
        t_fall2,
        t_end,
        &mut stats,
    )?;
    Ok((metrics, stats))
}

/// The paper's worst-case delay protocol: "the delays … are dependent
/// on the input sequence. … The delay numbers reported in this paper
/// are the worst-case delays across all possible input sequences."
/// Re-measures the delays under stressing sequences — a short high
/// phase (minimal `ctrl` charging time before the measured falling
/// input) and a short low phase (minimal recovery before the measured
/// rising input) — and reports the per-edge maximum; power and leakage
/// come from the standard protocol run.
///
/// # Errors
///
/// As [`characterize`]; a sequence in which an expected output edge
/// never occurs is reported as [`CoreError::MissingEdge`].
pub fn characterize_worst_case(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
) -> Result<CellMetrics, CoreError> {
    let mut metrics = characterize(kind, domains, options)?;
    // (high width, low gap) stress pairs, seconds. Each phase is kept
    // long enough for legal operation — the worst case ranges over
    // input *sequences*, not over-spec switching rates.
    for (width, low_gap) in [(0.5e-9, 8.9e-9), (7e-9, 1.5e-9)] {
        let (wave, t_rise2, t_fall2, t_end) = Harness::pulse_stimulus(domains, width, low_gap);
        let harness = Harness::build(kind, domains, wave, options.load_farads);
        let res = run_transient(&harness.circuit, t_end, &options.sim)?;
        let p = probes(&harness, &res);
        let vin_half = domains.vddi / 2.0;
        let vout_half = domains.vddo / 2.0;
        let margin = 0.2e-9;
        let delay_fall = delay_between(
            &p.input,
            vin_half,
            Edge::Rising,
            &p.output,
            vout_half,
            Edge::Falling,
            t_rise2 - margin,
        )
        .ok_or_else(|| CoreError::MissingEdge("worst-case falling edge not found".into()))?;
        let delay_rise = delay_between(
            &p.input,
            vin_half,
            Edge::Falling,
            &p.output,
            vout_half,
            Edge::Rising,
            t_fall2 - margin,
        )
        .ok_or_else(|| CoreError::MissingEdge("worst-case rising edge not found".into()))?;
        metrics.delay_fall = metrics.delay_fall.max(Time::from_secs(delay_fall));
        metrics.delay_rise = metrics.delay_rise.max(Time::from_secs(delay_rise));
    }
    Ok(metrics)
}

/// One protocol run under an explicit stimulus; the building block of
/// both the standard and worst-case flows.
#[allow(clippy::too_many_arguments)] // the stimulus markers travel together
fn characterize_stimulus(
    kind: &ShifterKind,
    domains: VoltagePair,
    options: &CharacterizeOptions,
    perturbation: Option<&PerturbationMap>,
    wave: vls_device::SourceWaveform,
    t_rise2: f64,
    t_fall2: f64,
    t_end: f64,
    stats: &mut SolverStats,
) -> Result<CellMetrics, CoreError> {
    let mut harness = Harness::build(kind, domains, wave, options.load_farads);
    if let Some(map) = perturbation {
        map.apply(&mut harness.circuit);
    }
    let res = run_transient(&harness.circuit, t_end, &options.sim)?;
    stats.merge(&res.solver_stats());
    let p = probes(&harness, &res);

    let vin_half = domains.vddi / 2.0;
    let vout_half = domains.vddo / 2.0;

    // Measured (second) cycle edges. The input driver chain preserves
    // stimulus polarity, so the cell input rises near t_rise2.
    let margin = 0.5e-9;
    let delay_fall = delay_between(
        &p.input,
        vin_half,
        Edge::Rising,
        &p.output,
        vout_half,
        Edge::Falling,
        t_rise2 - margin,
    )
    .ok_or_else(|| CoreError::MissingEdge("falling output edge not found".into()))?;
    let delay_rise = delay_between(
        &p.input,
        vin_half,
        Edge::Falling,
        &p.output,
        vout_half,
        Edge::Rising,
        t_fall2 - margin,
    )
    .ok_or_else(|| CoreError::MissingEdge("rising output edge not found".into()))?;

    // Power windows anchored at the input edges of the measured cycle,
    // summing both supplies (see the module docs for why).
    let w = options.power_window;
    let power_at = |t0: f64| {
        average(&p.vddo_current, t0, t0 + w) * domains.vddo
            + average(&p.vddi_current, t0, t0 + w) * domains.vddi
    };
    let power_fall_avg = power_at(t_rise2);
    let power_rise_avg = power_at(t_fall2);

    // Dedicated long-hold leakage runs.
    let leakage_low = leakage_run(kind, domains, options, true, perturbation, stats)?;
    let leakage_high = leakage_run(kind, domains, options, false, perturbation, stats)?;

    // Functionality: the output must approach both rails in the fast
    // run.
    let low_phase_end = t_fall2 - 0.2e-9;
    let tol = options.level_tolerance * domains.vddo;
    let v_low = p.output.value_at(low_phase_end);
    let v_high = p.output.value_at(t_end);
    let functional = v_low.abs() <= tol && (v_high - domains.vddo).abs() <= tol;

    Ok(CellMetrics {
        delay_rise: Time::from_secs(delay_rise),
        delay_fall: Time::from_secs(delay_fall),
        power_rise: Power::from_watts(power_rise_avg),
        power_fall: Power::from_watts(power_fall_avg),
        leakage_high: Current::from_amps(leakage_high),
        leakage_low: Current::from_amps(leakage_low),
        functional,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sstvs_low_to_high_characterizes_sanely() {
        let m = characterize(
            &ShifterKind::sstvs(),
            VoltagePair::low_to_high(),
            &CharacterizeOptions::default(),
        )
        .unwrap();
        assert!(m.functional);
        // Delays: positive, sub-nanosecond for a loaded minimum cell.
        assert!(
            m.delay_rise.value() > 0.0 && m.delay_rise.value() < 1.5e-9,
            "{}",
            m.delay_rise
        );
        assert!(
            m.delay_fall.value() > 0.0 && m.delay_fall.value() < 1.5e-9,
            "{}",
            m.delay_fall
        );
        // Leakage: positive, nanoamp class (paper: 3.6–20.8 nA).
        assert!(
            m.leakage_high.value() > 0.0 && m.leakage_high.value() < 1e-6,
            "leak high {}",
            m.leakage_high
        );
        assert!(
            m.leakage_low.value() > 0.0 && m.leakage_low.value() < 1e-6,
            "leak low {}",
            m.leakage_low
        );
        // Switching power: microwatt class.
        assert!(m.power_rise.value() > 0.0 && m.power_rise.value() < 1e-4);
        assert!(m.power_fall.value() > 0.0 && m.power_fall.value() < 1e-4);
    }

    #[test]
    fn sstvs_high_to_low_characterizes_sanely() {
        let m = characterize(
            &ShifterKind::sstvs(),
            VoltagePair::high_to_low(),
            &CharacterizeOptions::default(),
        )
        .unwrap();
        assert!(m.functional);
        assert!(m.delay_rise.value() > 0.0 && m.delay_rise.value() < 1.5e-9);
        assert!(m.leakage_high.value() < 1e-6);
    }

    #[test]
    fn combined_vs_characterizes_in_both_directions() {
        for domains in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
            let m = characterize(
                &ShifterKind::combined(),
                domains,
                &CharacterizeOptions::default(),
            )
            .unwrap();
            assert!(m.functional, "combined VS at {domains:?}");
            assert!(m.delay_rise.value() > 0.0);
        }
    }

    #[test]
    fn sstvs_beats_combined_on_leakage_low_to_high() {
        // The paper's headline claim (Table 1): 7.5× lower leakage for
        // a high output, 19.5× for low. Exact factors depend on the
        // device models; the *ordering* must hold.
        let opts = CharacterizeOptions::default();
        let dom = VoltagePair::low_to_high();
        let sstvs = characterize(&ShifterKind::sstvs(), dom, &opts).unwrap();
        let comb = characterize(&ShifterKind::combined(), dom, &opts).unwrap();
        assert!(
            sstvs.leakage_high.value() < comb.leakage_high.value(),
            "SS-TVS {} vs combined {}",
            sstvs.leakage_high,
            comb.leakage_high
        );
        assert!(
            sstvs.leakage_low.value() < comb.leakage_low.value(),
            "SS-TVS {} vs combined {}",
            sstvs.leakage_low,
            comb.leakage_low
        );
    }

    #[test]
    fn worst_case_delays_dominate_the_standard_ones() {
        let opts = CharacterizeOptions::default();
        let dom = VoltagePair::low_to_high();
        let standard = characterize(&ShifterKind::sstvs(), dom, &opts).unwrap();
        let worst = characterize_worst_case(&ShifterKind::sstvs(), dom, &opts).unwrap();
        assert!(worst.delay_rise >= standard.delay_rise);
        assert!(worst.delay_fall >= standard.delay_fall);
        // The short-high-phase sequence starves ctrl, so the paper's
        // predicted effect — a visibly slower rising output — must
        // appear.
        assert!(
            worst.delay_rise.value() > 1.02 * standard.delay_rise.value(),
            "worst-case rise {} vs standard {}",
            worst.delay_rise,
            standard.delay_rise
        );
        // Non-delay metrics come from the standard run.
        assert_eq!(worst.leakage_high, standard.leakage_high);
    }

    #[test]
    fn temperature_option_plumbs_through() {
        let opts = CharacterizeOptions::at_celsius(90.0);
        assert!((opts.sim.temperature.as_celsius() - 90.0).abs() < 1e-9);
        let hot = characterize(&ShifterKind::sstvs(), VoltagePair::low_to_high(), &opts).unwrap();
        let cold = characterize(
            &ShifterKind::sstvs(),
            VoltagePair::low_to_high(),
            &CharacterizeOptions::default(),
        )
        .unwrap();
        assert!(
            hot.leakage_high.value() > cold.leakage_high.value(),
            "leakage must grow with temperature: {} vs {}",
            hot.leakage_high,
            cold.leakage_high
        );
    }
}
