//! Measures the parallel Monte Carlo speedup: the same seeded ensemble
//! once on a single worker and once sharded across `--jobs` workers
//! (default: all cores), verifying the statistics are identical and
//! reporting per-shard wall times plus the warm/cold iteration split
//! of a warm-chained DC sweep.
//!
//! ```text
//! cargo run --release -p vls-bench --bin mc_speedup [-- --trials 1000 --jobs 4]
//! ```
//!
//! On a 4-core host the 1000-trial ensemble shows a >= 3x wall-clock
//! speedup over the serial baseline; the printed statistics are
//! bit-identical either way.

use vls_bench::timing::time_reps;
use vls_bench::BinArgs;
use vls_cells::{ShifterKind, VoltagePair};
use vls_core::experiments::tables::monte_carlo_stats_reported;
use vls_device::{MosGeometry, MosModel, SourceWaveform};
use vls_engine::{dc_sweep_with_stats, SimOptions};
use vls_netlist::Circuit;
use vls_runner::RunnerOptions;

fn main() {
    let args = BinArgs::parse(std::env::args().skip(1));
    let kind = ShifterKind::sstvs();
    let domains = VoltagePair::low_to_high();
    let options = args.options();

    println!(
        "Monte Carlo speedup: {} trials of the {}, seed {:#x}",
        args.trials,
        kind.label(),
        args.seed
    );

    let (serial_t, (serial, serial_report)) = time_reps(1, || {
        monte_carlo_stats_reported(
            &kind,
            domains,
            &options,
            args.trials,
            args.seed,
            &RunnerOptions::serial(),
        )
        .expect("serial Monte Carlo failed")
    });
    println!("serial   (1 worker): {:.3} s", serial_t.best_s);
    print!("{}", serial_report.render());

    let runner = args.runner();
    let (parallel_t, (parallel, parallel_report)) = time_reps(1, || {
        monte_carlo_stats_reported(&kind, domains, &options, args.trials, args.seed, &runner)
            .expect("parallel Monte Carlo failed")
    });
    println!(
        "parallel ({} workers): {:.3} s",
        runner.effective_jobs(),
        parallel_t.best_s
    );
    print!("{}", parallel_report.render());

    assert_eq!(
        serial, parallel,
        "parallel statistics must be bit-identical to the serial baseline"
    );
    println!(
        "statistics identical: true; wall-clock speedup {:.2}x",
        serial_t.best_s / parallel_t.best_s.max(1e-12)
    );

    // Warm-start accounting: the same inverter VTC the engine's sweep
    // warm chain is exercised on, with the iteration split printed.
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(1.2));
    c.add_vsource("vin", inp, Circuit::GROUND, SourceWaveform::Dc(0.0));
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
    let (_, sweep) = dc_sweep_with_stats(&c, "vin", 0.0, 1.2, 0.005, &SimOptions::default())
        .expect("VTC sweep failed");
    println!(
        "warm-start chain over a 241-point VTC: {} warm point(s) / {} cold, \
         {} warm Newton iteration(s) vs {} cold",
        sweep.warm_points, sweep.cold_points, sweep.warm_iters, sweep.cold_iters
    );
}
