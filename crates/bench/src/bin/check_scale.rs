//! Chip-scale static-verification benchmark.
//!
//! Generates `chipgen` floorplans at increasing instance counts and
//! measures the hierarchical checker against flattening the same
//! design and re-deriving every fact per copy:
//!
//! 1. clean chips at each size — the hierarchical report must be
//!    empty, byte-identical at 1/2/8 workers, and near-linear in the
//!    instance count (per-instance cost may grow at most 8x from the
//!    smallest to the largest size);
//! 2. a flattened run at the sizes where it is affordable — the
//!    hierarchical speedup floor is enforced at the pin size
//!    (≥4x at 1000 instances; ≥1.5x at 240 under `--smoke`);
//! 3. a mutated chip carrying all five MSV defects — every rule
//!    (ERC009–ERC013) must fire, fingerprints must not depend on the
//!    worker count, and a recorded baseline must suppress the full
//!    report on re-application.
//!
//! A full run writes the `BENCH_check.json` perf-trajectory artifact;
//! both floors are checked before it is written.
//!
//! ```text
//! cargo run --release -p vls-bench --bin check_scale [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the sizes to [60, 240] for CI and writes its JSON
//! under `$TMPDIR`; every correctness assertion and the (smaller)
//! speedup floor still hold. Any other argument is rejected.

use vls_bench::artifact::Artifact;
use vls_bench::timing::time_reps;
use vls_bench::{floors, BinArgs};
use vls_charlib::json::Json;
use vls_charlib::json_obj;
use vls_check::{run_check, run_check_design_with, Baseline, CheckOptions, ErcCode, Report};
use vls_netlist::chipgen::{generate_chip, generate_chip_mutated, ChipMutation, ChipSpec};
use vls_netlist::HierDesign;
use vls_runner::RunnerOptions;

fn spec(instances: usize) -> ChipSpec {
    ChipSpec {
        instances,
        ..ChipSpec::default()
    }
}

fn check_hier(design: &HierDesign, options: &CheckOptions, jobs: usize) -> Report {
    run_check_design_with(design, options, &RunnerOptions::with_jobs(jobs))
}

fn main() {
    let smoke =
        BinArgs::parse_accepting(std::env::args().skip(1), &[], &["--smoke"]).switch("--smoke");
    let sizes: &[usize] = if smoke {
        &[60, 240]
    } else {
        &[100, 1000, 10_000]
    };
    let pin_size = if smoke { 240 } else { 1000 };
    let flat_cap = pin_size; // flattened runs stop where they stop being affordable
    let options = CheckOptions::default();
    // Per size: instances and best serial hierarchical time, for the
    // linearity cap; the speedup at the pin size; one JSON row each.
    let mut serial_times: Vec<(usize, f64)> = Vec::new();
    let mut pin_speedup = None;
    let mut rows: Vec<Json> = Vec::new();

    println!(
        "chip-scale MSV verification ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    for &n in sizes {
        let design = generate_chip(&spec(n));
        let (serial_t, serial) = time_reps(3, || check_hier(&design, &options, 1));
        let hier_serial_s = serial_t.best_s;
        assert_eq!(
            serial.diagnostics.len(),
            0,
            "clean {n}-instance chip is not clean:\n{}",
            serial.render_text()
        );

        // Worker count must never change a byte of output.
        let mut hier_j8_s = hier_serial_s;
        for jobs in [2usize, 8] {
            let (t, parallel) = time_reps(3, || check_hier(&design, &options, jobs));
            assert_eq!(serial.render_text(), parallel.render_text(), "jobs={jobs}");
            assert_eq!(serial.render_json(), parallel.render_json(), "jobs={jobs}");
            if jobs == 8 {
                hier_j8_s = t.best_s;
            }
        }

        let (flat_s, speedup) = if n <= flat_cap {
            let flat = design.flatten();
            let (t_flat, report) = time_reps(2, || run_check(&flat, &options));
            let t_flat = t_flat.best_s;
            assert!(
                !report.has_errors(),
                "clean {n}-instance flat chip has errors:\n{}",
                report.render_text()
            );
            (Some(t_flat), Some(t_flat / hier_serial_s))
        } else {
            (None, None)
        };

        println!(
            "  {n:>6} instances: hier {:>9.3} ms (j8 {:>9.3} ms){}",
            hier_serial_s * 1e3,
            hier_j8_s * 1e3,
            match (flat_s, speedup) {
                (Some(f), Some(s)) => format!(", flat {:.3} ms ({s:.1}x)", f * 1e3),
                _ => ", flat skipped".to_string(),
            }
        );
        serial_times.push((n, hier_serial_s));
        if n == pin_size {
            pin_speedup = speedup;
        }
        rows.push(json_obj!(
            "instances": n, "hier_serial_s": hier_serial_s, "hier_j8_s": hier_j8_s,
            "flat_s": flat_s, "speedup": speedup,
        ));
    }

    // Floors: speedup at the pin size, near-linear hierarchical cost.
    let pin_speedup = pin_speedup.expect("pin size ran flat");
    let ((n0, t0), (n1, t1)) = (serial_times[0], serial_times[serial_times.len() - 1]);
    let per_instance_growth = (t1 / n1 as f64) / (t0 / n0 as f64);

    // Mutation scenario: all five MSV rules, stable fingerprints, and
    // a baseline that suppresses the whole recorded report.
    let mutated = generate_chip_mutated(
        &spec(100.min(sizes[0].max(60))),
        &[
            ChipMutation::DropShifter { unit: 1 },
            ChipMutation::RedundantShifter { unit: 2 },
            ChipMutation::CrossDriver { unit: 3 },
            ChipMutation::BridgeRails { a: 0, b: 1 },
            ChipMutation::OrphanIsland,
        ],
    );
    let report = check_hier(&mutated, &options, 1);
    for code in [
        ErcCode::Erc009MissingShifter,
        ErcCode::Erc010RedundantShifter,
        ErcCode::Erc011DomainContention,
        ErcCode::Erc012SneakRailPath,
        ErcCode::Erc013DanglingIsland,
    ] {
        assert!(
            !report.with_code(code).is_empty(),
            "{code:?} did not fire:\n{}",
            report.render_text()
        );
    }
    let parallel = check_hier(&mutated, &options, 8);
    let fingerprints: Vec<String> = report.diagnostics.iter().map(|d| d.fingerprint()).collect();
    assert_eq!(
        fingerprints,
        parallel
            .diagnostics
            .iter()
            .map(|d| d.fingerprint())
            .collect::<Vec<_>>(),
        "fingerprints depend on the worker count"
    );
    let baseline = Baseline::from_report(&report);
    let parsed = Baseline::parse(&baseline.render()).expect("baseline round-trips");
    let mut suppressed = check_hier(&mutated, &options, 1);
    let n_suppressed = suppressed.apply_baseline(&parsed);
    assert_eq!(n_suppressed, fingerprints.len());
    assert_eq!(suppressed.diagnostics.len(), 0);
    assert!(!suppressed.has_errors());
    println!(
        "  mutated chip: {} findings, all five rules fired, baseline suppresses all",
        fingerprints.len()
    );

    Artifact::new("check", smoke)
        .floor("pin_speedup", pin_speedup, floors::CHECK_SPEEDUP[smoke as usize])
        .cap("per_instance_growth", per_instance_growth, floors::CHECK_LINEARITY_CAP)
        .field("rows", rows)
        .field(
            "mutated",
            json_obj!(
                "findings": fingerprints.len(),
                "rules": ["ERC009", "ERC010", "ERC011", "ERC012", "ERC013"].map(Json::from).to_vec(),
                "baseline_suppresses_all": true,
            ),
        )
        .write();
}
