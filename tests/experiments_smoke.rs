//! Integration smoke tests over the experiment runners: every
//! table/figure flow executes end-to-end at reduced scale and its
//! output carries the paper's qualitative structure.

use sstvs::cells::{ShifterKind, VoltagePair};
use sstvs::flows::experiments::{area, figures, robustness, tables};
use sstvs::flows::{characterize, format_comparison_table, format_mc_table, CharacterizeOptions};
use sstvs::runner::RunnerOptions;

#[test]
fn table1_and_table2_flows_render() {
    let opts = CharacterizeOptions::default();
    let t1 = tables::table1(&opts).expect("table 1 runs");
    let t2 = tables::table2(&opts).expect("table 2 runs");
    let s1 = format_comparison_table("Table 1", &t1);
    let s2 = format_comparison_table("Table 2", &t2);
    for s in [&s1, &s2] {
        assert!(s.contains("Delay Rise"));
        assert!(s.contains("Leakage Current Low"));
    }
    // Leakage advantage is the paper's central claim in both tables.
    assert!(t1.advantage().2 > 1.0 && t1.advantage().3 > 1.0);
    assert!(t2.advantage().2 > 1.0 && t2.advantage().3 > 1.0);
}

#[test]
fn mc_table_flow_renders_and_reports_yield() {
    let opts = CharacterizeOptions::default();
    let t = tables::monte_carlo_table(
        VoltagePair::low_to_high(),
        &opts,
        4,
        11,
        &RunnerOptions::default(),
    )
    .expect("small MC runs");
    assert_eq!(t.sstvs.trials, 4);
    assert!(t.sstvs.passed > 0 && t.combined.passed > 0);
    let s = format_mc_table("Table 3 (reduced)", &t);
    assert!(s.contains("SSTVS mu"));
    assert!(s.contains("functional:"));
}

#[test]
fn figure5_runs_in_both_scenarios() {
    let opts = CharacterizeOptions::default();
    for domains in [VoltagePair::low_to_high(), VoltagePair::high_to_low()] {
        let d = figures::figure5(domains, &opts).expect("figure 5 runs");
        // The ctrl trace must show the charge/discharge cycle the
        // paper's Figure 5 depicts: high while the input is high,
        // partially retained afterwards.
        let ctrl = &d
            .series
            .iter()
            .find(|(n, _)| n == "ctrl")
            .expect("ctrl traced")
            .1;
        let max = ctrl.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 0.5, "ctrl never charged: max {max}");
    }
}

#[test]
fn delay_surface_covers_the_grid_with_structure() {
    let opts = CharacterizeOptions::default();
    let s = figures::delay_surface(
        &ShifterKind::sstvs(),
        0.8,
        1.4,
        0.3,
        &opts,
        &RunnerOptions::default(),
    );
    assert_eq!(s.vddi.len(), 3);
    assert_eq!(s.vddo.len(), 3);
    assert!(s.yield_fraction() >= 1.0, "yield {}", s.yield_fraction());
    // Smoothness claim at coarse scale: neighbouring points within 2x.
    assert!(
        s.max_relative_step(true) < 0.75,
        "rise surface jumpy: {}",
        s.max_relative_step(true)
    );
    assert!(
        s.max_relative_step(false) < 0.75,
        "fall surface jumpy: {}",
        s.max_relative_step(false)
    );
    let csv = s.to_csv();
    assert_eq!(csv.lines().count(), 10);
}

#[test]
fn delay_surface_equals_the_full_protocol_bit_for_bit() {
    // The surface runs only the stimulus part of the protocol; at every
    // point its mask, rise and fall must be what the full
    // characterization reports.
    for celsius in [27.0, 90.0] {
        let opts = CharacterizeOptions::at_celsius(celsius);
        let s = figures::delay_surface(
            &ShifterKind::sstvs(),
            0.8,
            1.4,
            0.3,
            &opts,
            &RunnerOptions::default(),
        );
        for (i, &vi) in s.vddi.iter().enumerate() {
            for (j, &vo) in s.vddo.iter().enumerate() {
                let full = characterize(&ShifterKind::sstvs(), VoltagePair::new(vi, vo), &opts);
                let (functional, rise, fall) = match full {
                    Ok(m) if m.functional => {
                        (true, m.delay_rise.as_picos(), m.delay_fall.as_picos())
                    }
                    _ => (false, f64::NAN, f64::NAN),
                };
                let at = format!("{celsius} °C, VDDI {vi} V, VDDO {vo} V");
                assert_eq!(s.functional[i][j], functional, "{at}");
                assert_eq!(s.rise_ps[i][j].to_bits(), rise.to_bits(), "{at}");
                assert_eq!(s.fall_ps[i][j].to_bits(), fall.to_bits(), "{at}");
            }
        }
    }
}

#[test]
fn robustness_flow_aggregates() {
    let r =
        robustness::robustness_report(0.3, 2, 3, &[27.0], &RunnerOptions::default()).expect("runs");
    assert_eq!(r.grid_yield.len(), 1);
    assert!(r.all_pass(), "{r:?}");
}

#[test]
fn area_flow_matches_paper_class() {
    let entries = area::area_report();
    let sstvs = entries
        .iter()
        .find(|e| e.label == "SS-TVS")
        .expect("SS-TVS entry");
    assert!(
        (sstvs.area_um2 - 4.47).abs() < 1.5,
        "area {} µm²",
        sstvs.area_um2
    );
    assert_eq!(sstvs.devices, 13);
}
