//! Measures the charlib surrogate against the exact transient: per-
//! query throughput and worst-case relative error over held-out grid
//! midpoints.
//!
//! ```text
//! cargo run --release -p vls-bench --bin surrogate_speedup \
//!     [-- --jobs N --from-lib lib.json]
//! ```
//!
//! The benchmark grid is the SS-TVS over VDDI × VDDO ∈ [0.8, 1.4] V²
//! at 0.1 V pitch (nominal slew/load/temperature). The exact side runs
//! the full measurement protocol at every held-out midpoint; the
//! surrogate side answers the same midpoints — plus a large batch of
//! pseudo-random in-region points to get a stable per-query time —
//! from the table. The run fails loudly if the speedup falls under
//! 100×; the worst midpoint error is printed (the < 1% accuracy
//! contract is enforced on a dense grid by `tests/charlib_surrogate.rs`
//! — this 0.1 V bench pitch trades accuracy for build time).

use vls_bench::timing::time_reps;
use vls_bench::{floors, BinArgs};
use vls_cells::ShifterKind;
use vls_charlib::{CharLib, GridSpec, QueryPoint};
use vls_num::rng::{Rng, Xoshiro256pp};

fn main() {
    let args = BinArgs::parse(std::env::args().skip(1));
    let kind = ShifterKind::sstvs();
    let base = args.options();
    let grid = GridSpec::rails(0.8, 1.4, 0.1, vec![args.temp_celsius])
        .expect("benchmark grid is statically valid");

    let (fill, (lib, status)) = time_reps(1, || match &args.from_lib {
        Some(path) => CharLib::load_or_build(path, &kind, &base, grid.clone(), &args.runner())
            .expect("artifact load/build failed"),
        None => (
            CharLib::build(&kind, &base, grid.clone(), &args.runner()),
            vls_charlib::BuildStatus::BuiltMissing,
        ),
    });
    let grid = lib.grid();
    println!(
        "grid: {} points filled in {:.2} s ({status:?})",
        grid.n_points(),
        fill.best_s
    );

    // Held-out midpoints of the functional interior: the table never
    // saw these coordinates, so the interpolation error is honest.
    let mut midpoints = Vec::new();
    for wi in grid.vddi.windows(2) {
        for wo in grid.vddo.windows(2) {
            let q = QueryPoint {
                slew: grid.slew[0],
                load: grid.load[0],
                vddi: 0.5 * (wi[0] + wi[1]),
                vddo: 0.5 * (wo[0] + wo[1]),
                temp: grid.temp[0],
            };
            if lib.eval_table(&q).is_some() {
                midpoints.push(q);
            }
        }
    }
    assert!(!midpoints.is_empty(), "no functional midpoints to test");

    // Exact side: the full protocol at every midpoint.
    let (exact_t, exact) = time_reps(1, || {
        midpoints
            .iter()
            .map(|q| lib.eval_exact(q).expect("exact protocol failed"))
            .collect::<Vec<_>>()
    });
    let exact_total = exact_t.best_s;
    let exact_per_query = exact_total / midpoints.len() as f64;

    // Surrogate side: the same midpoints, then a large pseudo-random
    // batch to time the lookup path without timer noise.
    let mut max_rel = 0.0f64;
    for (q, e) in midpoints.iter().zip(&exact) {
        if !e.functional {
            continue;
        }
        let s = lib.eval_table(q).expect("midpoint left the table");
        for (a, b) in [
            (s.delay_rise, e.delay_rise),
            (s.delay_fall, e.delay_fall),
            (s.power_rise, e.power_rise),
            (s.power_fall, e.power_fall),
        ] {
            let rel = (a - b).abs() / b.abs().max(1e-30);
            if rel > max_rel {
                max_rel = rel;
            }
        }
    }

    const BATCH: usize = 100_000;
    let mut rng = Xoshiro256pp::seed_from_u64(0x5557_6533);
    let (vi_lo, vi_hi) = (grid.vddi[0], *grid.vddi.last().unwrap());
    let (vo_lo, vo_hi) = (grid.vddo[0], *grid.vddo.last().unwrap());
    let queries: Vec<QueryPoint> = (0..BATCH)
        .map(|_| QueryPoint {
            slew: grid.slew[0],
            load: grid.load[0],
            vddi: rng.gen_range(vi_lo, vi_hi),
            vddo: rng.gen_range(vo_lo, vo_hi),
            temp: grid.temp[0],
        })
        .collect();
    let (surrogate_t, (served, checksum)) = time_reps(1, || {
        queries
            .iter()
            .filter_map(|q| lib.eval_table(q))
            .fold((0usize, 0.0f64), |(n, sum), m| (n + 1, sum + m.delay_rise))
    });
    let surrogate_total = surrogate_t.best_s;
    let surrogate_per_query = surrogate_total / BATCH as f64;
    let speedup = exact_per_query / surrogate_per_query;

    println!(
        "exact:     {} queries in {exact_total:.3} s ({:.2} ms/query)",
        midpoints.len(),
        exact_per_query * 1e3
    );
    println!(
        "surrogate: {BATCH} queries in {surrogate_total:.4} s ({:.0} ns/query, {served} served, \
         checksum {checksum:.3e})",
        surrogate_per_query * 1e9
    );
    println!("speedup:   {speedup:.0}x per query");
    println!(
        "max relative error over {} held-out midpoints: {:.4}%",
        midpoints.len(),
        max_rel * 100.0
    );
    assert!(
        speedup >= floors::SURROGATE_SPEEDUP,
        "surrogate speedup {speedup:.0}x is below the {}x floor",
        floors::SURROGATE_SPEEDUP
    );

    args.maybe_write_csv(&format!(
        "metric,value\nexact_s_per_query,{exact_per_query:e}\nsurrogate_s_per_query,\
         {surrogate_per_query:e}\nspeedup,{speedup}\nmax_rel_error,{max_rel:e}\n"
    ));
}
