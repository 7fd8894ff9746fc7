//! Convergence and speedup bench for the `vls-opt` sizing optimizer.
//!
//! ```text
//! cargo run --release -p vls-bench --bin opt_convergence [-- --smoke --jobs N]
//! ```
//!
//! Runs the real thing — a [`SimSource`] over two SS-TVS knobs (the
//! pull-down width `w_m1` and the current-limiter width `w_mc`) at the
//! paper's 0.8 V → 1.2 V corner — through the surrogate-served search,
//! then measures the per-evaluation cost of the surrogate probe
//! against the exact characterization protocol (min-of-reps on both
//! sides). The run fails loudly when the optimizer exceeds its
//! evaluation budget, when the accepted optimum's surrogate-vs-exact
//! gap breaks tolerance, or when the per-evaluation speedup falls
//! under the 50× floor; all three are checked before a full run writes
//! the `BENCH_opt.json` artifact.
//!
//! `--smoke` shrinks the grid and budget to CI size and writes its JSON
//! under `$TMPDIR`; the measured speedup floor is identical in both
//! modes (it is per-evaluation, not per-run).

use vls_bench::artifact::Artifact;
use vls_bench::timing::time_reps;
use vls_bench::{floors, BinArgs, COMMON_FLAGS};
use vls_cells::VoltagePair;
use vls_charlib::json_obj;
use vls_opt::{
    optimize, CostSource, Knob, Objective, OptimizerConfig, ParamSpace, SimSource, SizingSurrogate,
    SurrogateConfig, Verdict,
};

fn main() {
    let args = BinArgs::parse_accepting(std::env::args().skip(1), COMMON_FLAGS, &["--smoke"]);
    let smoke = args.switch("--smoke");
    let (samples, restarts) = if smoke { (3, 0) } else { (4, 1) };
    let budget = floors::OPT_BUDGET[smoke as usize];
    let space = ParamSpace::new(vec![
        Knob::new("w_m1", 0.4, 0.8, 0.05),
        Knob::new("w_mc", 0.8, 1.6, 0.1),
    ])
    .expect("bench space is statically valid");
    let mut source = SimSource::new(space.clone(), VoltagePair::low_to_high());
    source.options = args.options();
    let runner = args.runner();

    let (fill_t, surrogate) = time_reps(1, || {
        SizingSurrogate::build(
            &space,
            &SurrogateConfig {
                samples_per_knob: samples,
                trust_margin: 0.25,
            },
            &source,
            &runner,
        )
        .expect("surrogate fill failed")
    });
    let fill_s = fill_t.best_s;
    let n_fill = surrogate.table().grid().n_points();
    println!(
        "surrogate: {n_fill} exact fills in {fill_s:.2} s ({} non-functional)",
        surrogate.fill_failures
    );

    let objective = Objective::DelayAtLeakageCap {
        cap_amps: f64::INFINITY,
    };
    let config = OptimizerConfig {
        budget,
        restarts,
        seed: args.seed,
        gap_tolerance: floors::OPT_GAP_TOLERANCE,
        runner,
    };
    let (search_t, outcome) = time_reps(1, || {
        optimize(&space, &objective, &source, Some(&surrogate), &config).expect("search failed")
    });
    let search_s = search_t.best_s;
    print!("{}", outcome.render());
    println!("search wall time: {search_s:.3} s");

    // Hard gates: an accepted optimum; its gap and the budget are
    // checked with the speedup floor below.
    let best = outcome
        .best_restart()
        .expect("no restart optimum survived exact verification");
    assert_eq!(best.verification.verdict, Verdict::Accepted);
    let gap = best
        .verification
        .gap
        .expect("accepted optimum carries a gap");
    let evals_to_best = outcome
        .trajectory
        .iter()
        .rfind(|s| s.restart == best.restart && s.accepted)
        .map_or(0, |s| s.eval_index + 1);
    println!(
        "evaluations to optimum: {evals_to_best} (of {} used)",
        outcome.evaluations
    );

    // Per-evaluation speedup, min-of-reps on both sides. The exact
    // side runs the full characterization protocol once per rep; the
    // surrogate side amortizes a probe batch per rep.
    let mid = vec![0.5 * (0.4 + 0.8), 0.5 * (0.8 + 1.6)];
    let (exact_t, _) = time_reps(3, || {
        let m = source
            .exact(&mid)
            .expect("exact midpoint evaluation failed");
        assert!(m.functional, "bench midpoint must be functional");
    });
    let exact_per_eval = exact_t.best_s;
    const BATCH: usize = 20_000;
    let mut checksum = 0.0f64;
    let (surrogate_t, _) = time_reps(3, || {
        for i in 0..BATCH {
            // Jittered in-hull probes so the loop cannot be hoisted.
            let f = i as f64 / BATCH as f64;
            let q = [0.4 + 0.4 * f, 1.6 - 0.8 * f];
            checksum += surrogate
                .probe(&q)
                .expect("in-hull probe refused")
                .delay_rise;
        }
    });
    let surrogate_per_eval = surrogate_t.best_s / BATCH as f64;
    let speedup = exact_per_eval / surrogate_per_eval;
    println!("exact:     {:.2} ms/eval (min of 3)", exact_per_eval * 1e3);
    println!(
        "surrogate: {:.0} ns/eval (min of 3 x {BATCH}, checksum {checksum:.3e})",
        surrogate_per_eval * 1e9
    );
    println!("speedup:   {speedup:.0}x per evaluation");

    let a = &outcome.accounting;
    Artifact::new("opt", smoke)
        .floor("speedup_per_eval", speedup, floors::OPT_SPEEDUP)
        .cap("evaluations", outcome.evaluations as f64, budget as f64)
        .cap("gap", gap, config.gap_tolerance)
        .field(
            "space",
            "w_m1 [0.4, 0.8] step 0.05 x w_mc [0.8, 1.6] step 0.1",
        )
        .field("surrogate_fill_points", n_fill)
        .field("surrogate_fill_s", fill_s)
        .field("evals_to_optimum", evals_to_best)
        .field("search_s", search_s)
        .field(
            "accounting",
            json_obj!(
                "surrogate_hits": a.surrogate_hits, "exact_evals": a.exact_evals,
                "fallbacks": a.fallback_out_of_trust + a.fallback_clamped_corner
                    + a.fallback_non_functional,
                "verifications": a.verification_evals,
            ),
        )
        .field(
            "best",
            json_obj!(
                "w_m1": best.best[0], "w_mc": best.best[1],
                "exact_delay_s": best.verification.exact_cost,
            ),
        )
        .field("exact_s_per_eval", exact_per_eval)
        .field("surrogate_s_per_eval", surrogate_per_eval)
        .write();

    args.maybe_write_csv(&format!(
        "metric,value\nevaluations,{}\nevals_to_optimum,{evals_to_best}\nexact_s_per_eval,\
         {exact_per_eval:e}\nsurrogate_s_per_eval,{surrogate_per_eval:e}\nspeedup,{speedup}\n",
        outcome.evaluations
    ));
}
