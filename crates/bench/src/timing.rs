//! The one wall-clock timer every measurement in this crate uses.
//!
//! The workspace builds with zero registry access, so neither the
//! measurement bins nor the `cargo bench` targets can use an external
//! harness crate. [`time_reps`] runs a closure a fixed number of times
//! and keeps the best and median wall time; [`bench_function`] builds
//! the `cargo bench` report on it.

use std::time::Instant;

/// Number of timed samples per `cargo bench` benchmark.
const SAMPLES: usize = 10;

/// Target wall time per sample; [`bench_function`] batches enough
/// iterations of fast closures to reach this.
const TARGET_SAMPLE_SECS: f64 = 5e-3;

/// Best and median wall time of one closure over its reps, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The fastest rep.
    pub best_s: f64,
    /// The median rep (the upper one of the middle pair for an even
    /// rep count).
    pub median_s: f64,
}

/// Runs `f` `reps` times and returns its best and median wall time
/// together with the last rep's result.
///
/// # Panics
///
/// Panics if `reps` is zero.
pub fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (Timing, T) {
    assert!(reps > 0, "time_reps needs at least one rep");
    let mut secs = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = Some(f());
        secs.push(t0.elapsed().as_secs_f64());
    }
    secs.sort_by(f64::total_cmp);
    let timing = Timing {
        best_s: secs[0],
        median_s: secs[reps / 2],
    };
    (timing, out.expect("reps > 0"))
}

/// Times `f` and prints `name` with its per-iteration median and best.
///
/// One untimed warm-up call is followed by a calibration call that
/// picks the batch size, then [`SAMPLES`] timed batches.
pub fn bench_function(name: &str, mut f: impl FnMut()) {
    f(); // warm-up (allocator, caches, lazy statics)
    let (once, ()) = time_reps(1, &mut f);
    let iters = ((TARGET_SAMPLE_SECS / once.best_s.max(1e-9)).ceil() as usize).clamp(1, 1_000_000);
    let (t, ()) = time_reps(SAMPLES, || (0..iters).for_each(|_| f()));
    println!(
        "{name:<40} median {:>10}  best {:>10}  ({iters} iters/sample)",
        fmt_duration(t.median_s / iters as f64),
        fmt_duration(t.best_s / iters as f64),
    );
}

/// Formats a duration in seconds with an auto-selected unit.
fn fmt_duration(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_selection_covers_the_scale() {
        assert_eq!(fmt_duration(2.5e-9), "2.5 ns");
        assert_eq!(fmt_duration(3.1e-6), "3.10 µs");
        assert_eq!(fmt_duration(4.2e-3), "4.20 ms");
        assert_eq!(fmt_duration(1.5), "1.500 s");
    }

    #[test]
    fn bench_function_runs_the_closure() {
        let mut count = 0u64;
        bench_function("noop", || count += 1);
        // warm-up + calibration + SAMPLES batches of >= 1 iteration.
        assert!(count >= 2 + SAMPLES as u64);
    }

    #[test]
    fn best_is_at_most_median_and_the_last_result_is_returned() {
        let mut calls = 0u32;
        let (t, last) = time_reps(5, || {
            calls += 1;
            (0..10_000u64).fold(0u64, |a, i| a.wrapping_add(i * i))
        });
        assert_eq!(calls, 5);
        assert_eq!(last, (0..10_000u64).map(|i| i * i).sum::<u64>());
        assert!(t.best_s <= t.median_s, "{t:?}");
    }
}
