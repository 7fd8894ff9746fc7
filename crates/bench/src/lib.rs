//! Shared plumbing for the table/figure regeneration binaries and the
//! measurement bins: one flag parser ([`BinArgs`]), one timer
//! ([`timing::time_reps`]), one `BENCH_*.json` writer
//! ([`artifact::Artifact`]) and every enforced floor ([`floors`]).
//!
//! The table/figure binaries accept the same tiny flag set (no
//! external CLI crate needed):
//!
//! * `--trials N` — Monte Carlo trials (default 1000, the paper's
//!   count);
//! * `--seed S` — Monte Carlo seed (default: the workspace seed, so
//!   printed rows are reproducible);
//! * `--step-mv X` — sweep grid pitch in millivolts (default 25;
//!   pass 5 for the paper's exact grid);
//! * `--temp C` — temperature in °C (default 27);
//! * `--jobs N` — worker threads for sharded runs (default: all
//!   available cores; results are identical for any value);
//! * `--csv PATH` — also write machine-readable output;
//! * `--from-lib PATH` — serve from a prebuilt characterization
//!   library artifact (built on first use) where the binary supports
//!   it (`figure8`, `table3`, `surrogate_speedup`).
//!
//! A measurement bin declares its own set through
//! [`BinArgs::parse_accepting`], valueless switches such as `--smoke`
//! included; a flag a bin does not declare is rejected.

use std::collections::{BTreeMap, BTreeSet};

use vls_core::CharacterizeOptions;
use vls_runner::RunnerOptions;

pub mod artifact;
pub mod timing;

/// The flags every table/figure binary accepts.
pub const COMMON_FLAGS: &[&str] = &[
    "--trials",
    "--seed",
    "--step-mv",
    "--temp",
    "--jobs",
    "--csv",
    "--from-lib",
];

/// Every floor and cap the measurement bins enforce, in one place. A
/// `[full, smoke]` pair is indexed by `smoke as usize`.
pub mod floors {
    /// `check_scale`: hierarchical-vs-flat speedup at the pin size
    /// (1000 instances; 240 under `--smoke`).
    pub const CHECK_SPEEDUP: [f64; 2] = [4.0, 1.5];
    /// `check_scale`: how much the per-instance hierarchical cost may
    /// grow from the smallest to the largest size (near-linear).
    pub const CHECK_LINEARITY_CAP: f64 = 8.0;
    /// `solve_scale`: default-vs-dense end-to-end speedup at the chip
    /// pin size (1 000 unknowns; 400 under `--smoke`).
    pub const SOLVE_SPEEDUP: [f64; 2] = [4.0, 1.5];
    /// `solve_scale`: default-vs-dense speedup on the Figure 3 mesh.
    pub const SOLVE_MESH_SPEEDUP: f64 = 1.2;
    /// `serve_qps`: sustained requests per second over all clients.
    /// Surrogate hits answer in microseconds; even a loaded CI runner
    /// clears this by an order of magnitude.
    pub const SERVE_QPS: f64 = 500.0;
    /// `opt_convergence`: surrogate-vs-exact speedup per evaluation.
    pub const OPT_SPEEDUP: f64 = 50.0;
    /// `opt_convergence`: the search's evaluation budget.
    pub const OPT_BUDGET: [usize; 2] = [80, 24];
    /// `opt_convergence`: the accepted optimum's surrogate-vs-exact gap.
    pub const OPT_GAP_TOLERANCE: f64 = 0.15;
    /// `surrogate_speedup`: surrogate-vs-exact speedup per query.
    pub const SURROGATE_SPEEDUP: f64 = 100.0;
}

/// Parsed command-line options for the regeneration binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct BinArgs {
    /// Monte Carlo trial count.
    pub trials: usize,
    /// Monte Carlo seed.
    pub seed: u64,
    /// Sweep pitch, volts.
    pub step_v: f64,
    /// Temperature, °C.
    pub temp_celsius: f64,
    /// Worker threads; `None` = all available cores.
    pub jobs: Option<usize>,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Optional prebuilt characterization-library artifact path.
    pub from_lib: Option<String>,
    /// Valueless switches given (`--smoke`, `--shutdown`).
    pub switches: BTreeSet<String>,
    /// Bin-specific flags with their (last) values.
    pub extra: BTreeMap<String, String>,
}

impl Default for BinArgs {
    fn default() -> Self {
        Self {
            trials: 1000,
            seed: vls_core::experiments::tables::DEFAULT_MC_SEED,
            step_v: 0.025,
            temp_celsius: 27.0,
            jobs: None,
            csv: None,
            from_lib: None,
            switches: BTreeSet::new(),
            extra: BTreeMap::new(),
        }
    }
}

impl BinArgs {
    /// Parses the [`COMMON_FLAGS`] from an iterator of arguments
    /// (typically `std::env::args().skip(1)`).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or bad values,
    /// which is the right behaviour for a measurement script.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        Self::parse_accepting(args, COMMON_FLAGS, &[])
    }

    /// Parses a bin's own flag set: each of `valued` takes a value (a
    /// common flag fills its typed field, any other lands in
    /// [`Self::extra`]), each of `switches` takes none.
    ///
    /// # Panics
    ///
    /// As [`Self::parse`]: on a flag outside both lists, a missing or
    /// bad value.
    pub fn parse_accepting(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Self {
        let mut out = Self::default();
        let mut iter = args.into_iter();
        while let Some(key) = iter.next() {
            if switches.contains(&key.as_str()) {
                out.switches.insert(key);
                continue;
            }
            if !valued.contains(&key.as_str()) {
                panic!(
                    "unknown flag {key}; supported: {}",
                    [valued, switches].concat().join(" ")
                );
            }
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("flag {key} requires a value"));
            match key.as_str() {
                "--trials" => out.trials = value.parse().expect("--trials takes an integer"),
                "--seed" => out.seed = value.parse().expect("--seed takes an integer"),
                "--step-mv" => {
                    let mv: f64 = value.parse().expect("--step-mv takes a number");
                    assert!(mv > 0.0, "--step-mv must be positive");
                    out.step_v = mv * 1e-3;
                }
                "--temp" => out.temp_celsius = value.parse().expect("--temp takes a number"),
                "--jobs" => {
                    let jobs: usize = value.parse().expect("--jobs takes an integer");
                    assert!(jobs > 0, "--jobs must be positive");
                    out.jobs = Some(jobs);
                }
                "--csv" => out.csv = Some(value),
                "--from-lib" => out.from_lib = Some(value),
                _ => {
                    out.extra.insert(key, value);
                }
            }
        }
        out
    }

    /// Whether the valueless switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// The value given for the bin-specific flag `name`.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.extra.get(name).map(String::as_str)
    }

    /// [`Self::value`] parsed as `T`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} takes a number, got {v}"))
        })
    }

    /// Characterization options at the selected temperature.
    pub fn options(&self) -> CharacterizeOptions {
        CharacterizeOptions::at_celsius(self.temp_celsius)
    }

    /// Runner configuration from `--jobs` (default: all cores).
    pub fn runner(&self) -> RunnerOptions {
        self.jobs
            .map_or_else(RunnerOptions::default, RunnerOptions::with_jobs)
    }

    /// Writes `content` to the `--csv` path if one was given.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn maybe_write_csv(&self, content: &str) {
        if let Some(path) = &self.csv {
            std::fs::write(path, content).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

/// Where a bench binary writes its `BENCH_*.json` artifact: the working
/// directory (the checked-in perf trajectory) for a full run, the
/// system temporary directory (`$TMPDIR`) under `--smoke`, so smoke
/// runs check their floors without rewriting the trajectory.
pub fn artifact_path(name: &str, smoke: bool) -> std::path::PathBuf {
    if smoke {
        std::env::temp_dir().join(name)
    } else {
        name.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_match_the_paper() {
        let a = BinArgs::default();
        assert_eq!(a.trials, 1000);
        assert_eq!(a.temp_celsius, 27.0);
        assert!((a.step_v - 0.025).abs() < 1e-12);
    }

    #[test]
    fn parses_all_flags() {
        let a = BinArgs::parse(strings(
            "--trials 50 --seed 9 --step-mv 5 --temp 90 --jobs 3 --csv /tmp/x.csv",
        ));
        assert_eq!(a.trials, 50);
        assert_eq!(a.seed, 9);
        assert!((a.step_v - 0.005).abs() < 1e-12);
        assert_eq!(a.temp_celsius, 90.0);
        assert_eq!(a.jobs, Some(3));
        assert_eq!(a.runner().effective_jobs(), 3);
        assert_eq!(a.csv.as_deref(), Some("/tmp/x.csv"));
        assert!((a.options().sim.temperature.as_celsius() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn parses_from_lib() {
        let a = BinArgs::parse(strings("--from-lib /tmp/lib.json"));
        assert_eq!(a.from_lib.as_deref(), Some("/tmp/lib.json"));
        assert_eq!(BinArgs::default().from_lib, None);
    }

    #[test]
    fn smoke_artifacts_go_to_the_temp_dir() {
        let full = artifact_path("BENCH_x.json", false);
        assert_eq!(full, std::path::PathBuf::from("BENCH_x.json"));
        let smoke = artifact_path("BENCH_x.json", true);
        assert_eq!(smoke, std::env::temp_dir().join("BENCH_x.json"));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = BinArgs::parse(strings("--bogus 1"));
    }

    #[test]
    #[should_panic(expected = "requires a value")]
    fn missing_value_panics() {
        let _ = BinArgs::parse(strings("--trials"));
    }

    #[test]
    fn switches_take_no_value_and_bin_flags_keep_theirs() {
        let a = BinArgs::parse_accepting(
            strings("--smoke --lib x.json --jobs 2 --threads 3 --shutdown"),
            &["--lib", "--jobs", "--threads"],
            &["--smoke", "--shutdown"],
        );
        assert!(a.switch("--smoke") && a.switch("--shutdown"));
        assert_eq!(a.value("--lib"), Some("x.json"));
        assert_eq!(a.parsed::<usize>("--threads"), Some(3));
        assert_eq!(a.parsed::<usize>("--queue"), None);
        assert_eq!(a.jobs, Some(2));
        assert!(!BinArgs::parse_accepting(strings(""), &[], &["--smoke"]).switch("--smoke"));
    }

    #[test]
    #[should_panic(expected = "unknown flag --smok")]
    fn a_mistyped_switch_is_rejected_not_ignored() {
        let _ = BinArgs::parse_accepting(strings("--smok"), &[], &["--smoke"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag --smoke")]
    fn a_bin_without_smoke_rejects_it() {
        let _ = BinArgs::parse(strings("--smoke"));
    }

    #[test]
    fn floors_keep_their_values_and_smoke_split() {
        use floors::*;
        assert_eq!((CHECK_SPEEDUP, CHECK_LINEARITY_CAP), ([4.0, 1.5], 8.0));
        assert_eq!((SOLVE_SPEEDUP, SOLVE_MESH_SPEEDUP), ([4.0, 1.5], 1.2));
        assert_eq!(
            (OPT_SPEEDUP, OPT_BUDGET, OPT_GAP_TOLERANCE),
            (50.0, [80, 24], 0.15)
        );
        assert_eq!((SERVE_QPS, SURROGATE_SPEEDUP), (500.0, 100.0));
    }
}
