//! Output checks against recorded references.
//!
//! A workload describes its results as [`Obs`] values: a key, the jobs
//! the result summarises, and numbers each carrying the tolerance it is
//! compared at. The reference files under `reference/` hold the same
//! keys for a set of seeds, one `<seed> <key> <value>...` line each,
//! recorded from the program with `--record`. Values are written in
//! Rust's shortest round-trip form, so a reference reads back exactly.

use std::collections::HashMap;
use std::ops::Range;

/// How a value is compared with its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tol {
    /// Bit-for-bit (both NaN also matches).
    Exact,
    /// `|x - ref| <= tol * |ref|`.
    Rel(f64),
    /// `|x - ref| <= tol`.
    Abs(f64),
}

impl Tol {
    /// `true` when `x` matches `reference` at this tolerance.
    pub fn accepts(self, x: f64, reference: f64) -> bool {
        if x.is_nan() || reference.is_nan() {
            return x.is_nan() && reference.is_nan();
        }
        match self {
            Tol::Exact => x.to_bits() == reference.to_bits(),
            Tol::Rel(t) => (x - reference).abs() <= t * reference.abs(),
            Tol::Abs(t) => (x - reference).abs() <= t,
        }
    }
}

/// One checked result of a pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Obs {
    /// Stable key, one word (no spaces).
    pub key: String,
    /// The jobs whose outcome this result summarises; a mismatch fails
    /// all of them.
    pub jobs: Range<usize>,
    /// The numbers, each with its tolerance.
    pub values: Vec<(Tol, f64)>,
}

impl Obs {
    /// Builds an observation whose values all share one tolerance.
    pub fn new(key: String, jobs: Range<usize>, tol: Tol, values: &[f64]) -> Self {
        Self {
            key,
            jobs,
            values: values.iter().map(|&v| (tol, v)).collect(),
        }
    }
}

/// Reference lines for `seed`, in the file format, one per observation.
pub fn render(seed: u64, obs: &[Obs]) -> String {
    let mut out = String::new();
    for o in obs {
        out.push_str(&format!("{seed} {}", o.key));
        for (_, v) in &o.values {
            out.push_str(&format!(" {v:?}"));
        }
        out.push('\n');
    }
    out
}

/// The recorded values for one seed, by key.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    values: HashMap<String, Vec<f64>>,
}

impl Reference {
    /// The reference for `seed` in `text`, or `None` when the file has
    /// no line for that seed.
    ///
    /// # Panics
    ///
    /// Panics on a malformed line: the reference files are part of the
    /// benchmark's source.
    pub fn for_seed(text: &str, seed: u64) -> Option<Self> {
        let mut values = HashMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let mut words = line.split_whitespace();
            let s: u64 = words
                .next()
                .and_then(|w| w.parse().ok())
                .unwrap_or_else(|| panic!("reference line without a seed: {line}"));
            if s != seed {
                continue;
            }
            let key = words.next().expect("reference line without a key");
            let nums = words
                .map(|w| {
                    w.parse()
                        .unwrap_or_else(|_| panic!("bad number {w:?} in {line}"))
                })
                .collect();
            values.insert(key.to_string(), nums);
        }
        (!values.is_empty()).then_some(Self { values })
    }

    /// Every observation that differs from the reference, with a reason.
    /// A key the reference lacks, or one it has that the pass did not
    /// produce, is a difference too.
    pub fn compare(&self, obs: &[Obs]) -> Vec<(Range<usize>, String)> {
        let mut bad = Vec::new();
        for o in obs {
            match self.values.get(&o.key) {
                None => bad.push((o.jobs.clone(), format!("{}: not in the reference", o.key))),
                Some(r) if r.len() != o.values.len() => bad.push((
                    o.jobs.clone(),
                    format!(
                        "{}: {} values, reference has {}",
                        o.key,
                        o.values.len(),
                        r.len()
                    ),
                )),
                Some(r) => {
                    if let Some(((tol, x), want)) = o
                        .values
                        .iter()
                        .zip(r)
                        .find(|((tol, x), want)| !tol.accepts(*x, **want))
                    {
                        bad.push((
                            o.jobs.clone(),
                            format!("{}: {x:?} vs reference {want:?} at {tol:?}", o.key),
                        ));
                    }
                }
            }
        }
        let produced: std::collections::HashSet<&str> =
            obs.iter().map(|o| o.key.as_str()).collect();
        let all = obs.first().map_or(0..0, |f| {
            f.jobs.start..obs.iter().map(|o| o.jobs.end).max().unwrap_or(f.jobs.end)
        });
        for key in self
            .values
            .keys()
            .filter(|k| !produced.contains(k.as_str()))
        {
            bad.push((
                all.clone(),
                format!("{key}: in the reference but not produced"),
            ));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_read_back_round_trip_exactly() {
        let obs = vec![
            Obs::new("a".into(), 0..2, Tol::Exact, &[1.0 / 3.0, f64::NAN]),
            Obs::new("b".into(), 2..3, Tol::Rel(1e-9), &[1.2345678901234567e-10]),
        ];
        let text = render(7, &obs);
        let r = Reference::for_seed(&text, 7).unwrap();
        assert!(r.compare(&obs).is_empty());
        assert!(Reference::for_seed(&text, 8).is_none());
    }

    #[test]
    fn mismatches_name_the_key_and_fail_its_jobs() {
        let obs = vec![Obs::new("a".into(), 3..5, Tol::Rel(1e-9), &[1.0])];
        let r = Reference::for_seed("1 a 1.00000001\n", 1).unwrap();
        let bad = r.compare(&obs);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, 3..5);
        assert!(bad[0].1.starts_with("a:"));
        assert!(Tol::Abs(1e-9).accepts(1.0 + 5e-10, 1.0));
        assert!(!Tol::Exact.accepts(1.0, f64::NAN));
    }
}
