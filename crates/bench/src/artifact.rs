//! The one writer of the `BENCH_*.json` perf trajectory.
//!
//! Every artifact has the same top level — `bench`, `mode`
//! (`"full"`/`"smoke"`), `provenance` (`rev`, `host_threads`) and
//! `floors` — followed by the bench's own members. [`Artifact::write`]
//! checks every floor before it touches the file, so a run that misses
//! one never lands in the trajectory, and sends `--smoke` runs to
//! `$TMPDIR` through [`crate::artifact_path`].

use std::path::Path;

use vls_charlib::json::{self, Json};
use vls_charlib::json_obj;

/// A `BENCH_<bench>.json` artifact under construction.
#[derive(Debug, Clone)]
pub struct Artifact {
    bench: String,
    smoke: bool,
    floors: Vec<Json>,
    /// Every bound the run missed, as a readable line.
    missed: Vec<String>,
    members: Vec<(String, Json)>,
}

impl Artifact {
    /// An empty artifact for `bench` in smoke or full mode.
    pub fn new(bench: &str, smoke: bool) -> Self {
        Self {
            bench: bench.to_string(),
            smoke,
            floors: Vec::new(),
            missed: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Requires `value >= floor` (a NaN never meets it).
    pub fn floor(&mut self, name: &str, value: f64, floor: f64) -> &mut Self {
        self.bound("floor", name, value, floor)
    }

    /// Requires `value <= cap` (a NaN never meets it).
    pub fn cap(&mut self, name: &str, value: f64, cap: f64) -> &mut Self {
        self.bound("cap", name, value, cap)
    }

    fn bound(&mut self, key: &str, name: &str, value: f64, bound: f64) -> &mut Self {
        let (op, held) = if key == "cap" {
            ("<=", value <= bound)
        } else {
            (">=", value >= bound)
        };
        let entry = [
            ("name", name.into()),
            ("value", value.into()),
            (key, bound.into()),
        ];
        self.floors
            .push(Json::Obj(entry.map(|(k, v)| (k.to_string(), v)).to_vec()));
        if held {
            println!("  held: {name} = {value:.4} {op} {bound}");
        } else {
            self.missed
                .push(format!("{name} = {value} is not {op} {bound}"));
        }
        self
    }

    /// Appends one bench-specific top-level member.
    pub fn field(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.members.push((key.to_string(), value.into()));
        self
    }

    /// The common top level, then the members.
    fn document(&self) -> Json {
        let mut doc = json_obj!(
            "bench": self.bench.as_str(),
            "mode": if self.smoke { "smoke" } else { "full" },
            "provenance": provenance(),
            "floors": self.floors.clone(),
        );
        if let Json::Obj(top) = &mut doc {
            top.extend(self.members.iter().cloned());
        }
        doc
    }

    /// Checks every floor and cap, then writes `BENCH_<bench>.json` to
    /// the working directory (full mode) or `$TMPDIR` (smoke mode).
    ///
    /// # Panics
    ///
    /// On any missed bound, before anything is written, or if the file
    /// cannot be written.
    pub fn write(&self) {
        let name = format!("BENCH_{}.json", self.bench);
        self.write_to(&crate::artifact_path(&name, self.smoke))
    }

    /// [`Self::write`] to an explicit path.
    ///
    /// # Panics
    ///
    /// As [`Self::write`].
    pub fn write_to(&self, path: &Path) {
        assert!(self.missed.is_empty(), "missed: {}", self.missed.join("; "));
        std::fs::write(path, json::render(&self.document()))
            .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// The revision the working tree is checked out at
/// (`git rev-parse --short HEAD`, `"unknown"` outside a git checkout;
/// uncommitted edits are not marked) and the host's thread count.
fn provenance() -> Json {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = rev.as_deref().unwrap_or("unknown");
    json_obj!("rev": rev, "host_threads": host_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut a = Artifact::new("unit", true);
        let rows = vec![
            json_obj!("n": 100usize, "t_s": 1.25e-3),
            json_obj!("n": 1000usize, "t_s": f64::NAN),
        ];
        a.floor("speedup", 11.5, 4.0)
            .cap("growth", 0.95, 8.0)
            .field("rows", rows)
            .field("mutated", json_obj!("rules": vec![Json::from("ERC009")]));
        a
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let doc = sample().document();
        let text = json::render(&doc);
        let back = json::parse(&text).expect("rendered artifact parses");
        assert_eq!(json::render(&back), text);
        for key in ["bench", "mode", "provenance", "floors", "mutated"] {
            assert_eq!(back.get(key), doc.get(key), "{key}");
        }
        // Bit-exact values; the non-finite one reads back as null.
        let rows = back.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows[0], doc.get("rows").unwrap().as_arr().unwrap()[0]);
        assert_eq!(rows[1].get("t_s"), Some(&Json::Null));
        let head =
            "{\n  \"bench\": \"unit\",\n  \"mode\": \"smoke\",\n  \"provenance\": {\"rev\": ";
        assert!(text.starts_with(head), "{text}");
        assert!(text.contains(
            "\n  \"floors\": [\n    {\"name\": \"speedup\", \"value\": 11.5, \"floor\": 4},"
        ));
        assert!(text.contains("\n  \"rows\": [\n    {\"n\": 100, \"t_s\": 0.00125},\n"));
    }

    #[test]
    fn an_unmet_floor_panics_and_writes_nothing() {
        let path = std::env::temp_dir().join(format!("BENCH_unit_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut unmet = sample();
        unmet.floor("qps", 120.0, 500.0).cap("gap", f64::NAN, 0.15);
        let err = std::panic::catch_unwind(|| unmet.write_to(&path)).expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert_eq!(
            msg,
            "missed: qps = 120 is not >= 500; gap = NaN is not <= 0.15"
        );
        assert!(!path.exists(), "{msg}, yet the artifact was written");
        sample().write_to(&path);
        assert!(json::parse(&std::fs::read_to_string(&path).unwrap()).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checked_in_artifacts_are_full_runs_with_the_common_top_level() {
        for text in [
            include_str!("../../../BENCH_check.json"),
            include_str!("../../../BENCH_opt.json"),
            include_str!("../../../BENCH_serve.json"),
            include_str!("../../../BENCH_solve.json"),
        ] {
            let doc = json::parse(text).expect("checked-in artifact parses");
            assert_eq!(doc.get("mode").and_then(Json::as_str), Some("full"));
            let prov = doc.get("provenance").expect("provenance");
            assert!(prov.get("rev").and_then(Json::as_str).is_some());
            assert!(prov.get("host_threads").and_then(Json::as_num).is_some());
            assert!(doc
                .get("floors")
                .and_then(Json::as_arr)
                .is_some_and(|f| !f.is_empty()));
        }
    }
}
