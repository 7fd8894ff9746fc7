//! Liberty-style characterization tables for the paper's shifter
//! cells: precompute-then-serve.
//!
//! The paper's headline results (Tables 3–4, Figures 8–9) are a
//! characterization grid — delay/power/leakage of a cell over
//! `(input slew, output load, VDDI, VDDO, temperature)` — yet every
//! query used to re-run a full transient. SoC-scale consumers
//! (level-shifter-assignment floorplanners, design-space exploration)
//! issue millions of point queries; those are table lookups, not SPICE
//! runs. This crate is that serving layer:
//!
//! 1. [`GridSpec`] — the five-axis grid, filled in parallel through
//!    `vls-runner` with the exact `vls-core` measurement protocol
//!    (results are bit-identical for every worker count);
//! 2. an on-disk, versioned, std-only JSON artifact keyed by a content
//!    hash of cell kind + device parameters + grid + protocol, so a
//!    stale artifact is *detected and rebuilt*, never silently served
//!    ([`CharLib::load_or_build`]);
//! 3. [`CharLib::eval`] — clamped multilinear interpolation with a
//!    per-axis trust region: inside the region the answer comes from
//!    the table in sub-microsecond time; outside it the query falls
//!    back to an exact transient and the miss is recorded;
//! 4. a Liberty-style NLDM `.lib` exporter ([`CharLib::to_liberty`])
//!    so external EDA flows can consume the tables.
//!
//! # Example
//!
//! ```no_run
//! use vls_charlib::{CharLib, GridSpec, QueryPoint};
//! use vls_cells::ShifterKind;
//! use vls_core::CharacterizeOptions;
//! use vls_runner::RunnerOptions;
//!
//! # fn main() -> Result<(), vls_charlib::CharLibError> {
//! let grid = GridSpec::rails(0.8, 1.4, 0.1, vec![27.0])?;
//! let (lib, status) = CharLib::load_or_build(
//!     "sstvs.charlib.json",
//!     &ShifterKind::sstvs(),
//!     &CharacterizeOptions::default(),
//!     grid,
//!     &RunnerOptions::default(),
//! )?;
//! println!("library {status:?}, {} points", lib.grid().n_points());
//! let ev = lib.eval(&QueryPoint {
//!     slew: 50e-12,
//!     load: 1e-15,
//!     vddi: 0.85,
//!     vddo: 1.25,
//!     temp: 27.0,
//! })?;
//! println!("rise delay {:.3} ps (source {:?})", ev.metrics.delay_rise * 1e12, ev.source);
//! # Ok(())
//! # }
//! ```

mod artifact;
mod grid;
mod interp;
pub mod json;
mod liberty;
pub mod ndgrid;
mod surface;

pub use artifact::{content_hash, FORMAT_VERSION};
pub use grid::{GridSpec, QueryPoint, AXIS_NAMES};
pub use liberty::LibertyCorner;
pub use ndgrid::{NdFallback, NdGrid, NdTable};
pub use surface::delay_surface_from_lib;

use std::sync::atomic::{AtomicU64, Ordering};

use vls_cells::{ShifterKind, VoltagePair};
use vls_core::{characterize, CellMetrics, CharacterizeOptions, CoreError};
use vls_runner::RunnerOptions;
use vls_units::Temperature;

/// Errors from building, loading or querying a characterization
/// library.
#[derive(Debug)]
pub enum CharLibError {
    /// The grid specification is unusable.
    BadGrid(String),
    /// Artifact file I/O failed.
    Io(std::io::Error),
    /// The artifact does not parse or violates the schema.
    Parse(String),
    /// The artifact's format version is not supported by this build.
    Format {
        /// Version found in the artifact.
        found: u32,
    },
    /// The artifact's content hash does not match the requested cell +
    /// protocol — it was built for something else and must be rebuilt,
    /// not served.
    Stale {
        /// Hash recomputed from the requested cell/protocol/grid.
        expected: u64,
        /// Hash recorded in the artifact.
        found: u64,
    },
    /// The exact-simulation fallback failed.
    Sim(CoreError),
    /// The requested Liberty export is not possible.
    Liberty(String),
}

impl core::fmt::Display for CharLibError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CharLibError::BadGrid(msg) => write!(f, "bad grid: {msg}"),
            CharLibError::Io(e) => write!(f, "artifact io error: {e}"),
            CharLibError::Parse(msg) => write!(f, "artifact parse error: {msg}"),
            CharLibError::Format { found } => write!(
                f,
                "unsupported artifact format {found} (this build reads {FORMAT_VERSION})"
            ),
            CharLibError::Stale { expected, found } => write!(
                f,
                "stale artifact: content hash {found:#018x} does not match requested \
                 cell/protocol/grid {expected:#018x}; rebuild required"
            ),
            CharLibError::Sim(e) => write!(f, "exact fallback failed: {e}"),
            CharLibError::Liberty(msg) => write!(f, "liberty export: {msg}"),
        }
    }
}

impl std::error::Error for CharLibError {}

impl From<std::io::Error> for CharLibError {
    fn from(e: std::io::Error) -> Self {
        CharLibError::Io(e)
    }
}

impl From<CoreError> for CharLibError {
    fn from(e: CoreError) -> Self {
        CharLibError::Sim(e)
    }
}

/// The six metrics of one operating point, in SI base units (seconds,
/// watts, amperes) — the table-native mirror of
/// [`vls_core::CellMetrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableMetrics {
    /// Output rising delay, s.
    pub delay_rise: f64,
    /// Output falling delay, s.
    pub delay_fall: f64,
    /// Average switching power, rising-output event, W.
    pub power_rise: f64,
    /// Average switching power, falling-output event, W.
    pub power_fall: f64,
    /// Steady-state VDDO-referred leakage, output high, A.
    pub leakage_high: f64,
    /// Steady-state VDDO-referred leakage, output low, A.
    pub leakage_low: f64,
    /// `true` when the cell translated correctly at this point.
    pub functional: bool,
}

impl TableMetrics {
    /// Converts a [`vls_core::CellMetrics`] measurement into the
    /// table-native representation — the bridge external evaluators
    /// (the `vls-opt` sizing optimizer's exact path) use to speak the
    /// same metric vocabulary as the tables.
    pub fn from_cell_metrics(m: &CellMetrics) -> Self {
        Self::from_cell(m)
    }

    fn from_cell(m: &CellMetrics) -> Self {
        Self {
            delay_rise: m.delay_rise.value(),
            delay_fall: m.delay_fall.value(),
            power_rise: m.power_rise.value(),
            power_fall: m.power_fall.value(),
            leakage_high: m.leakage_high.value(),
            leakage_low: m.leakage_low.value(),
            functional: m.functional,
        }
    }

    fn failed() -> Self {
        Self {
            delay_rise: f64::NAN,
            delay_fall: f64::NAN,
            power_rise: f64::NAN,
            power_fall: f64::NAN,
            leakage_high: f64::NAN,
            leakage_low: f64::NAN,
            functional: false,
        }
    }
}

/// Why a query could not be served from the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The query left the trust region of the named axis.
    OutOfTrustRegion(&'static str),
    /// The query clamps onto the grid hull on two or more axes at
    /// once. Single-axis clamping inside the trust margin is ordinary
    /// edge extrapolation; a *corner* clamp compounds the per-axis
    /// extrapolation error multiplicatively, so it is refused and
    /// counted separately — optimizers probe corners constantly, and
    /// silently served corner values would skew the search.
    ClampedCorner,
    /// A grid point the interpolation would read is non-functional
    /// (the cell does not translate there), so the surrounding table
    /// cell cannot be trusted.
    NonFunctionalRegion,
}

/// Where an evaluation's numbers came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalSource {
    /// The interpolated table fast path.
    Table,
    /// An exact transient, after the recorded fallback.
    Exact(FallbackReason),
}

/// One answered query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The metrics at the query point.
    pub metrics: TableMetrics,
    /// Fast path or exact fallback.
    pub source: EvalSource,
}

/// The filled tables, flat row-major vectors parallel to
/// [`GridSpec::point`] indexing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Tables {
    pub(crate) delay_rise: Vec<f64>,
    pub(crate) delay_fall: Vec<f64>,
    pub(crate) power_rise: Vec<f64>,
    pub(crate) power_fall: Vec<f64>,
    pub(crate) leakage_high: Vec<f64>,
    pub(crate) leakage_low: Vec<f64>,
    pub(crate) functional: Vec<bool>,
}

impl Tables {
    pub(crate) fn metrics_at(&self, flat: usize) -> TableMetrics {
        TableMetrics {
            delay_rise: self.delay_rise[flat],
            delay_fall: self.delay_fall[flat],
            power_rise: self.power_rise[flat],
            power_fall: self.power_fall[flat],
            leakage_high: self.leakage_high[flat],
            leakage_low: self.leakage_low[flat],
            functional: self.functional[flat],
        }
    }
}

/// How [`CharLib::load_or_build`] obtained the library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildStatus {
    /// A valid artifact was loaded from disk.
    Loaded,
    /// No artifact existed; the grid was filled and saved.
    BuiltMissing,
    /// An artifact existed but could not be served (stale hash, wrong
    /// format, different grid, schema violation); it was rebuilt and
    /// overwritten. The string says why.
    Rebuilt(String),
}

/// A coherent point-in-time snapshot of the surrogate traffic
/// counters: both fields come from one atomic load of the packed
/// counter word, so `hits + misses` always equals the number of
/// queries whose outcome had been recorded at the instant of the
/// snapshot — a concurrent reader can never observe a torn pair
/// (e.g. a hit counted but "not yet" visible next to a later miss
/// that is). Each class is 32 bits wide and wraps independently at
/// `2^32`; serving-scale consumers that need wider counters should
/// difference snapshots periodically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurrogateCounters {
    /// Queries served from the table since construction.
    pub hits: u64,
    /// Queries that needed the exact path since construction.
    pub misses: u64,
}

impl SurrogateCounters {
    /// Total recorded query outcomes.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Hit unit of the packed counter word: hits live in the high 32 bits,
/// misses in the low 32, so one `fetch_add` records an outcome and one
/// `load` reads a coherent (hits, misses) pair.
const HIT_UNIT: u64 = 1 << 32;

/// A characterization library: the filled grid plus everything needed
/// to fall back to an exact simulation for untrusted queries.
#[derive(Debug)]
pub struct CharLib {
    kind: ShifterKind,
    base: CharacterizeOptions,
    grid: GridSpec,
    content_hash: u64,
    tables: Tables,
    /// Packed traffic counters: `hits << 32 | misses`. Exactly one
    /// `fetch_add` per recorded outcome — never two separate counter
    /// updates a reader could observe half-applied.
    counters: AtomicU64,
    /// Queries refused because they clamped on ≥ 2 axes at once. A
    /// separate word, not a third field in the packed counter: every
    /// corner clamp is *also* recorded as a miss (the query does fall
    /// back to the exact path), so the hit/miss balance invariants
    /// served by [`SurrogateCounters`] are untouched.
    corner_clamps: AtomicU64,
}

impl CharLib {
    /// Fills the grid for `kind` by running the exact measurement
    /// protocol at every point, sharded across workers per `runner`.
    /// Points where the protocol fails (the cell does not translate,
    /// an edge never appears, the engine diverges) are recorded as
    /// non-functional, not errors — exactly like the Figure 8/9 sweep.
    /// The filled tables are bit-identical for every worker count.
    ///
    /// `base` carries the protocol constants (tolerances, power
    /// window); its slew/load/temperature are overridden per grid
    /// point.
    pub fn build(
        kind: &ShifterKind,
        base: &CharacterizeOptions,
        grid: GridSpec,
        runner: &RunnerOptions,
    ) -> Self {
        let n = grid.n_points();
        let points = vls_runner::run_indexed(n, runner, |flat| {
            let q = grid.point(flat);
            match characterize(
                kind,
                VoltagePair::new(q.vddi, q.vddo),
                &options_at(base, &q),
            ) {
                Ok(m) => TableMetrics::from_cell(&m),
                Err(_) => TableMetrics::failed(),
            }
        });
        let mut tables = Tables {
            delay_rise: Vec::with_capacity(n),
            delay_fall: Vec::with_capacity(n),
            power_rise: Vec::with_capacity(n),
            power_fall: Vec::with_capacity(n),
            leakage_high: Vec::with_capacity(n),
            leakage_low: Vec::with_capacity(n),
            functional: Vec::with_capacity(n),
        };
        for m in points {
            tables.delay_rise.push(m.delay_rise);
            tables.delay_fall.push(m.delay_fall);
            tables.power_rise.push(m.power_rise);
            tables.power_fall.push(m.power_fall);
            tables.leakage_high.push(m.leakage_high);
            tables.leakage_low.push(m.leakage_low);
            tables.functional.push(m.functional);
        }
        let content_hash = content_hash(kind, base, &grid);
        Self {
            kind: kind.clone(),
            base: base.clone(),
            grid,
            content_hash,
            tables,
            counters: AtomicU64::new(0),
            corner_clamps: AtomicU64::new(0),
        }
    }

    pub(crate) fn from_parts(
        kind: ShifterKind,
        base: CharacterizeOptions,
        grid: GridSpec,
        content_hash: u64,
        tables: Tables,
    ) -> Self {
        Self {
            kind,
            base,
            grid,
            content_hash,
            tables,
            counters: AtomicU64::new(0),
            corner_clamps: AtomicU64::new(0),
        }
    }

    /// Loads an artifact and verifies it against the requested cell +
    /// protocol, then — when the file is missing, stale, unreadable or
    /// built over a different grid — fills `grid` from scratch and
    /// saves the fresh artifact over it. A stale artifact is never
    /// silently served.
    ///
    /// # Errors
    ///
    /// Propagates artifact I/O failures (other than the file simply
    /// not existing) and grid validation failures.
    pub fn load_or_build(
        path: impl AsRef<std::path::Path>,
        kind: &ShifterKind,
        base: &CharacterizeOptions,
        grid: GridSpec,
        runner: &RunnerOptions,
    ) -> Result<(Self, BuildStatus), CharLibError> {
        let path = path.as_ref();
        let rebuild = |status: BuildStatus| -> Result<(Self, BuildStatus), CharLibError> {
            let lib = Self::build(kind, base, grid.clone(), runner);
            lib.save(path)?;
            Ok((lib, status))
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return rebuild(BuildStatus::BuiltMissing);
            }
            Err(e) => return Err(CharLibError::Io(e)),
        };
        match Self::load_json(&text, kind, base) {
            Ok(lib) if lib.grid == grid => Ok((lib, BuildStatus::Loaded)),
            Ok(_) => rebuild(BuildStatus::Rebuilt("grid specification changed".into())),
            Err(e @ (CharLibError::Stale { .. } | CharLibError::Format { .. })) => {
                rebuild(BuildStatus::Rebuilt(e.to_string()))
            }
            Err(CharLibError::Parse(msg)) => {
                rebuild(BuildStatus::Rebuilt(format!("artifact unreadable: {msg}")))
            }
            Err(e) => Err(e),
        }
    }

    /// Loads and verifies an artifact file for the given cell +
    /// protocol.
    ///
    /// # Errors
    ///
    /// [`CharLibError::Io`] on read failure, and everything
    /// [`Self::load_json`] reports.
    pub fn load(
        path: impl AsRef<std::path::Path>,
        kind: &ShifterKind,
        base: &CharacterizeOptions,
    ) -> Result<Self, CharLibError> {
        Self::load_json(&std::fs::read_to_string(path)?, kind, base)
    }

    /// Saves the artifact as canonical JSON. Round-tripping the file
    /// through [`Self::load`] and saving again is byte-identical.
    ///
    /// # Errors
    ///
    /// [`CharLibError::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CharLibError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// The cell this library characterizes.
    pub fn kind(&self) -> &ShifterKind {
        &self.kind
    }

    /// The protocol constants the grid was filled with.
    pub fn base_options(&self) -> &CharacterizeOptions {
        &self.base
    }

    /// The grid specification.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The artifact's content hash (cell kind + device parameters +
    /// protocol + grid).
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Records one query outcome with a single packed `fetch_add`, the
    /// only write the counter word ever sees.
    fn record(&self, hit: bool) {
        let unit = if hit { HIT_UNIT } else { 1 };
        self.counters.fetch_add(unit, Ordering::Relaxed);
    }

    /// A coherent snapshot of the traffic counters: one atomic load of
    /// the packed word, so the pair can never tear under concurrent
    /// writers the way two independent loads could.
    pub fn counter_snapshot(&self) -> SurrogateCounters {
        let word = self.counters.load(Ordering::Relaxed);
        SurrogateCounters {
            hits: word >> 32,
            misses: word & 0xffff_ffff,
        }
    }

    /// Queries served from the table since construction.
    pub fn hit_count(&self) -> u64 {
        self.counter_snapshot().hits
    }

    /// Queries that fell back to an exact transient since
    /// construction.
    pub fn miss_count(&self) -> u64 {
        self.counter_snapshot().misses
    }

    /// Queries refused because they clamped onto the grid hull on two
    /// or more axes simultaneously (a strict subset of
    /// [`Self::miss_count`] — every corner clamp is also a miss).
    pub fn corner_clamp_count(&self) -> u64 {
        self.corner_clamps.load(Ordering::Relaxed)
    }

    /// The stored metrics of grid point `flat` (no interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `flat` is out of range.
    pub fn point_metrics(&self, flat: usize) -> TableMetrics {
        self.tables.metrics_at(flat)
    }

    /// The table fast path alone: clamped multilinear interpolation,
    /// `None` when the query is outside the trust region or a grid
    /// point it would read is non-functional. Does not touch the
    /// hit/miss counters — use [`Self::eval`] for served traffic.
    pub fn eval_table(&self, q: &QueryPoint) -> Option<TableMetrics> {
        if self.grid.out_of_trust(q).is_some() || self.grid.clamped_axes(q) >= 2 {
            return None;
        }
        interp::interpolate(&self.grid, &self.tables, q)
    }

    /// The counted table fast path: serves the query from the surrogate
    /// and records a hit, or records a miss and says why the caller
    /// must fall back to an exact transient. This is the single place
    /// the traffic counters are written, so any front end built on it
    /// (the CLI, `vls-serve`) shares one counting discipline.
    pub fn probe_table(&self, q: &QueryPoint) -> Result<TableMetrics, FallbackReason> {
        if let Some(axis) = self.grid.out_of_trust(q) {
            self.record(false);
            return Err(FallbackReason::OutOfTrustRegion(axis));
        }
        // Inside the trust margin but beyond the hull on ≥ 2 axes:
        // the interpolation would extrapolate a *corner*, compounding
        // per-axis error. Refuse and force the exact path.
        if self.grid.clamped_axes(q) >= 2 {
            self.corner_clamps.fetch_add(1, Ordering::Relaxed);
            self.record(false);
            return Err(FallbackReason::ClampedCorner);
        }
        match interp::interpolate(&self.grid, &self.tables, q) {
            Some(metrics) => {
                self.record(true);
                Ok(metrics)
            }
            None => {
                self.record(false);
                Err(FallbackReason::NonFunctionalRegion)
            }
        }
    }

    /// Answers a query: from the table when the point is trusted,
    /// otherwise via an exact transient (recording the miss).
    ///
    /// # Errors
    ///
    /// [`CharLibError::Sim`] when the exact fallback itself fails —
    /// the table fast path cannot fail.
    pub fn eval(&self, q: &QueryPoint) -> Result<Evaluation, CharLibError> {
        match self.probe_table(q) {
            Ok(metrics) => Ok(Evaluation {
                metrics,
                source: EvalSource::Table,
            }),
            Err(reason) => self.eval_exact(q).map(|metrics| Evaluation {
                metrics,
                source: EvalSource::Exact(reason),
            }),
        }
    }

    /// Runs the exact measurement protocol at `q` — the fallback path,
    /// also usable directly as the ground truth in accuracy checks.
    ///
    /// # Errors
    ///
    /// [`CharLibError::Sim`] when the protocol fails at this point.
    pub fn eval_exact(&self, q: &QueryPoint) -> Result<TableMetrics, CharLibError> {
        self.eval_exact_opts(q, &self.base)
    }

    /// [`Self::eval_exact`] with caller-supplied protocol constants:
    /// `base` replaces the library's stored options before the grid
    /// coordinates are substituted in. Lets a server thread its own
    /// solver budgets and fault plan through the exact path without
    /// rebuilding the library.
    ///
    /// # Errors
    ///
    /// [`CharLibError::Sim`] when the protocol fails at this point.
    pub fn eval_exact_opts(
        &self,
        q: &QueryPoint,
        base: &CharacterizeOptions,
    ) -> Result<TableMetrics, CharLibError> {
        let m = characterize(
            &self.kind,
            VoltagePair::new(q.vddi, q.vddo),
            &options_at(base, q),
        )?;
        Ok(TableMetrics::from_cell(&m))
    }
}

/// The per-point protocol options: `base` with the grid coordinates
/// substituted in.
fn options_at(base: &CharacterizeOptions, q: &QueryPoint) -> CharacterizeOptions {
    let mut o = base.clone();
    o.input_slew = q.slew;
    o.load_farads = q.load;
    o.sim.temperature = Temperature::from_celsius(q.temp);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic single-point library: every axis is a singleton, so
    /// an on-grid query interpolates trivially (hit) and any distant
    /// coordinate leaves the trust region (miss) — no simulation runs.
    fn one_point_lib() -> CharLib {
        let grid = GridSpec::new(
            vec![50e-12],
            vec![1e-15],
            vec![1.0],
            vec![1.0],
            vec![27.0],
            0.0,
        )
        .unwrap();
        let tables = Tables {
            delay_rise: vec![1e-10],
            delay_fall: vec![1e-10],
            power_rise: vec![1e-6],
            power_fall: vec![1e-6],
            leakage_high: vec![1e-9],
            leakage_low: vec![1e-9],
            functional: vec![true],
        };
        CharLib::from_parts(
            ShifterKind::sstvs(),
            CharacterizeOptions::default(),
            grid,
            0,
            tables,
        )
    }

    #[test]
    fn probe_table_records_hits_and_misses() {
        let lib = one_point_lib();
        let on_grid = QueryPoint {
            slew: 50e-12,
            load: 1e-15,
            vddi: 1.0,
            vddo: 1.0,
            temp: 27.0,
        };
        assert!(lib.probe_table(&on_grid).is_ok());
        let far = QueryPoint {
            vddi: 5.0,
            ..on_grid
        };
        assert_eq!(
            lib.probe_table(&far),
            Err(FallbackReason::OutOfTrustRegion("vddi"))
        );
        let snap = lib.counter_snapshot();
        assert_eq!(snap, SurrogateCounters { hits: 1, misses: 1 });
        assert_eq!(snap.total(), 2);
        assert_eq!(lib.hit_count(), 1);
        assert_eq!(lib.miss_count(), 1);
    }

    /// Loom-free counter stress: writer threads alternate hit/miss
    /// probes while a reader scrapes snapshots. Each writer is at most
    /// one probe ahead on hits, so every *coherent* snapshot satisfies
    /// `hits - misses ∈ [0, n_threads]`; a torn two-word read could
    /// violate that by an unbounded margin. Exact final totals prove no
    /// update was lost to a read-modify-write race.
    #[test]
    fn counter_snapshot_is_coherent_under_concurrent_probes() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        const THREADS: u64 = 8;
        const CYCLES: u64 = 4000;

        let lib = Arc::new(one_point_lib());
        let on_grid = QueryPoint {
            slew: 50e-12,
            load: 1e-15,
            vddi: 1.0,
            vddo: 1.0,
            temp: 27.0,
        };
        let far = QueryPoint {
            vddi: 5.0,
            ..on_grid
        };

        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let lib = Arc::clone(&lib);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let s = lib.counter_snapshot();
                    assert!(
                        s.hits >= s.misses && s.hits - s.misses <= THREADS,
                        "torn snapshot: hits {} misses {}",
                        s.hits,
                        s.misses
                    );
                    scrapes += 1;
                }
                scrapes
            })
        };

        let writers: Vec<_> = (0..THREADS)
            .map(|_| {
                let lib = Arc::clone(&lib);
                std::thread::spawn(move || {
                    for _ in 0..CYCLES {
                        let _ = lib.probe_table(&on_grid); // hit
                        let _ = lib.probe_table(&far); // miss
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0, "reader never scraped");

        // No lost updates: final totals are exact.
        let s = lib.counter_snapshot();
        assert_eq!(s.hits, THREADS * CYCLES);
        assert_eq!(s.misses, THREADS * CYCLES);
    }

    /// Corner-clamp policy: with a trust margin, a query overhanging
    /// the hull on one axis is served from the clamped edge, but a
    /// query overhanging two axes at once is refused with a distinct
    /// reason, counted both as a miss and in the dedicated corner
    /// counter.
    #[test]
    fn corner_clamp_is_refused_and_counted() {
        let grid = GridSpec::new(
            vec![50e-12],
            vec![1e-15, 2e-15],
            vec![0.8, 1.2],
            vec![0.8, 1.2],
            vec![27.0],
            0.25,
        )
        .unwrap();
        let n = grid.n_points();
        let tables = Tables {
            delay_rise: vec![1e-10; n],
            delay_fall: vec![1e-10; n],
            power_rise: vec![1e-6; n],
            power_fall: vec![1e-6; n],
            leakage_high: vec![1e-9; n],
            leakage_low: vec![1e-9; n],
            functional: vec![true; n],
        };
        let lib = CharLib::from_parts(
            ShifterKind::sstvs(),
            CharacterizeOptions::default(),
            grid,
            0,
            tables,
        );
        let inside = QueryPoint {
            slew: 50e-12,
            load: 1.5e-15,
            vddi: 1.0,
            vddo: 1.0,
            temp: 27.0,
        };
        assert!(lib.probe_table(&inside).is_ok());
        // One-axis overhang inside the 25% margin (0.1 V): clamped
        // edge serve, still a hit.
        let one_axis = QueryPoint {
            vddi: 1.25,
            ..inside
        };
        assert!(lib.probe_table(&one_axis).is_ok());
        assert_eq!(lib.corner_clamp_count(), 0);
        // Two axes at once: refused, miss + corner counter, and the
        // uncounted fast path agrees.
        let corner = QueryPoint {
            vddi: 1.25,
            vddo: 1.25,
            ..inside
        };
        assert_eq!(lib.probe_table(&corner), Err(FallbackReason::ClampedCorner));
        assert!(lib.eval_table(&corner).is_none());
        assert_eq!(lib.corner_clamp_count(), 1);
        let snap = lib.counter_snapshot();
        assert_eq!(snap, SurrogateCounters { hits: 2, misses: 1 });
        // Way off any axis still reports out-of-trust first.
        let far = QueryPoint {
            vddi: 5.0,
            vddo: 5.0,
            ..inside
        };
        assert_eq!(
            lib.probe_table(&far),
            Err(FallbackReason::OutOfTrustRegion("vddi"))
        );
        assert_eq!(lib.corner_clamp_count(), 1);
    }

    #[test]
    fn options_at_substitutes_the_grid_coordinates() {
        let q = QueryPoint {
            slew: 80e-12,
            load: 2e-15,
            vddi: 0.9,
            vddo: 1.1,
            temp: 85.0,
        };
        let o = options_at(&CharacterizeOptions::default(), &q);
        assert_eq!(o.input_slew, 80e-12);
        assert_eq!(o.load_farads, 2e-15);
        assert!((o.sim.temperature.as_celsius() - 85.0).abs() < 1e-9);
        // Protocol constants survive.
        assert_eq!(o.power_window, CharacterizeOptions::default().power_window);
    }
}
