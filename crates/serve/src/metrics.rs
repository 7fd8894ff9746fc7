//! Service counters and the `/metrics` JSON rendering.
//!
//! Every counter is a single `AtomicU64` written with one `fetch_add`
//! at exactly one decision point, mirroring the packed-counter
//! discipline `vls-charlib` uses: a scrape reads each word once, and
//! the headline `queries` figure is *derived* as
//! `hits + misses + sheds` at render time, so the balance equation the
//! soak suite asserts can never tear mid-scrape.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use vls_charlib::{json, SurrogateCounters};

/// Every failure class a `/query` can degrade to, in the order the
/// `/metrics` document lists them. The first five mirror
/// `vls_engine::EngineError::failure_class` (its `bad_fork` marks a
/// misuse of the forked transient that the characterization protocol
/// never makes, so it counts as `internal`); the next three are the
/// deterministic measurement-protocol failures from `vls-core`;
/// `internal` is the catch-all for states that should be unreachable.
pub const FAILURE_CLASSES: [&str; 9] = [
    "no_convergence",
    "singular",
    "step_underflow",
    "bad_netlist",
    "budget_exhausted",
    "missing_edge",
    "not_functional",
    "not_settled",
    "internal",
];

/// Number of log2 latency buckets: bucket `k` covers
/// `[2^k, 2^(k+1))` microseconds (bucket 0 also holds sub-microsecond
/// samples), so the top bucket starts at ~9 minutes — far beyond any
/// configurable deadline.
const BUCKETS: usize = 30;

/// A lock-free log2 histogram of request latencies in microseconds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    max_us: AtomicU64,
}

impl Histogram {
    fn bucket_of(us: u64) -> usize {
        us.checked_ilog2()
            .map_or(0, |b| b as usize)
            .min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn observe(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The quantile `p` (in `[0, 1]`) as the upper bound of the bucket
    /// holding that rank, in microseconds; 0 when empty. The true
    /// maximum caps the estimate so a lone slow request does not report
    /// a whole power of two above reality.
    pub fn quantile_us(&self, p: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = 1u64 << (k as u32 + 1);
                return bound.min(self.max_us.load(Ordering::Relaxed).max(1));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

/// The server-wide counter set. See the module docs for the write
/// discipline; the balance invariants the soak suite pins are:
///
/// * `hits + misses + sheds` == well-formed queries for a known cell;
/// * `exact_ok + exact_errors + deadline_expired == misses` once the
///   server is quiescent;
/// * `hits == Σ` library hit counters, and `misses + sheds == Σ`
///   library miss counters (the library records its miss before
///   admission control runs).
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries answered from the surrogate on the request thread.
    pub hits: AtomicU64,
    /// Queries admitted to the exact-fallback pool.
    pub misses: AtomicU64,
    /// Queries refused at admission (bounded queue full).
    pub sheds: AtomicU64,
    /// Admitted queries whose exact transient succeeded in time.
    pub exact_ok: AtomicU64,
    /// Admitted queries whose exact transient failed with a typed
    /// error (see `failure_classes`).
    pub exact_errors: AtomicU64,
    /// Admitted queries whose deadline expired before a result.
    pub deadline_expired: AtomicU64,
    /// `/query` requests rejected before dispatch (malformed JSON,
    /// missing fields, unknown cell, oversized body).
    pub bad_requests: AtomicU64,
    /// Every HTTP request the server parsed, any route.
    pub http_requests: AtomicU64,
    /// Jobs currently waiting in the exact-fallback queue (gauge).
    pub queue_depth: AtomicU64,
    failure_classes: [AtomicU64; FAILURE_CLASSES.len()],
    latency: Histogram,
}

impl Metrics {
    /// Bumps the taxonomy counter for `class` (unknown classes count
    /// as `internal`).
    pub fn record_failure_class(&self, class: &str) {
        let idx = FAILURE_CLASSES
            .iter()
            .position(|&c| c == class)
            .unwrap_or(FAILURE_CLASSES.len() - 1);
        self.failure_classes[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Reads one taxonomy counter by class name.
    pub fn failure_class_count(&self, class: &str) -> u64 {
        FAILURE_CLASSES
            .iter()
            .position(|&c| c == class)
            .map_or(0, |i| self.failure_classes[i].load(Ordering::Relaxed))
    }

    /// Records one `/query` latency sample (all outcomes).
    pub fn observe_latency(&self, latency: Duration) {
        self.latency.observe(latency);
    }

    /// Renders the `/metrics` document. `cells` carries one coherent
    /// [`SurrogateCounters`] snapshot per served library.
    pub fn render(&self, cells: &[(String, SurrogateCounters)]) -> String {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let sheds = self.sheds.load(Ordering::Relaxed);
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"queries\": {},\n", hits + misses + sheds));
        out.push_str(&format!("  \"hits\": {hits},\n"));
        out.push_str(&format!("  \"misses\": {misses},\n"));
        out.push_str(&format!("  \"sheds\": {sheds},\n"));
        for (name, value) in [
            ("exact_ok", &self.exact_ok),
            ("exact_errors", &self.exact_errors),
            ("deadline_expired", &self.deadline_expired),
            ("bad_requests", &self.bad_requests),
            ("http_requests", &self.http_requests),
            ("queue_depth", &self.queue_depth),
        ] {
            out.push_str(&format!(
                "  \"{name}\": {},\n",
                value.load(Ordering::Relaxed)
            ));
        }
        out.push_str("  \"latency_us\": {");
        out.push_str(&format!("\"count\": {}", self.latency.count()));
        for (name, p) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            out.push_str(&format!(", \"{name}\": {}", self.latency.quantile_us(p)));
        }
        out.push_str(&format!(
            ", \"max\": {}",
            self.latency.max_us.load(Ordering::Relaxed)
        ));
        out.push_str("},\n");
        out.push_str("  \"failure_classes\": {");
        for (i, class) in FAILURE_CLASSES.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{class}\": {}",
                self.failure_classes[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str("},\n");
        out.push_str("  \"cells\": [");
        for (i, (name, snap)) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            json::write_str(&mut out, name);
            out.push_str(&format!(
                ", \"hits\": {}, \"misses\": {}}}",
                snap.hits, snap.misses
            ));
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.observe(Duration::from_micros(10));
        }
        h.observe(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50);
        assert!((10..=16).contains(&p50), "p50 {p50} should bracket 10us");
        let p99 = h.quantile_us(0.99);
        assert!(p99 <= 16, "p99 rank 99 is still a 10us sample, got {p99}");
        assert_eq!(h.quantile_us(1.0), 50_000, "max caps the top bucket");
    }

    #[test]
    fn zero_duration_lands_in_bucket_zero() {
        let h = Histogram::default();
        h.observe(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_us(0.5), 1);
    }

    #[test]
    fn unknown_failure_class_counts_as_internal() {
        let m = Metrics::default();
        m.record_failure_class("no_convergence");
        m.record_failure_class("gremlins");
        assert_eq!(m.failure_class_count("no_convergence"), 1);
        assert_eq!(m.failure_class_count("internal"), 1);
        assert_eq!(m.failure_class_count("gremlins"), 0);
    }

    #[test]
    fn render_derives_queries_from_the_outcome_counters() {
        let m = Metrics::default();
        m.hits.fetch_add(3, Ordering::Relaxed);
        m.misses.fetch_add(2, Ordering::Relaxed);
        m.sheds.fetch_add(1, Ordering::Relaxed);
        let doc = m.render(&[(
            "sstvs".to_string(),
            SurrogateCounters { hits: 3, misses: 3 },
        )]);
        assert!(doc.contains("\"queries\": 6"), "derived total: {doc}");
        let parsed = json::parse(&doc).expect("metrics must be valid JSON");
        assert_eq!(parsed.get("hits").and_then(|v| v.as_num()), Some(3.0));
        let cells = parsed.get("cells").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("name").and_then(|v| v.as_str()), Some("sstvs"));
    }
}
