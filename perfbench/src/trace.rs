//! In-memory span recorder for the traced run.
//!
//! Spans sit at the calls the benchmark makes into the crates; nothing
//! inside the engine is instrumented. A span records its name, start,
//! end, parent and the job it belongs to. Spans are kept in memory and
//! written out once, when the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the tracer, starting at 1.
    pub id: u64,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u64>,
    /// Spans of one job share this id; `None` outside any job.
    pub job: Option<u64>,
    /// Layer-qualified name, e.g. `engine.tran`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span. `f` receives the new span's id so it can
    /// parent spans of its own.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        job: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        // Relaxed: the id only has to be unique, it publishes no data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(Span {
                id,
                parent,
                job,
                name,
                start,
                end,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        out.sort_by_key(|s| s.id);
        out
    }
}

/// Runs `f` inside a span when a tracer is given, and bare otherwise.
/// The id passed to `f` is 0 when untraced.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u64>,
    job: Option<u64>,
    f: impl FnOnce(u64) -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, parent, job, f),
        None => f(0),
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children running in parallel on several
/// threads overlap; the covered part is the union of their intervals.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Sum the uncovered gaps rather than subtracting the covered
            // length, so rounding can never make a self time negative.
            let mut own = 0.0;
            let mut cursor = s.start;
            for (a, b) in iv {
                if a > cursor {
                    own += a.min(s.end) - cursor;
                }
                cursor = cursor.max(b.min(s.end));
            }
            own += (s.end - cursor).max(0.0);
            (s.id, own)
        })
        .collect()
}

/// Checks that every span ends after it starts and lies inside its
/// parent's interval, and that every parent id exists.
///
/// # Errors
///
/// Names the first offending span.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end < s.start {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if let Some(p) = s.parent {
            let parent = by_id
                .get(&p)
                .ok_or_else(|| format!("span {} ({}) has unknown parent {p}", s.id, s.name))?;
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "span {} ({}) exceeds its parent {} ({})",
                    s.id, s.name, p, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Total duration of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        // Starts at +0.0: an empty float `sum` is -0.0.
        .fold(0.0, |a, d| a + d)
}

/// One JSON object per line: `id`, `parent`, `job`, `name`, `start`,
/// `end` and `self` (seconds).
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start\":{:?},\"end\":{:?},\"self\":{:?}}}\n",
            s.id,
            opt(s.parent),
            opt(s.job),
            s.name,
            s.start,
            s.end,
            own[&s.id],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            job: None,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 5.0),
            span(3, Some(1), 3.0, 6.0),
            span(4, Some(2), 2.0, 3.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 5.0);
        assert_eq!(own[&2], 3.0);
        assert_eq!(own[&3], 3.0);
        assert_eq!(own[&4], 1.0);
    }

    #[test]
    fn nesting_rejects_a_child_outside_its_parent() {
        assert!(check_nesting(&[span(1, None, 0.0, 1.0), span(2, Some(1), 0.5, 1.0)]).is_ok());
        assert!(check_nesting(&[span(1, None, 0.0, 1.0), span(2, Some(1), 0.5, 1.5)]).is_err());
        assert!(check_nesting(&[span(2, Some(9), 0.0, 1.0)]).is_err());
    }

    #[test]
    fn tracer_records_parents_from_threads() {
        let t = Tracer::new();
        t.span("root", None, None, |root| {
            std::thread::scope(|s| {
                for j in 0..2 {
                    let t = &t;
                    s.spawn(move || t.span("child", Some(root), Some(j), |_| ()));
                }
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        check_nesting(&spans).unwrap();
        assert!(self_times(&spans).values().all(|&v| v >= 0.0));
    }
}
