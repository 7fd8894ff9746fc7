//! The benchmark's own checks: its metric names match `BENCHMARK.json`,
//! a tiny run of every workload finishes without a failed job, and the
//! traced run's spans nest.

use std::path::Path;

use perfbench::trace::{check_nesting, self_times};
use perfbench::workloads::{Size, Workload};
use perfbench::{run, Config, MetricDef, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of the JSON array under `key`.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let open = start + json[start..].find('[').expect("array opens");
    let close = open + json[open..].find(']').expect("array closes");
    &json[open + 1..close]
}

/// Every value of `"field": "..."` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let tag = format!("\"{field}\": \"");
    text.match_indices(&tag)
        .map(|(i, _)| {
            let rest = &text[i + tag.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_defs(json: &str, key: &str, defs: &[MetricDef]) {
    let section = array(json, key);
    let names: Vec<&str> = defs.iter().map(|d| d.0).collect();
    let units: Vec<&str> = defs.iter().map(|d| d.1).collect();
    let better: Vec<&str> = defs.iter().map(|d| d.2).collect();
    assert_eq!(strings(section, "name"), names, "{key} names");
    assert_eq!(strings(section, "unit"), units, "{key} units");
    assert_eq!(strings(section, "better"), better, "{key} directions");
    assert!(
        names.iter().all(|n| valid_name(n)),
        "{key}: invalid name in {names:?}"
    );
}

/// The metric names of a printed result line, in order.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .match_indices("\": {\"value\"")
        .map(|(i, _)| {
            let head = &metrics[..i];
            head[head.rfind('"').expect("name opens") + 1..].to_string()
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 5,
        seconds: 1e-3,
        trace,
        size: Size::TINY,
        jobs: 2,
    }
}

#[test]
fn metric_and_workload_names_match_benchmark_json() {
    let json = benchmark_json();
    assert_defs(&json, "end_to_end", &END_TO_END);
    assert_defs(&json, "per_layer", &PER_LAYER);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(strings(array(&json, "workloads"), "name"), workloads);
}

#[test]
fn every_per_layer_metric_has_a_prediction() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(path).expect("README.md");
    for (name, _, _) in PER_LAYER {
        assert!(
            readme
                .lines()
                .any(|l| l.starts_with(&format!("| `{name}`"))),
            "no prediction row for {name}"
        );
    }
}

#[test]
fn tiny_runs_finish_without_failures_and_print_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let result = run(&tiny(workload, trace));
            assert!(
                result.attempted > 0,
                "{}: nothing attempted",
                workload.name()
            );
            assert_eq!(
                result.failed,
                0,
                "{} (trace {trace}): {:?}",
                workload.name(),
                result.reasons
            );
            let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
            let want: Vec<&str> = defs.iter().map(|d| d.0).collect();
            let line = result.json_line();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert_eq!(printed_names(&line), want, "{}", workload.name());
            assert!(result.metrics.iter().all(|m| m.1.is_finite()), "{line}");
        }
    }
}

#[test]
fn traced_spans_nest_and_self_times_are_non_negative() {
    for workload in Workload::ALL {
        let spans = run(&tiny(workload, true)).spans;
        assert!(!spans.is_empty(), "{}: no spans", workload.name());
        check_nesting(&spans).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        for (id, own) in self_times(&spans) {
            assert!(own >= 0.0, "{}: span {id} self time {own}", workload.name());
        }
    }
}
