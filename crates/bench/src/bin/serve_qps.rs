//! Closed-loop load generator for the `vls-serve` query daemon.
//!
//! In-process mode boots a daemon over a smoke-grid artifact, drives
//! it with keep-alive client threads over real loopback sockets, and
//! writes the `BENCH_serve.json` artifact: sustained QPS (with a
//! pinned floor), client-side latency quantiles, one exact-fallback
//! probe, and the daemon's own counter balance. The artifact goes to
//! `--out` when given, else to `$TMPDIR` under `--smoke` and to the
//! working directory for a full run.
//!
//! ```text
//! cargo run --release -p vls-bench --bin serve_qps -- [--smoke]
//!     [--lib PATH] [--threads N] [--requests N] [--jobs N]
//!     [--queue N] [--out PATH]
//! ```
//!
//! Attach mode (`--attach HOST:PORT`) probes an already-running
//! daemon — healthz, one query, metrics, and optionally a clean
//! `--shutdown` — for the CI CLI smoke. No floor, no artifact.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vls_cells::ShifterKind;
use vls_charlib::{CharLib, GridSpec};
use vls_core::CharacterizeOptions;
use vls_runner::RunnerOptions;
use vls_serve::{HttpClient, ServeConfig, ServedCell, Server};

/// Aggregate floor across all client threads, requests per second.
/// Surrogate hits answer in microseconds; even a loaded CI runner
/// clears this by an order of magnitude.
const QPS_FLOOR: f64 = 500.0;

/// An in-trust-region query (smoke grid corners are 0.8/1.2 V).
const IN_TRUST_BODY: &str = r#"{"cell": "sstvs", "vddi": 0.9, "vddo": 1.1}"#;

/// Out of the smoke grid's singleton slew axis: electrically healthy,
/// but only the exact path can answer it.
const OUT_OF_TRUST_BODY: &str = r#"{"cell": "sstvs", "vddi": 1.2, "vddo": 1.2, "slew": 60e-12}"#;

struct Args {
    smoke: bool,
    lib: Option<String>,
    attach: Option<String>,
    shutdown: bool,
    threads: usize,
    requests: Option<usize>,
    jobs: Option<usize>,
    queue: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        lib: None,
        attach: None,
        shutdown: false,
        threads: 4,
        requests: None,
        jobs: None,
        queue: 64,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} expects a value"))
        };
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--shutdown" => args.shutdown = true,
            "--lib" => args.lib = Some(value("--lib")),
            "--attach" => args.attach = Some(value("--attach")),
            "--threads" => args.threads = value("--threads").parse().expect("--threads"),
            "--requests" => args.requests = Some(value("--requests").parse().expect("--requests")),
            "--jobs" => args.jobs = Some(value("--jobs").parse().expect("--jobs")),
            "--queue" => args.queue = value("--queue").parse().expect("--queue"),
            "--out" => args.out = Some(value("--out")),
            other => panic!("unknown flag '{other}'"),
        }
    }
    assert!(args.threads > 0, "--threads must be positive");
    args
}

/// Probes an already-running daemon: readiness, one query, metrics,
/// and optionally a clean shutdown. The CI CLI smoke drives the
/// daemon booted by `vls-spice serve` through exactly this path.
fn attach(addr: &str, shutdown: bool) {
    let mut client = HttpClient::connect(addr, Duration::from_secs(60)).expect("connect to daemon");
    let (status, body) = client.request("GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200, "healthz answered {status}: {body}");
    println!("healthz: {body}");

    let (status, body) = client
        .request("POST", "/query", Some(IN_TRUST_BODY))
        .expect("query");
    assert_eq!(status, 200, "query answered {status}: {body}");
    println!("query:   {body}");

    let (status, body) = client.request("GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200, "metrics answered {status}: {body}");
    println!("metrics: {body}");

    if shutdown {
        let (status, body) = client.request("POST", "/shutdown", None).expect("shutdown");
        assert_eq!(status, 200, "shutdown answered {status}: {body}");
        println!("shutdown acknowledged: {body}");
    }
}

fn quantile(sorted_us: &[u64], p: f64) -> u64 {
    assert!(!sorted_us.is_empty());
    let rank = ((sorted_us.len() as f64) * p).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

fn main() {
    let args = parse_args();
    if let Some(addr) = &args.attach {
        attach(addr, args.shutdown);
        println!("attach probe passed");
        return;
    }

    let kind = ShifterKind::sstvs();
    let base = CharacterizeOptions::default();
    let lib = match &args.lib {
        Some(path) => CharLib::load(path, &kind, &base).expect("load --lib artifact"),
        None => {
            println!("building smoke-grid library (pass --lib PATH to reuse an artifact)");
            CharLib::build(&kind, &base, GridSpec::smoke(), &RunnerOptions::default())
        }
    };
    let cells = vec![ServedCell::new("sstvs", Arc::new(lib))];
    let cfg = ServeConfig {
        jobs: args.jobs,
        queue_depth: args.queue,
        ..ServeConfig::default()
    };
    let server = Server::start(cells, cfg).expect("start daemon");
    let addr = server.addr();

    let per_thread = args.requests.unwrap_or(if args.smoke { 250 } else { 2000 });
    let total = args.threads * per_thread;
    println!(
        "daemon on {addr}; {} threads x {per_thread} in-trust queries",
        args.threads
    );

    // ---- Timed phase: closed-loop keep-alive clients. ----
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..args.threads {
        handles.push(std::thread::spawn(move || {
            let mut client =
                HttpClient::connect(addr, Duration::from_secs(60)).expect("connect client thread");
            let mut lat_us = Vec::with_capacity(per_thread);
            for _ in 0..per_thread {
                let t = Instant::now();
                let (status, body) = client
                    .request("POST", "/query", Some(IN_TRUST_BODY))
                    .expect("query failed");
                lat_us.push(t.elapsed().as_micros() as u64);
                assert_eq!(status, 200, "in-trust query answered {status}: {body}");
                assert!(
                    body.contains("\"source\": \"table\""),
                    "in-trust query missed the surrogate: {body}"
                );
            }
            lat_us
        }));
    }
    let mut lat_us: Vec<u64> = Vec::with_capacity(total);
    for h in handles {
        lat_us.extend(h.join().expect("client thread panicked"));
    }
    let wall = t0.elapsed().as_secs_f64();
    lat_us.sort_unstable();
    let qps = total as f64 / wall;
    let (p50, p90, p99) = (
        quantile(&lat_us, 0.50),
        quantile(&lat_us, 0.90),
        quantile(&lat_us, 0.99),
    );
    let max_us = *lat_us.last().expect("at least one sample");
    println!("  {total} requests in {wall:.3} s: {qps:.0} QPS");
    println!("  latency p50 {p50} us, p90 {p90} us, p99 {p99} us, max {max_us} us");

    // ---- One exact-fallback probe (untimed phase). ----
    let t = Instant::now();
    let (status, body) =
        vls_serve::one_shot(addr, "POST", "/query", Some(OUT_OF_TRUST_BODY)).expect("exact probe");
    let exact_us = t.elapsed().as_micros() as u64;
    assert_eq!(status, 200, "exact probe answered {status}: {body}");
    assert!(
        body.contains("\"source\": \"exact\""),
        "out-of-trust probe did not take the exact path: {body}"
    );
    println!("  exact fallback answered in {exact_us} us");

    // ---- Counter balance, in-process and over the wire. ----
    let m = server.metrics();
    let (hits, misses, sheds) = (
        m.hits.load(Ordering::Relaxed),
        m.misses.load(Ordering::Relaxed),
        m.sheds.load(Ordering::Relaxed),
    );
    assert_eq!(
        hits + misses + sheds,
        total as u64 + 1,
        "hits {hits} + misses {misses} + sheds {sheds} != queries"
    );
    assert_eq!(hits, total as u64, "every timed query should hit the table");
    let (status, wire) = vls_serve::one_shot(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    assert!(
        wire.contains(&format!("\"queries\": {}", total + 1)),
        "wire metrics disagree with the client: {wire}"
    );

    server.shutdown();
    server.wait();

    // ---- Artifact + floor. ----
    let json = format!(
        "{{\n  \"smoke\": {},\n  \"threads\": {},\n  \"requests\": {total},\n  \
         \"wall_s\": {wall:.6},\n  \"qps\": {qps:.1},\n  \"qps_floor\": {QPS_FLOOR},\n  \
         \"latency_us\": {{\n    \"p50\": {p50},\n    \"p90\": {p90},\n    \"p99\": {p99},\n    \
         \"max\": {max_us}\n  }},\n  \"exact_fallback_us\": {exact_us},\n  \
         \"counters\": {{\n    \"hits\": {hits},\n    \"misses\": {misses},\n    \
         \"sheds\": {sheds}\n  }}\n}}\n",
        args.smoke, args.threads,
    );
    let path = args.out.as_ref().map_or_else(
        || vls_bench::artifact_path("BENCH_serve.json", args.smoke),
        std::path::PathBuf::from,
    );
    std::fs::write(&path, &json)
        .unwrap_or_else(|e| panic!("could not write {}: {e}", path.display()));
    println!("wrote {}", path.display());

    assert!(
        qps >= QPS_FLOOR,
        "sustained {qps:.0} QPS is under the {QPS_FLOOR} floor"
    );
    println!("floor held: {qps:.0} QPS >= {QPS_FLOOR}");
}
