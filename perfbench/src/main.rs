//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last, one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it give the provenance and every metric in readable form. A traced
//! run also writes its spans to `out/trace-<workload>-<seed>.jsonl`
//! under the benchmark's directory.
//!
//! `--record` instead runs one pass and prints the reference lines for
//! the seed, in the format of the files under `reference/`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::workloads::{Size, Workload};
use perfbench::{record, run, trace, Config};

const USAGE: &str =
    "usage: perfbench --workload <mc_tables|vdd_surface|chip_tran> --seed <n> --seconds <s> --trace <0|1> [--record]";

/// Parsed command line.
struct Args {
    config: Config,
    record: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        config: Config {
            workload,
            seed,
            seconds: if record {
                0.0
            } else {
                seconds.ok_or("--seconds is required")?
            },
            trace: if record {
                false
            } else {
                trace.ok_or("--trace is required")?
            },
            size: Size::FULL,
            jobs,
        },
        record,
    })
}

/// The checked-out revision, read from `.git` in the working directory
/// without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(r)
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(&format!(" {r}")))
                    .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    if args.record {
        print!("{}", record(cfg.workload, cfg.seed, &cfg.size, cfg.jobs));
        return ExitCode::SUCCESS;
    }

    let result = run(cfg);
    println!(
        "provenance {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"git_rev\":\"{}\",\"host_threads\":{},\"workers\":{},\"seconds\":{:?},\"passes\":{},\"sizes\":{}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace,
        git_revision(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cfg.jobs,
        cfg.seconds,
        result.passes,
        result.sizes
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("set-up walls (s): {}", list(&result.setup_walls));
    println!("untraced pass walls (s): {}", list(&result.pass_walls));
    for (name, value, unit) in &result.metrics {
        println!("{name:<28} {value:>14.6} {unit}");
    }
    println!(
        "{:<28} {:>14.6} 1 ({} of {} jobs failed)",
        "fail_ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    for why in &result.reasons {
        println!("FAILED {why}");
    }
    if cfg.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&result.spans)));
        match written {
            Ok(()) => println!("spans {} written to {}", result.spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result.json_line());
    ExitCode::SUCCESS
}
