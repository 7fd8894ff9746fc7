//! Process counters read from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every Linux architecture this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat`. Resolution is one clock tick (10 ms).
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed; the benchmark
/// runs only on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // The command name may contain spaces; fields restart after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13
    // after the pid and command.
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric tick count") };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_positive_and_cpu_time_advances() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() >= before + 0.02);
        assert!(peak_rss_mb() > 0.0);
    }
}
