//! What the host says about itself: peak memory of this process, and the
//! facts (`nproc`, CPU model, load average) that go into every result file
//! so a number can be read next to the machine it came from.

use crate::json::Json;

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where `/proc` does
/// not say.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The 1-minute load average; 0 where `/proc` does not say.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// `nproc`, CPU model and the load average now.
pub fn describe(load_at_start: f64) -> Json {
    Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "cpu_model",
            Json::str(proc_field("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        ("load_average_start", Json::Num(load_at_start)),
        ("load_average_end", Json::Num(load_average())),
    ])
}
