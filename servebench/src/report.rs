//! Statistics and the result line.

use std::fmt::Write as _;

/// Nearest-rank quantile of `sorted` (ascending); 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Return the allocator's free memory to the kernel (glibc
/// `malloc_trim`), so memory that set-up and the reference answers freed
/// is not resident while serving. A no-op on other platforms.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointers and only hands free heap
        // pages back to the kernel; glibc allows calling it at any time
        // from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Reset this process's peak resident set size to its current size
/// (Linux `clear_refs` code 5), so the peak covers only what follows.
/// Where the reset is unavailable the peak keeps covering the whole run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric value.
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// A metric.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Print every metric as a `name value unit` line, then the one-line
/// JSON result (the last line of stdout) that a harness parses.
pub fn print_result(metrics: &[Metric], correct: bool, attempted: usize, failed: usize) {
    for m in metrics {
        println!("metric {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
