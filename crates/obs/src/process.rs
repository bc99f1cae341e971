//! Process self-metrics and build identity for the Prometheus exposition.
//!
//! * `p3_build_info{version,git}` — the classic constant-`1` info gauge;
//!   the interesting data rides in the labels.
//! * `p3_process_resident_memory_bytes` — RSS from `/proc/self/statm`
//!   (fallback: `VmRSS` in `/proc/self/status`).
//! * `p3_process_open_fds` — entry count of `/proc/self/fd`.
//! * `p3_process_uptime_seconds` — seconds since [`init`].
//!
//! `/proc` readers degrade to "absent sample" off Linux: the gauges stay
//! at their last value (0 before the first refresh) rather than lying.
//! Call [`init`] once at boot and [`refresh`] from any periodic tick
//! (the service's gauge-refresh loop).

use std::sync::OnceLock;
use std::time::Instant;

static STARTED: OnceLock<Instant> = OnceLock::new();

/// Registers the build-info and process gauge families and starts the
/// uptime clock. `version` and `git` become labels on `p3_build_info`;
/// pass `"unknown"` when a git id is not baked in.
pub fn init(version: &str, git: &str) {
    STARTED.get_or_init(Instant::now);
    let labels = crate::metrics::render_labels(&[("version", version), ("git", git)]);
    crate::metrics::labeled_gauge(
        "p3_build_info",
        "Build identity; constant 1 with version/git labels",
        &labels,
    )
    .set(1);
    rss_gauge();
    fds_gauge();
    uptime_gauge();
    refresh();
}

fn rss_gauge() -> std::sync::Arc<crate::metrics::Gauge> {
    crate::metrics::gauge(
        "p3_process_resident_memory_bytes",
        "Resident set size of this process in bytes",
    )
}

fn fds_gauge() -> std::sync::Arc<crate::metrics::Gauge> {
    crate::metrics::gauge(
        "p3_process_open_fds",
        "Open file descriptors held by this process",
    )
}

fn uptime_gauge() -> std::sync::Arc<crate::metrics::Gauge> {
    crate::metrics::gauge(
        "p3_process_uptime_seconds",
        "Seconds since process metrics were initialised",
    )
}

/// Re-samples RSS, open fds, and uptime into their gauges. Cheap enough
/// for a once-per-second tick; no-ops gracefully where /proc is absent.
pub fn refresh() {
    if let Some(rss) = resident_bytes() {
        rss_gauge().set(rss as i64);
    }
    if let Some(fds) = open_fds() {
        fds_gauge().set(fds as i64);
    }
    if let Some(started) = STARTED.get() {
        uptime_gauge().set(started.elapsed().as_secs() as i64);
    }
}

/// Resident set size in bytes, from `/proc/self/statm` (second field,
/// pages) with a `/proc/self/status` `VmRSS:` fallback.
pub fn resident_bytes() -> Option<u64> {
    if let Ok(statm) = std::fs::read_to_string("/proc/self/statm") {
        if let Some(pages) = statm.split_whitespace().nth(1) {
            if let Ok(pages) = pages.parse::<u64>() {
                return Some(pages * page_size());
            }
        }
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Open file descriptor count, from `/proc/self/fd`. The readdir itself
/// briefly holds one fd; that self-count is accepted noise.
pub fn open_fds() -> Option<u64> {
    let entries = std::fs::read_dir("/proc/self/fd").ok()?;
    Some(entries.filter(|e| e.is_ok()).count() as u64)
}

fn page_size() -> u64 {
    // Linux x86-64/aarch64 default. A wrong guess skews RSS by a constant
    // factor only; the fallback path via VmRSS (kB) is exact.
    4096
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_plausible_values() {
        // These run on Linux in CI; degrade to a no-op elsewhere.
        if std::path::Path::new("/proc/self").exists() {
            let rss = resident_bytes().expect("statm readable");
            assert!(rss > 1 << 20, "RSS under 1 MiB is implausible: {rss}");
            let fds = open_fds().expect("fd dir readable");
            assert!(fds >= 3, "stdio alone is 3 fds: {fds}");
        }
    }

    #[test]
    fn init_publishes_build_info_and_gauges() {
        init("0.1.0-test", "deadbeef");
        let text = crate::metrics::prometheus_text();
        assert!(
            text.contains("p3_build_info{git=\"deadbeef\",version=\"0.1.0-test\"} 1")
                || text.contains("p3_build_info{version=\"0.1.0-test\",git=\"deadbeef\"} 1"),
            "missing build info:\n{text}"
        );
        assert!(text.contains("p3_process_uptime_seconds"));
        if std::path::Path::new("/proc/self").exists() {
            assert!(text.contains("p3_process_resident_memory_bytes"));
            assert!(text.contains("p3_process_open_fds"));
        }
    }
}
