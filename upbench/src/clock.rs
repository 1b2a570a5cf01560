//! Host-side probes: the benchmark's one wall-clock type and the process
//! counters it reads from `/proc/self`.
//!
//! Every host or wall time the benchmark reports is read through
//! [`Stopwatch`], so the wall clock is named in this file only.

use std::time::Instant; // lint: allow(no-wall-clock, reason = "the benchmark measures host time from outside the model crates")

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant); // lint: allow(no-wall-clock, reason = "the benchmark measures host time from outside the model crates")

impl Stopwatch {
    /// Starts a timer now.
    pub fn start() -> Self {
        Self(Instant::now()) // lint: allow(no-wall-clock, reason = "the benchmark measures host time from outside the model crates")
    }

    /// Seconds since [`start`](Self::start).
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Seconds from this timer's start to `later`'s start (negative when
    /// `later` started first).
    pub fn offset_of(&self, later: &Stopwatch) -> f64 {
        match later.0.checked_duration_since(self.0) {
            Some(d) => d.as_secs_f64(),
            None => -self.0.duration_since(later.0).as_secs_f64(),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Clock ticks per second of the `/proc/self/stat` CPU fields. Linux fixes
/// `USER_HZ` at 100 on every architecture the workspace builds for.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, from
/// `/proc/self/stat` (fields 14 and 15), or 0 where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}
