//! # raw-bench
//!
//! The harness that regenerates **every table and figure** of the paper's
//! evaluation (§4.2, §5.2–§5.3, §6). Two entry points:
//!
//! - the [`experiments`] module: one function per table/figure, each
//!   returning a formatted [`report::ExpTable`] with the same rows/series
//!   the paper plots;
//! - `cargo run --release -p raw-bench --bin reproduce` runs them all and
//!   writes the results to `bench_results/`;
//! - `cargo bench` runs criterion versions of the same measurements at a
//!   reduced grid for regression tracking.
//!
//! Scale is configurable with environment variables (see [`Scale`]): the
//! defaults run the full suite in minutes on a laptop. Absolute numbers are
//! **not** expected to match the paper (28 GB files on 2014 Xeons vs.
//! hundred-MB files here); the *shapes* — who wins, by what factor, where
//! curves cross — are.

pub mod ablations;
pub mod baseline;
pub mod datasets;
pub mod experiments;
pub mod report;

use std::time::{Duration, Instant};

/// Dataset sizes, overridable via environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the 30-column integer table (paper: 100 M).
    pub narrow_rows: usize,
    /// Rows of the 120-column mixed table (paper: 30 M).
    pub wide_rows: usize,
    /// Rows of each join-side table (paper: 100 M).
    pub join_rows: usize,
    /// Events in the Higgs dataset (paper: 900 GB across 127 files).
    pub higgs_events: usize,
    /// Repetitions for warm measurements (median taken).
    pub repeats: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            narrow_rows: 200_000,
            wide_rows: 40_000,
            join_rows: 60_000,
            higgs_events: 120_000,
            repeats: 3,
        }
    }
}

impl Scale {
    /// Read the scale from `RAW_BENCH_*` environment variables, falling back
    /// to defaults. `RAW_BENCH_SCALE=tiny` selects a fast CI-friendly grid.
    pub fn from_env() -> Scale {
        let mut s = Scale::default();
        if std::env::var("RAW_BENCH_SCALE").as_deref() == Ok("tiny") {
            s = Scale {
                narrow_rows: 20_000,
                wide_rows: 5_000,
                join_rows: 8_000,
                higgs_events: 10_000,
                repeats: 1,
            };
        }
        let get = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = get("RAW_BENCH_NARROW_ROWS") {
            s.narrow_rows = v;
        }
        if let Some(v) = get("RAW_BENCH_WIDE_ROWS") {
            s.wide_rows = v;
        }
        if let Some(v) = get("RAW_BENCH_JOIN_ROWS") {
            s.join_rows = v;
        }
        if let Some(v) = get("RAW_BENCH_HIGGS_EVENTS") {
            s.higgs_events = v;
        }
        if let Some(v) = get("RAW_BENCH_REPEATS") {
            s.repeats = v.max(1);
        }
        s
    }
}

/// The selectivity sweep used by the figure reproductions.
pub const SELECTIVITIES: &[f64] = &[0.01, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];

/// Wall-clock one invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median wall time of `n` invocations (the value of the last run is
/// returned so callers can validate it).
pub fn median_time<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(n >= 1);
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let (out, d) = time_once(&mut f);
        times.push(d);
        last = Some(out);
    }
    times.sort_unstable();
    (last.expect("n >= 1"), times[times.len() / 2])
}

/// Format a duration in adaptive units for tables.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_stable() {
        let (v, d) = median_time(3, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000 ms");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.0 µs");
    }

    #[test]
    fn scale_env_tiny() {
        // Not setting env here (tests run in parallel); just check defaults.
        let s = Scale::default();
        assert!(s.narrow_rows > s.wide_rows);
    }
}
