//! Phase-level cost attribution for scans (the Figure-3 breakdown).
//!
//! The paper profiles with VTune and splits query cost into **main loop**,
//! **parsing**, **data type \[conversion\]** and **build columns**. Host
//! profilers are unavailable/unstable in a test rig, so scans here are
//! structured in *passes per batch* and time each pass with two monotonic
//! clock reads — cheap enough not to distort the comparison, granular enough
//! to reproduce the figure.

use std::time::{Duration, Instant};

/// The four cost categories of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Outer-loop overhead: batch orchestration, branching, bookkeeping —
    /// everything not attributable to the other three.
    MainLoop,
    /// Tokenizing / locating fields in the raw bytes.
    Parsing,
    /// Converting raw bytes to typed values.
    Conversion,
    /// Building the engine's columnar structures from converted values.
    BuildColumns,
}

/// Accumulated per-phase wall time for one scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Total wall time spent inside the scan.
    pub total: Duration,
    /// Time in the parsing/tokenizing pass.
    pub parsing: Duration,
    /// Time in the conversion pass.
    pub conversion: Duration,
    /// Time in the column-building pass.
    pub build_columns: Duration,
}

impl PhaseProfile {
    /// Main-loop time: whatever the three passes don't account for.
    pub fn main_loop(&self) -> Duration {
        self.total
            .saturating_sub(self.parsing)
            .saturating_sub(self.conversion)
            .saturating_sub(self.build_columns)
    }

    /// Duration of one phase.
    pub fn phase(&self, phase: Phase) -> Duration {
        match phase {
            Phase::MainLoop => self.main_loop(),
            Phase::Parsing => self.parsing,
            Phase::Conversion => self.conversion,
            Phase::BuildColumns => self.build_columns,
        }
    }

    /// Merge another profile into this one (scans over multiple operators).
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.total += other.total;
        self.parsing += other.parsing;
        self.conversion += other.conversion;
        self.build_columns += other.build_columns;
    }

    /// Fraction of total time in `phase`, in `[0, 1]` (0 if total is zero).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let t = self.total.as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.phase(phase).as_secs_f64() / t
        }
    }
}

/// A running timer that charges elapsed time to a [`PhaseProfile`].
///
/// Usage inside a scan's batch method:
/// ```
/// # use raw_columnar::profile::{PhaseProfile, PhaseTimer};
/// let mut profile = PhaseProfile::default();
/// let mut timer = PhaseTimer::start();
/// // ... tokenize ...
/// timer.lap(&mut profile.parsing);
/// // ... convert ...
/// timer.lap(&mut profile.conversion);
/// // ... build columns ...
/// timer.lap(&mut profile.build_columns);
/// timer.finish(&mut profile.total);
/// assert!(profile.total >= profile.parsing);
/// ```
#[derive(Debug)]
pub struct PhaseTimer {
    start: Instant,
    last: Instant,
}

impl PhaseTimer {
    /// Start timing.
    pub fn start() -> PhaseTimer {
        let now = Instant::now();
        PhaseTimer { start: now, last: now }
    }

    /// Charge the time since the previous lap (or start) to `sink`.
    #[inline]
    pub fn lap(&mut self, sink: &mut Duration) {
        let now = Instant::now();
        *sink += now - self.last;
        self.last = now;
    }

    /// Skip the time since the previous lap without charging it to a pass
    /// (it lands in the main-loop residual).
    #[inline]
    pub fn skip(&mut self) {
        self.last = Instant::now();
    }

    /// Charge total elapsed time since `start` to `sink` (typically
    /// `profile.total`).
    #[inline]
    pub fn finish(self, sink: &mut Duration) {
        *sink += self.start.elapsed();
    }
}

/// Volume counters for one scan, complementing the time profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Rows the scan walked (full scans) or fetched (selection-driven).
    pub rows_scanned: u64,
    /// Individual fields located in the raw bytes.
    pub fields_tokenized: u64,
    /// Individual values converted to engine types.
    pub values_converted: u64,
    /// Values appended into output columns.
    pub values_materialized: u64,
    /// Rows skipped without being read, thanks to a format-embedded index
    /// (ibin zone/sorted-key pruning).
    pub rows_pruned: u64,
}

impl ScanMetrics {
    /// Merge counters from another scan.
    pub fn merge(&mut self, other: &ScanMetrics) {
        self.rows_scanned += other.rows_scanned;
        self.fields_tokenized += other.fields_tokenized;
        self.values_converted += other.values_converted;
        self.values_materialized += other.values_materialized;
        self.rows_pruned += other.rows_pruned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_loop_is_residual() {
        let p = PhaseProfile {
            total: Duration::from_millis(100),
            parsing: Duration::from_millis(40),
            conversion: Duration::from_millis(30),
            build_columns: Duration::from_millis(20),
        };
        assert_eq!(p.main_loop(), Duration::from_millis(10));
        assert_eq!(p.phase(Phase::Parsing), Duration::from_millis(40));
        assert!((p.fraction(Phase::Conversion) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn residual_saturates() {
        let p = PhaseProfile {
            total: Duration::from_millis(10),
            parsing: Duration::from_millis(40), // clock skew shouldn't panic
            ..Default::default()
        };
        assert_eq!(p.main_loop(), Duration::ZERO);
    }

    #[test]
    fn merge_adds() {
        let mut a = PhaseProfile {
            total: Duration::from_millis(10),
            parsing: Duration::from_millis(5),
            ..Default::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total, Duration::from_millis(20));
        assert_eq!(a.parsing, Duration::from_millis(10));
    }

    #[test]
    fn timer_laps_accumulate() {
        let mut p = PhaseProfile::default();
        let mut t = PhaseTimer::start();
        std::thread::sleep(Duration::from_millis(2));
        t.lap(&mut p.parsing);
        std::thread::sleep(Duration::from_millis(2));
        t.lap(&mut p.conversion);
        t.finish(&mut p.total);
        assert!(p.parsing >= Duration::from_millis(1));
        assert!(p.conversion >= Duration::from_millis(1));
        assert!(p.total >= p.parsing + p.conversion);
    }

    #[test]
    fn metrics_merge() {
        let mut a = ScanMetrics { rows_scanned: 1, fields_tokenized: 2, ..Default::default() };
        a.merge(&ScanMetrics { rows_scanned: 9, values_converted: 5, ..Default::default() });
        assert_eq!(a.rows_scanned, 10);
        assert_eq!(a.fields_tokenized, 2);
        assert_eq!(a.values_converted, 5);
    }

    #[test]
    fn zero_total_fraction() {
        let p = PhaseProfile::default();
        assert_eq!(p.fraction(Phase::MainLoop), 0.0);
    }
}
