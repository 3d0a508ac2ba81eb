//! `compare A.json B.json`: one row per (metric, workload) of two run sets.
//!
//! A run set is what `run --out` writes: `{"runs": [{"workloads": […]}]}`.
//! A is the base, B the candidate. A pair is `unresolved` when either set's
//! interquartile spread is wider than the metric's bound — then the runs
//! cannot tell "unchanged" from "changed" — else `worse` when B's median is
//! worse than A's by more than the bound, else `ok`.

use raw_trace::Json;

use crate::report::{Better, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `(q1, median, q3)` of the base and of the candidate.
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// Candidate median ÷ base median.
    pub ratio: f64,
    pub verdict: Verdict,
}

fn summary(values: &[f64]) -> (f64, f64, f64) {
    quartiles(values).unwrap_or((values[0], values[0], values[0]))
}

/// Judge one (metric, workload) pair. Both slices are non-empty.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (sa, sb) = (summary(a), summary(b));
    let spread = |s: (f64, f64, f64)| (s.2 - s.0) / s.1.abs();
    let worse_by = match better {
        Better::Lower => (sb.1 - sa.1) / sa.1.abs(),
        Better::Higher => (sa.1 - sb.1) / sa.1.abs(),
    };
    let verdict = if spread(sa) > bound || spread(sb) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row { a: sa, b: sb, ratio: sb.1 / sa.1, verdict }
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// `failed_share` has no tolerance: any increase is a regression.
pub fn judge_failed_share(a: &[f64], b: &[f64]) -> Verdict {
    if max(b) > max(a) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    raw_trace::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Every run's value of `pick` for workload `w`.
fn values(set: &Json, w: Workload, pick: impl Fn(&Json) -> Option<f64>) -> Vec<f64> {
    let runs = set.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter_map(|run| run.get("workloads")?.as_arr())
        .flatten()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w.name()))
        .filter_map(pick)
        .collect()
}

/// Bounds by metric name, from the committed `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))?;
    let metrics = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_owned(), bound))
        })
        .collect()
}

/// Print the table; `Ok(true)` when no pair is worse.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (set_a, set_b) = (load(path_a)?, load(path_b)?);
    let bounds = bounds()?;
    println!("base A = {path_a}, candidate B = {path_b}; each cell is median [q1, q3]");
    println!(
        "{:<15} {:<12} {:>5} {:>30} {:>30} {:>9} {:>6}  verdict",
        "workload", "metric", "unit", "A", "B", "B/A", "bound"
    );
    let mut all_ok = true;
    for w in Workload::ALL {
        for def in END_TO_END {
            let pick = |r: &Json| r.get("metrics")?.get(def.name)?.get("value")?.as_f64();
            let (a, b) = (values(&set_a, w, pick), values(&set_b, w, pick));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let bound = bounds
                .iter()
                .find(|(n, _)| n == def.name)
                .map(|&(_, b)| b)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))?;
            let row = judge(&a, &b, def.better, bound);
            all_ok &= row.verdict != Verdict::Worse;
            let cell = |s: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", s.1, s.0, s.2);
            println!(
                "{:<15} {:<12} {:>5} {:>30} {:>30} {:>9.4} {:>6.2}  {}",
                w.name(),
                def.name,
                def.unit,
                cell(row.a),
                cell(row.b),
                row.ratio,
                bound,
                format!("{:?}", row.verdict).to_lowercase(),
            );
        }
        let pick = |r: &Json| r.get("failed_share")?.as_f64();
        let (a, b) = (values(&set_a, w, pick), values(&set_b, w, pick));
        if !a.is_empty() && !b.is_empty() {
            let verdict = judge_failed_share(&a, &b);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{:<15} {:<12} {:>5} {:>30} {:>30} {:>9} {:>6}  {}",
                w.name(),
                "failed_share",
                "ratio",
                format!("max {:.4}", max(&a)),
                format!("max {:.4}", max(&b)),
                "-",
                "any",
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_run_sets() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound, either direction.
        assert_eq!(judge(&base, &[104.0, 105.0, 103.0], Better::Lower, 0.10).verdict, Verdict::Ok);
        assert_eq!(judge(&base, &[80.0, 81.0, 79.0], Better::Lower, 0.10).verdict, Verdict::Ok);
        // Beyond it, in the bad direction for the metric.
        let slow = [115.0, 116.0, 114.0];
        assert_eq!(judge(&base, &slow, Better::Lower, 0.10).verdict, Verdict::Worse);
        assert_eq!(judge(&base, &slow, Better::Higher, 0.10).verdict, Verdict::Ok);
        assert_eq!(judge(&base, &[85.0, 86.0, 84.0], Better::Higher, 0.10).verdict, Verdict::Worse);
        // A spread wider than the bound resolves nothing, whatever the medians.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&base, &noisy, Better::Lower, 0.10).verdict, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &slow, Better::Lower, 0.10).verdict, Verdict::Unresolved);
        // Single runs compare by value.
        let row = judge(&[10.0], &[12.0], Better::Lower, 0.10);
        assert_eq!((row.verdict, row.ratio), (Verdict::Worse, 1.2));

        assert_eq!(judge_failed_share(&[0.0, 0.0], &[0.0, 0.01]), Verdict::Worse);
        assert_eq!(judge_failed_share(&[0.0], &[0.0]), Verdict::Ok);
    }
}
