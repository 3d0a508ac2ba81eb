//! Workspace scanning, the expiring allowlist, and report rendering.
//!
//! The scanner walks a workspace root, lexes every `.rs` file it is
//! responsible for, runs [`crate::rules::check_file`], filters the
//! findings through an allowlist, and renders the result as a
//! deterministic [`raw_trace::Json`] document (files sorted, findings
//! sorted by file/line/rule).
//!
//! The allowlist (`analyze.allow.json` at the workspace root) is a JSON
//! array of entries:
//!
//! ```json
//! [{"rule": "H1", "file": "crates/x/src/a.rs", "line": 10,
//!   "expires": "2026-12-31", "reason": "scratch reuse lands in PR 9"}]
//! ```
//!
//! Entries *expire*: past the `expires` date the suppressed finding comes
//! back, reported as rule `X1`. An entry that matches nothing is itself a
//! finding (`X2`) so the allowlist can only shrink — stale suppressions
//! don't accumulate. The file ships empty and the CI gate keeps it that
//! way unless a dated, justified exception is deliberately added.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use raw_trace::json::{self, Json};

use crate::rules::{check_file, Finding};

/// Path components that end the walk: build output, VCS internals,
/// persisted bench baselines, and the analyzer's own deliberately
/// violating test fixtures.
const SKIP_COMPONENTS: &[&str] = &["target", ".git", "bench_results", "fixtures"];

/// One allowlist entry (see module docs for the file format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub file: String,
    pub line: u32,
    /// `YYYY-MM-DD`; the entry stops suppressing after this date.
    pub expires: String,
    pub reason: String,
}

/// Parse `analyze.allow.json` content.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let parsed = json::parse(text)?;
    let Json::Arr(items) = parsed else { return Err("allowlist must be a JSON array".to_string()) };
    let mut entries = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let get_str = |key: &str| -> Result<String, String> {
            match item.get(key).and_then(Json::as_str) {
                Some(s) => Ok(s.to_string()),
                None => Err(format!("allowlist entry {i} missing string field `{key}`")),
            }
        };
        let line = match item.get("line").and_then(Json::as_u64) {
            Some(n) if n <= u32::MAX as u64 => n as u32,
            _ => return Err(format!("allowlist entry {i} missing numeric field `line`")),
        };
        let expires = get_str("expires")?;
        if parse_date(&expires).is_none() {
            return Err(format!(
                "allowlist entry {i}: `expires` must be YYYY-MM-DD, got `{expires}`"
            ));
        }
        entries.push(AllowEntry {
            rule: get_str("rule")?,
            file: get_str("file")?,
            line,
            expires,
            reason: get_str("reason")?,
        });
    }
    Ok(entries)
}

/// Parse `YYYY-MM-DD` into days since the civil epoch 1970-01-01.
/// Returns `None` on malformed input.
fn parse_date(s: &str) -> Option<i64> {
    let bytes = s.as_bytes();
    if bytes.len() != 10 || bytes[4] != b'-' || bytes[7] != b'-' {
        return None;
    }
    let year: i64 = s.get(0..4)?.parse().ok()?;
    let month: i64 = s.get(5..7)?.parse().ok()?;
    let day: i64 = s.get(8..10)?.parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    // Howard Hinnant's days_from_civil (public domain algorithm).
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (month + 9) % 12;
    let doy = (153 * mp + 2) / 5 + day - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    Some(era * 146097 + doe - 719468)
}

/// Today as days since 1970-01-01 (UTC).
fn today_days() -> i64 {
    // Wall-clock UTC is precise enough for a day-granularity expiry check.
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    (secs / 86_400) as i64
}

/// Apply the allowlist to raw findings: suppress matches that haven't
/// expired, and append `X1` (expired, still violating) / `X2` (unused
/// entry) findings. `today` is days since 1970-01-01 (pass
/// `today_days`'s value in production; tests pin it).
pub fn apply_allowlist(findings: Vec<Finding>, allow: &[AllowEntry], today: i64) -> Vec<Finding> {
    let mut used = vec![false; allow.len()];
    let mut out = Vec::new();
    for f in findings {
        let matched = allow
            .iter()
            .enumerate()
            .find(|(_, a)| a.rule == f.rule && a.file == f.file && a.line == f.line);
        match matched {
            Some((i, a)) => {
                used[i] = true;
                let expired = parse_date(&a.expires).is_none_or(|d| d < today);
                if expired {
                    out.push(Finding {
                        file: f.file,
                        line: f.line,
                        rule: "X1",
                        message: format!(
                            "allowlist entry for {} expired {} — fix the finding or renew the entry with a fresh justification ({})",
                            f.rule, a.expires, f.message
                        ),
                    });
                }
            }
            None => out.push(f),
        }
    }
    for (i, a) in allow.iter().enumerate() {
        if !used[i] {
            out.push(Finding {
                file: a.file.clone(),
                line: a.line,
                rule: "X2",
                message: format!(
                    "unused allowlist entry ({} at {}:{}) — the finding it suppressed is gone; remove the entry",
                    a.rule, a.file, a.line
                ),
            });
        }
    }
    out.sort();
    out
}

/// Result of a full workspace scan.
pub struct Report {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
}

impl Report {
    /// Render as a deterministic JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tool", Json::Str("raw-analyze".to_string())),
            ("files_scanned", Json::UInt(self.files_scanned as u64)),
            ("finding_count", Json::UInt(self.findings.len() as u64)),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("rule", Json::Str(f.rule.to_string())),
                                ("file", Json::Str(f.file.clone())),
                                ("line", Json::UInt(f.line as u64)),
                                ("message", Json::Str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Collect every `.rs` file under `root`, skipping `SKIP_COMPONENTS`,
/// as sorted workspace-relative forward-slash paths.
pub fn collect_rs_files(root: &Path) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_COMPONENTS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scan the workspace at `root` applying the allowlist at
/// `root/analyze.allow.json` (an absent file means an empty allowlist).
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    let allow_path = root.join("analyze.allow.json");
    let allow = if allow_path.exists() {
        let text = fs::read_to_string(&allow_path)
            .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
        parse_allowlist(&text)?
    } else {
        Vec::new()
    };
    let files = collect_rs_files(root)?;
    let mut findings = Vec::new();
    for rel in &files {
        let path: PathBuf = root.join(rel);
        let src = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        findings.extend(check_file(rel, &src));
    }
    let findings = apply_allowlist(findings, &allow, today_days());
    Ok(Report { files_scanned: files.len(), findings })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32) -> Finding {
        Finding { file: file.to_string(), line, rule, message: "m".to_string() }
    }

    fn entry(rule: &str, file: &str, line: u32, expires: &str) -> AllowEntry {
        AllowEntry {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            expires: expires.to_string(),
            reason: "r".to_string(),
        }
    }

    #[test]
    fn date_parsing_matches_known_epochs() {
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("2000-03-01"), Some(11017));
        assert_eq!(parse_date("2026-08-08"), Some(20673));
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("2026-13-01"), None);
    }

    #[test]
    fn live_allowlist_entry_suppresses_finding() {
        let today = parse_date("2026-08-08").unwrap();
        let out = apply_allowlist(
            vec![finding("H1", "a.rs", 10)],
            &[entry("H1", "a.rs", 10, "2026-12-31")],
            today,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn expired_entry_resurfaces_finding_as_x1() {
        let today = parse_date("2027-01-01").unwrap();
        let out = apply_allowlist(
            vec![finding("H1", "a.rs", 10)],
            &[entry("H1", "a.rs", 10, "2026-12-31")],
            today,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "X1");
        assert_eq!(out[0].file, "a.rs");
    }

    #[test]
    fn unused_entry_is_a_finding() {
        let today = parse_date("2026-08-08").unwrap();
        let out = apply_allowlist(Vec::new(), &[entry("U1", "gone.rs", 5, "2099-01-01")], today);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "X2");
    }

    #[test]
    fn allowlist_round_trips_through_json() {
        let text = r#"[{"rule": "H1", "file": "crates/x/src/a.rs", "line": 10,
                        "expires": "2026-12-31", "reason": "scratch reuse lands in PR 9"}]"#;
        let entries = parse_allowlist(text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "H1");
        assert_eq!(entries[0].line, 10);
        assert!(parse_allowlist("[]").unwrap().is_empty());
        assert!(parse_allowlist("{}").is_err());
        assert!(parse_allowlist(r#"[{"rule": "H1"}]"#).is_err());
        assert!(parse_allowlist(
            r#"[{"rule":"H1","file":"a","line":1,"expires":"soon","reason":"r"}]"#
        )
        .is_err());
    }

    #[test]
    fn report_renders_deterministically() {
        let report = Report { files_scanned: 2, findings: vec![finding("U1", "a.rs", 3)] };
        let rendered = report.to_json().render();
        assert_eq!(
            rendered,
            r#"{"tool":"raw-analyze","files_scanned":2,"finding_count":1,"findings":[{"rule":"U1","file":"a.rs","line":3,"message":"m"}]}"#
        );
    }
}
