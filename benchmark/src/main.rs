//! `raw-benchmark`: the instrument every later performance claim about this
//! repository is measured with. See `benchmark/README.md`.
//!
//! ```text
//! raw-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! raw-benchmark run   [--seed N] [--repeat K] [--seed-step D] [--smoke] [--out FILE]
//! raw-benchmark trace [--seed N] [--smoke]
//! raw-benchmark compare A.json B.json
//! ```

mod compare;
mod data;
mod layers;
mod oracle;
mod queries;
mod report;
mod single;
mod spans;
mod stats;
mod workloads;

use std::collections::HashMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use raw_trace::Json;

use workloads::Workload;

const USAGE: &str = "usage:
  raw-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--report <file>]
  raw-benchmark run   [--seed <n>] [--seconds <s>] [--repeat <k>] [--seed-step <d>] [--smoke] [--out <file>]
  raw-benchmark trace [--seed <n>] [--seconds <s>] [--smoke]
  raw-benchmark compare <A.json> <B.json>
workloads: cold_csv cold_rzb adaptive_seq warm_ops sessions_mixed";

/// `--key value` pairs, bare `--smoke`, and positionals.
struct Args {
    flags: HashMap<String, String>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args { flags: HashMap::new(), smoke: false, positional: Vec::new() };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => out.smoke = true,
                Some(key) => {
                    let value = args.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    out.flags.insert(key.to_owned(), value);
                }
                None => out.positional.push(arg),
            }
        }
        Ok(out)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a whole number, got `{v}`")),
        }
    }
}

/// The `run_seconds` of `BENCHMARK.json`, the default for `run` and `trace`.
const RUN_SECONDS: u64 = 10;

/// One workload in this process; the contract's entry point. A run that
/// printed its result line succeeded as a *measurement* — whether the engine
/// was correct is the line's `correct` field.
fn single(args: &Args, process_start: Instant) -> Result<bool, String> {
    let name = args.flags.get("workload").ok_or(USAGE)?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?;
    let seed = args.number("seed", 1)?;
    let seconds = args.number("seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    std::fs::create_dir_all(single::out_dir()).map_err(|e| format!("create out dir: {e}"))?;
    let outcome = match args.number("trace", 0)? {
        0 => single::untraced(w, seed, seconds, args.smoke, process_start)?,
        1 => single::traced(w, seed, seconds, args.smoke)?,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    report::print_metrics(&format!("{} (seed {seed})", w.name()), &outcome.metrics);
    let share = outcome.failed as f64 / outcome.attempted as f64;
    println!(
        "  {:<28} {:>16.4} ratio  ({} of {})",
        "failed_share", share, outcome.failed, outcome.attempted
    );
    for key in ["failures", "design_violations"] {
        for message in outcome.report.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            println!("  {key}: {}", message.as_str().unwrap_or("?"));
        }
    }
    if let Some(path) = args.flags.get("report") {
        std::fs::write(path, outcome.report.render_pretty(1))
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    println!(
        "{}",
        report::contract_line(outcome.attempted, outcome.failed, outcome.correct, &outcome.metrics)
    );
    Ok(true)
}

/// `run` / `trace`: every workload one after another, each in a fresh child
/// process (this executable, re-executed), so no workload inherits another's
/// heap, page cache footprint or worker threads.
fn all_workloads(args: &Args, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = single::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let seed = args.number("seed", 1)?;
    let step = args.number("seed-step", 0)?;
    let seconds = args.number("seconds", RUN_SECONDS)?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for rep in 0..args.number("repeat", 1)? {
        let seed = seed + rep * step;
        let mut reports = Vec::new();
        for w in Workload::ALL {
            let report_path =
                out_dir.join(format!("report_{}_{}.json", w.name(), std::process::id()));
            let mut child = Command::new(&exe);
            child.args(["--workload", w.name(), "--seed", &seed.to_string()]);
            child.args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            child.arg("--report").arg(&report_path);
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child.status().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let text = std::fs::read_to_string(&report_path).unwrap_or_default();
            let _ = std::fs::remove_file(&report_path);
            match raw_trace::json::parse(&text) {
                Ok(report) if status.success() => {
                    all_ok &= report.get("correct") == Some(&Json::Bool(true));
                    reports.push(report);
                }
                _ => all_ok = false,
            }
        }
        runs.push(Json::obj(vec![("seed", Json::UInt(seed)), ("workloads", Json::Arr(reports))]));
    }
    let default_out = out_dir.join(if trace { "trace.json" } else { "run.json" });
    let out = args.flags.get("out").map_or(default_out, Into::into);
    let doc = Json::obj(vec![("claim", Json::Null), ("runs", Json::Arr(runs))]);
    std::fs::write(&out, doc.render_pretty(1))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    if !all_ok {
        println!(
            "FAILED: a workload reported failed_share > 0, a broken invariant, or did not finish"
        );
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut argv = std::env::args().skip(1).peekable();
    let command = argv.next_if(|a| !a.starts_with("--"));
    let outcome = Args::parse(argv).and_then(|args| match command.as_deref() {
        None => single(&args, process_start),
        Some("run") => all_workloads(&args, false),
        Some("trace") => all_workloads(&args, true),
        Some("compare") => match args.positional.as_slice() {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.to_owned()),
        },
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
