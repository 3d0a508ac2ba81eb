//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p raw-bench --bin reproduce            # everything
//! cargo run --release -p raw-bench --bin reproduce fig5 fig9  # a subset
//! RAW_BENCH_SCALE=tiny cargo run -p raw-bench --bin reproduce # quick pass
//! ```
//!
//! Results print to stdout and are written to `bench_results/` (one file per
//! experiment plus `all.txt`).

use std::io::Write as _;

use raw_bench::report::ExpTable;
use raw_bench::Scale;
use raw_bench::{ablations, baseline, experiments};

type Runner = fn(&Scale) -> ExpTable;

fn registry() -> Vec<(&'static str, Runner)> {
    vec![
        ("table1", |_s| experiments::table1_environment()),
        ("fig1a", experiments::fig1a),
        ("fig1b", experiments::fig1b),
        ("fig2", experiments::fig2),
        ("fig3", experiments::fig3),
        ("table2", experiments::table2),
        ("fig5", experiments::fig5),
        ("fig6", experiments::fig6),
        ("fig7", experiments::fig7),
        ("fig8", experiments::fig8),
        ("fig9", experiments::fig9),
        ("fig11", experiments::fig11),
        ("fig12", experiments::fig12),
        ("fig13", experiments::fig13),
        ("fig14", experiments::fig14),
        ("table3", experiments::table3),
        // Perf baselines: BENCH_<key>.json artifacts with deterministic
        // counters (diffed exactly by `check_bench`) and advisory times.
        ("baselines", baseline::baselines),
        // Ablations (not paper figures): isolate one design choice each.
        ("ablation_index", ablations::ablation_index),
        ("ablation_adaptive", ablations::ablation_adaptive),
        ("ablation_posmap", ablations::ablation_posmap),
        ("ablation_compile", ablations::ablation_compile),
        ("ablation_batch", ablations::ablation_batch),
    ]
}

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = registry();

    let selected: Vec<&(&str, Runner)> = if args.is_empty() || args[0] == "all" {
        registry.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match registry.iter().find(|(name, _)| name == a) {
                Some(entry) => sel.push(entry),
                None => {
                    eprintln!(
                        "unknown experiment {a:?}; known: {}",
                        registry.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
                    );
                    std::process::exit(2);
                }
            }
        }
        sel
    };

    println!(
        "# RAW paper reproduction — scale: {} narrow rows, {} wide rows, {} join rows, {} events\n",
        scale.narrow_rows, scale.wide_rows, scale.join_rows, scale.higgs_events
    );

    let out_dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(out_dir).expect("create bench_results/");
    let mut all = String::new();

    for (name, runner) in selected {
        eprintln!("running {name}…");
        let start = std::time::Instant::now();
        let table = runner(&scale);
        let rendered = table.render();
        eprintln!("  done in {:?}", start.elapsed());
        println!("{rendered}");
        all.push_str(&rendered);
        all.push('\n');
        let mut f =
            std::fs::File::create(out_dir.join(format!("{name}.txt"))).expect("create result file");
        f.write_all(rendered.as_bytes()).expect("write result file");
    }

    std::fs::write(out_dir.join("all.txt"), all).expect("write all.txt");
    eprintln!("results written to {}/", out_dir.display());
}
