//! Experiment harness: regenerates every table/figure of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p bench-suite --bin experiments            # quick pass, all
//! cargo run --release -p bench-suite --bin experiments -- --full  # full grids
//! cargo run --release -p bench-suite --bin experiments -- --exp f1 --full
//! cargo run --release -p bench-suite --bin experiments -- --out results/
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bench_suite::experiments::{one, REGISTRY};
use bench_suite::{Scale, Table};

/// Every experiment in presentation order. T2 is wall-clock timing: it runs
/// alone, after the parallel batch, so concurrent experiments don't
/// inflate its numbers.
fn all(scale: Scale) -> Vec<(&'static str, Table)> {
    let batch: Vec<_> = REGISTRY.iter().filter(|(id, _)| *id != "t2").collect();
    let mut out = dvs_exec::par_map(&batch, |(id, run)| (*id, run(scale)));
    let slot = REGISTRY
        .iter()
        .position(|(id, _)| *id == "t2")
        .expect("registered");
    out.insert(slot, ("t2", one("t2", scale).expect("registered")));
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut exp: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => scale = Scale::Full,
            "--exp" => match it.next() {
                Some(v) => exp = Some(v.clone()),
                None => {
                    eprintln!("--exp requires a value (see --help)");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(v) => out = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--out requires a value (see --help)");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                let ids: Vec<&str> = REGISTRY.iter().map(|(id, _)| *id).collect();
                eprintln!(
                    "usage: experiments [--full] [--exp {}] [--out DIR]",
                    ids.join("|")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other} (see --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    let tables: Vec<(String, Table)> = match exp {
        Some(id) => match one(&id, scale) {
            Some(t) => vec![(id, t)],
            None => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::FAILURE;
            }
        },
        None => all(scale)
            .into_iter()
            .map(|(id, t)| (id.to_string(), t))
            .collect(),
    };
    for (id, table) in &tables {
        println!("{table}");
        if let Some(dir) = &out {
            let path = dir.join(format!("{id}.csv"));
            if let Err(e) = table.write_csv(&path) {
                eprintln!("failed to write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
