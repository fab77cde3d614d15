//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <train_seq|train_dist|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! perfbench spread <file>...   # run-to-run spread of saved result lines
//! ```
//!
//! A workload run prints a detail record (host stamp, gates, every
//! measured figure) and, as its last line, the result: `correct`,
//! `attempted`, `failed` and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). See `README.md` beside this
//! crate for what each metric means and which workload moves it.

mod host;
mod metrics;
mod serve;
mod stats;
mod train;

use metrics::{Report, END_TO_END};
use std::process::ExitCode;

/// The workloads `BENCHMARK.json` names.
const WORKLOADS: &[&str] = &["train_seq", "train_dist", "serve_mixed"];

/// Seconds one run measures.
const RUN_SECONDS: u64 = 30;

const USAGE: &str = "usage: perfbench --workload <train_seq|train_dist|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench spread <result-file>...";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(RUN_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

fn run(a: &Args) -> Report {
    let mut report = Report::default();
    match a.workload.as_str() {
        "train_seq" => train::train_seq(a.seed, a.seconds, a.trace, &mut report),
        "train_dist" => train::train_dist(a.seed, a.seconds, a.trace, &mut report),
        "serve_mixed" => serve::serve_mixed(a.seed, a.seconds, &mut report),
        w => unreachable!("workload {w} was validated"),
    }
    report
}

/// Median, quartiles and spread of each end-to-end metric over saved
/// result lines (one run's standard output per file).
fn spread(files: &[String]) -> Result<(), String> {
    let mut lines = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let last = text.lines().last().ok_or_else(|| format!("{f}: empty"))?;
        if !last.starts_with("{\"correct\":true") {
            return Err(format!("{f}: run not correct: {last}"));
        }
        lines.push(last.to_string());
    }
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, _, _, bound) in END_TO_END {
        let key = format!("\"{name}\":{{\"value\":");
        let values: Vec<f64> = lines
            .iter()
            .filter_map(|l| {
                let rest = &l[l.find(&key)? + key.len()..];
                rest[..rest.find(',')?].parse().ok()
            })
            .collect();
        if values.is_empty() {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(&values);
        println!(
            "{name:<22} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>8.4} {bound:>8}",
            stats::spread(&values)
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        return match spread(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!(
        "{}",
        report.detail_json(&host::stamp_json(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace
        ))
    );
    // A run that printed its result exits 0; a failed gate shows as
    // `"correct": false` and in `failed`.
    println!("{}", report.result_json(args.trace));
    ExitCode::SUCCESS
}
