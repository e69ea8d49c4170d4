//! The BridgeScope agent-traffic benchmark.
//!
//! Drives a freshly bound loopback `wire` server — gate caches on,
//! in-memory telemetry with the flight recorder on, default `WireConfig`,
//! volatile engine — with one of four closed-loop workloads, checks every
//! output, and prints the metrics named in `BENCHMARK.json`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bird_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run records what the per-layer breakdown needs while it measures.
//! `--trace 0` reports the end-to-end metrics. `--trace 1` works after the
//! timed phase: it reads the served spans of the timed calls for a
//! self-time table, which must add up to the client round trip within the
//! stated tolerance, replays the calls in process to time single layers,
//! and reports the per-layer metrics. `--workload all` runs every workload
//! with `--trace 0`. The exit code is non-zero when any correctness check
//! fails.

mod agent;
mod agent_bird;
mod bird_read;
mod inputs;
mod oracle;
mod point_mix;
mod proxy_ml;
mod report;
mod served;
mod stats;

use report::{Breakdown, Layers, Measured};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["bird_read", "point_mix", "proxy_ml", "agent_bird"];

/// Everything one workload run produced.
pub struct Outcome {
    /// Median CPU time of a set-up in seconds, and the number of set-ups.
    setup: (f64, usize),
    measured: Measured,
    failures: Vec<String>,
    traced: Option<(Layers, Breakdown)>,
}

impl Outcome {
    /// Bundle a run's results.
    pub fn new(
        setup: (f64, usize),
        measured: Measured,
        failures: Vec<String>,
        traced: Option<(Layers, Breakdown)>,
    ) -> Outcome {
        Outcome {
            setup,
            measured,
            failures,
            traced,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match name {
        "bird_read" => bird_read::run(seed, seconds, traced),
        "point_mix" => point_mix::run(seed, seconds, traced),
        "proxy_ml" => proxy_ml::run(seed, seconds, traced),
        "agent_bird" => agent_bird::run(seed, seconds, traced),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Print one run's report and return its result line and verdict.
fn report_run(name: &str, outcome: Outcome) -> (String, bool) {
    let m = &outcome.measured;
    let mut failures = outcome.failures;
    println!("== {name}");
    println!("  ops {} ops_failed {}", m.calls, m.failed);
    println!(
        "  setup_s is the median CPU time of {} set-ups",
        outcome.setup.1
    );
    let (values, section) = match &outcome.traced {
        None => {
            let values = report::end_to_end(m, outcome.setup.0);
            print!("{}", report::render("end_to_end", &values));
            let plain: BTreeMap<String, f64> =
                values.into_iter().map(|(k, (v, _))| (k, v)).collect();
            (plain, "end_to_end")
        }
        Some((layers, breakdown)) => {
            let tolerance = report::reconcile_tolerance();
            println!("  self time per layer (served spans of the timed calls):");
            for line in breakdown.table(tolerance).lines() {
                println!("    {line}");
            }
            if breakdown.calls() == 0 || breakdown.gap() > tolerance {
                failures.push(format!(
                    "{name}: layer self times miss wire.call_us by {:.1}% (tolerance {:.0}%)",
                    100.0 * breakdown.gap(),
                    100.0 * tolerance
                ));
            }
            if breakdown.unmatched() > 0 {
                failures.push(format!(
                    "{name}: {} timed calls have no served spans",
                    breakdown.unmatched()
                ));
            }
            let defined = report::defined_metrics("per_layer");
            for name in layers.0.keys() {
                assert!(
                    defined.iter().any(|(d, _)| d == name),
                    "per-layer metric {name} is not defined in BENCHMARK.json"
                );
            }
            let values: BTreeMap<String, f64> = defined
                .into_iter()
                .map(|(metric, _)| {
                    let v = layers.0.get(&metric).copied().unwrap_or(0.0);
                    (metric, v)
                })
                .collect();
            let shown: report::Reported = values
                .iter()
                .map(|(k, v)| (k.clone(), (*v, None)))
                .collect();
            print!("{}", report::render("per_layer", &shown));
            (values, "per_layer")
        }
    };
    for f in &failures {
        println!("  CHECK FAILED: {f}");
    }
    let correct = failures.is_empty() && m.calls > 0;
    (
        report::result_line(section, &values, correct, m.calls, m.failed),
        correct,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    let mut last = String::new();
    for name in names {
        let outcome = run_workload(name, args.seed, args.seconds, args.trace);
        let (line, correct) = report_run(name, outcome);
        all_correct &= correct;
        if args.workload == "all" {
            println!("{line}");
        }
        last = line;
    }
    if args.workload == "all" {
        println!("all workloads correct: {all_correct}");
    } else {
        println!("{last}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
