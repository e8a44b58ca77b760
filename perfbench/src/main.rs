//! `perfbench`: the repository benchmark. Runs one workload from a
//! seed for a given number of seconds, checks every output, and prints
//! the metrics — a table of `name value unit` lines, then one JSON
//! object as the last line of standard output:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured untraced;
//! `--trace 1` reports the per-layer metrics of a traced unit
//! (and writes its spans as CSV beside the executable, under `spans/`).
//! See `README.md` for the workloads and what each metric means.

mod competitive;
mod fig4;
mod measure;
mod service;
mod trace;

use measure::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "svc-poisson-p8",
    "svc-heavytail-p8",
    "fig4-paper",
    "competitive-failures",
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |what: &str| format!("bad value {value:?} for {flag}: {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("expected one of {}", WORKLOADS.join(", "))));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a finite number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Writes the traced run's spans beside the executable (inside the
/// build directory), as `spans/<workload>-seed<seed>.csv`.
pub fn write_spans(tracer: &trace::Tracer, args: &Args) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("spans")))
    else {
        return;
    };
    let path = dir.join(format!("{}-seed{}.csv", args.workload, args.seed));
    if let Err(e) = tracer.write_csv(&path) {
        eprintln!("warning: cannot write spans to {}: {e}", path.display());
    }
}

/// Prints the table and the JSON result line. A metric that is not a
/// finite number makes the run incorrect (JSON has no NaN).
fn print_outcome(args: &Args, out: &Outcome) {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let value = |name: &str| out.metrics.get(name).copied().unwrap_or(0.0);
    let finite = table.iter().all(|(name, _)| value(name).is_finite());
    let correct = out.tally.failed == 0 && finite;

    let walls: Vec<String> = out.walls.iter().map(|w| format!("{w:.4}")).collect();
    println!(
        "workload {} seed {} trace {} unit walls [{}] s",
        args.workload,
        args.seed,
        args.trace as u8,
        walls.join(" ")
    );
    for (name, unit) in table {
        println!("{name:<40} {:>18.6} {unit}", value(name));
    }
    println!(
        "{:<40} {:>18.6} ratio ({} of {} operations)",
        "failed_frac",
        out.tally.failed_frac(),
        out.tally.failed,
        out.tally.attempted
    );
    for (name, count) in &out.counts {
        println!("count {name:<34} {count:>18}");
    }
    if let Some(why) = &out.tally.first {
        println!("first failure: {why}");
    }

    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = value(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "svc-poisson-p8" => service::run(service::Svc::Poisson, &args),
        "svc-heavytail-p8" => service::run(service::Svc::HeavyTail, &args),
        "fig4-paper" => fig4::run(&args),
        "competitive-failures" => competitive::run(&args),
        other => unreachable!("parse_args accepted unknown workload {other}"),
    };
    print_outcome(&args, &out);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload fig4-paper --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fig4-paper", 3, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fig4-paper --seed x --seconds 1 --trace 0",
            "--workload fig4-paper --seed 1 --seconds 1 --trace 2",
            "--workload fig4-paper --seed 1 --seconds 1",
            "--workload fig4-paper --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
