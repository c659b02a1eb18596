//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inventory-hash|inventory-signal|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing instrumented;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! See `README.md` next to this file for what each workload loads and
//! which layer metric should move which end-to-end metric.

mod inventory;
mod layers;
mod report;
mod serve;
mod stats;
mod sys;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["inventory-hash", "inventory-signal", "serve-mixed"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <inventory-hash|inventory-signal|serve-mixed> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_owned()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    use inventory::Kind;
    match (args.workload.as_str(), args.trace) {
        ("inventory-hash", false) => inventory::run(Kind::Hash, args),
        ("inventory-hash", true) => inventory::run_traced(Kind::Hash, args),
        ("inventory-signal", false) => inventory::run(Kind::Signal, args),
        ("inventory-signal", true) => inventory::run_traced(Kind::Signal, args),
        ("serve-mixed", false) => serve::run(args),
        ("serve-mixed", true) => serve::run_traced(args),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    match run(&args).and_then(|outcome| {
        for failure in &outcome.failures {
            eprintln!("perfbench: FAILED {failure}");
        }
        outcome.render(registry)
    }) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&argv(
            "--workload serve-mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve-mixed".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-mixed --seed 1 --seconds 0 --trace 0",
            "--workload serve-mixed --seed 1 --seconds 1 --trace 2",
            "--workload serve-mixed --seed 1 --seconds 1",
            "--workload serve-mixed --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
