//! End-to-end and per-layer benchmark of the Æthereal NoC simulator.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! benchmark run   [--seed N] [--seconds S] [--smoke]       every workload, untraced
//! benchmark trace [--seed N] [--seconds S] [--smoke]       every workload, traced
//! benchmark aa    [--seed N] [--seconds S] [--smoke]       the untraced set twice, compared
//! benchmark compare A.json B.json                           two result files
//! benchmark manifest                                         what BENCHMARK.json must say
//! ```
//!
//! See `README.md` for what is measured and why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control;
mod host;
mod ips;
mod json;
mod measure;
mod names;
mod observe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Options shared by every form of the command line.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => o.workload = Some(value(a)?),
            "--seed" => {
                o.seed = value(a)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                o.seconds = value(a)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds takes a positive number".to_string())?
            }
            "--trace" => {
                o.trace = match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (
        opts.workload.as_deref(),
        opts.positional.first().map(String::as_str),
    ) {
        (Some(name), None) => report::one_workload(name, &opts),
        (None, Some("run")) => report::whole_set(&opts, false, "").map(|_| ()),
        (None, Some("trace")) => report::whole_set(&opts, true, "").map(|_| ()),
        (None, Some("aa")) => report::aa(&opts),
        (None, Some("manifest")) => {
            print!("{}", names::manifest().render_pretty());
            Ok(())
        }
        (None, Some("compare")) => match &opts.positional[1..] {
            [a, b] => report::compare_files(a, b),
            _ => Err("compare takes two result files".into()),
        },
        _ => Err(
            "usage: benchmark --workload W --seed N --seconds S --trace 0|1 \
                  | run | trace | aa | compare A.json B.json | manifest"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
