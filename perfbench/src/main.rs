//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_hits|cold_compile|graph_churn|gnn_forward> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints every
//! end-to-end metric; with `--trace 1` every per-layer metric from a
//! separate staged, traced run. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and what each metric should move.

mod gnn;
mod inputs;
mod phase;
mod reference;
mod report;
mod serve;
mod staged;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use ugrapher_util::json::Value;

use crate::serve::Mode;

const USAGE: &str =
    "usage: perfbench --workload <warm_hits|cold_compile|graph_churn|gnn_forward> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let duration = Duration::from_secs(args.seconds);
    let mode = match args.workload.as_str() {
        "warm_hits" => Some(Mode::WarmHits),
        "cold_compile" => Some(Mode::ColdCompile),
        "graph_churn" => Some(Mode::GraphChurn),
        "gnn_forward" => None,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.as_str();
    let outcome = match (mode, args.trace) {
        (Some(mode), false) => serve::untraced(mode, args.seed, duration),
        (Some(mode), true) => serve::traced(mode, name, args.seed, duration),
        (None, false) => gnn::untraced(args.seed, duration),
        (None, true) => gnn::traced(args.seed, duration),
    };
    match outcome {
        Ok(report) => {
            report.print(&[
                ("workload", Value::Str(name.to_owned())),
                ("seed", Value::Num(args.seed as f64)),
                ("seconds", Value::Num(args.seconds as f64)),
                ("trace", Value::Bool(args.trace)),
            ]);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
