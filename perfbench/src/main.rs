//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mnist-http --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload against the system as shipped (default gateway,
//! registry and engine configurations), checks every output bit for bit
//! against `CompiledModel::infer`, prints a human-readable record and,
//! as its last line, one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md
//! in this directory for the workloads and what each metric should
//! move.

mod client;
mod layers;
mod load;
mod models;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for request rows and arrival times.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(report) = workloads::run(&args, process_start) else {
        eprintln!(
            "error: unknown workload {:?}; try one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
