//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!  --workload point_lookup --seed 1 --seconds 10 --trace 0`.
//! Prints every metric with its unit and sample count, a diagnostics
//! line, and, last, the JSON result line. Exits nonzero without a
//! result line when an argument is bad or a correctness check fails.

use perfbench::e2e::{self, RunOpts};
use perfbench::spec::{Spec, Workload};
use perfbench::traced;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
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
            eprintln!("perfbench: {e}");
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_default();
    let work_dir = root.join(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        u8::from(args.trace),
        std::process::id()
    ));
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        work_dir: work_dir.clone(),
        root,
    };
    let spec = Spec::of(args.workload);
    let outcome = if args.trace {
        traced::run(&spec, &opts)
    } else {
        e2e::run(&spec, &opts)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    print!("{}", outcome.render_table());
    println!("{}", outcome.render_diagnostics());
    println!("{}", outcome.render_result());
    ExitCode::SUCCESS
}
