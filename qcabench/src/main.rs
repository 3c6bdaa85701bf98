//! `qcabench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its result as one JSON line, last on
//! standard output. Exit code 2 on a usage error.

use qcabench::{run, RunConfig, Scale, Workload};
use std::time::Duration;

const USAGE: &str = "usage: qcabench --workload adapt-sched|adapt-verified|serve-zipf \
--seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::Full,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("qcabench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&config);
    for failure in &outcome.failures {
        eprintln!("qcabench: failed operation: {failure}");
    }
    println!("{}", outcome.to_json());
}
