//! `xseq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use std::process::ExitCode;
use xseq_perfbench::run::{Spec, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: xseq-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Spec::by_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(spec), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let report = xseq_perfbench::run(&spec, seed, seconds, trace);
    println!("{}", report.to_json());
    if report.attempted == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
