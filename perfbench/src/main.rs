//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its provenance record, then as the last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or the per-layer ones with `--trace 1`).

use chordal_perfbench::{run, Options, Size, Workload};
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        match args[i].as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace flag {value:?}")),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let options = Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
    };
    let report = run(&options);
    for failure in report.failures.iter().take(8) {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", report.record_line());
    println!("{}", report.result_line(trace));
    ExitCode::SUCCESS
}
