//! `faster-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload once and prints the result object as its last line;
//! `--list` prints the workload names. `run.sh` is the front door.

use faster_benchmark::{run, spec};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: faster-benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] | --list   (from the root of the repository)";

/// Where span files go, relative to the root of the repository.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0x5EED,
        seconds: 12.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse_seed(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.5..=60.0).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = matches!(value.as_str(), "0" | "1")
                    .then(|| value == "1")
                    .ok_or_else(bad)?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            for s in &spec::ALL {
                println!("{}", s.name);
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::by_name(&args.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let report = if args.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("trace.{}.jsonl", spec.name));
        run::run_traced(spec, args.seed, args.seconds, &path)
    } else {
        run::run_untraced(spec, args.seed, args.seconds)
    };
    report.print_human();
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
