//! `dordis-benchmark`: the reference benchmark's command line.
//!
//! ```sh
//! # One run of one workload, as the benchmark driver invokes it; the
//! # last stdout line is the result object:
//! dordis-benchmark --workload tcp_churn64 --seed 7 --seconds 20 --trace 0
//! # Everything: all four workloads untraced, then traced, one report:
//! dordis-benchmark run [--seed 7] [--seconds 20] [--repeats 1] [--out FILE]
//! # Verdict per (workload, metric) between two reports:
//! dordis-benchmark compare A.json B.json
//! ```

use std::process::ExitCode;

use dordis_benchmark::report;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value for {name}: `{raw}`")),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match args {
            [_, a, b] => report::compare_files(a, b),
            _ => Err("usage: dordis-benchmark compare A.json B.json".into()),
        },
        Some("run") => report::run_all(
            parsed(args, "--seed", 1)?,
            parsed(args, "--seconds", 20)?,
            parsed(args, "--repeats", 1)?,
            flag(args, "--out").unwrap_or("benchmark/out/report.json"),
        ),
        _ => {
            let workload = flag(args, "--workload").ok_or(
                "usage: dordis-benchmark --workload NAME --seed N --seconds N --trace 0|1\n       \
                 dordis-benchmark run [--seed N] [--seconds N] [--repeats K] [--out FILE]\n       \
                 dordis-benchmark compare A.json B.json",
            )?;
            report::run_one(
                workload,
                parsed(args, "--seed", 1)?,
                parsed(args, "--seconds", 20)?,
                parsed::<u8>(args, "--trace", 0)? != 0,
            )
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dordis-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
