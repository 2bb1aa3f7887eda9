//! The command's three modes: one run for the benchmark driver, the
//! whole benchmark into one report file, and the comparison of two
//! report files.

use std::process::{Command, Stdio};

use serde::{obj_get, Value};

use crate::e2e::{self, RunResult};
use crate::proc::{build_dordis, environment, repo_root};
use crate::stats::{median, spread};
use crate::traced;
use crate::workloads::{by_name, per_layer, EndToEnd, Workload, END_TO_END, WORKLOADS};
use crate::Res;

fn metrics_json(result: &RunResult) -> Value {
    Value::Object(
        result
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn emit(value: &Value) -> Res<String> {
    serde_json::to_string(value).map_err(|e| e.to_string())
}

/// The driver's mode: one run, findings on stderr, the result object as
/// the last line of stdout. The program is rebuilt first, so a stale
/// binary is never measured. `Ok(false)` when any round failed.
///
/// # Errors
///
/// Unknown workload, or the program could not be built.
pub fn run_one(name: &str, seed: u64, seconds: u64, trace: bool) -> Res<bool> {
    let workload = by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let bin = build_dordis()?;
    let mut result = match (workload, trace) {
        (Workload::Tcp(w), false) => e2e::run_tcp(&bin, &w, seed, seconds),
        (Workload::Tcp(w), true) => traced::run_tcp(&bin, &w, seed),
        (Workload::Fl(w), false) => e2e::run_fl(&w, seed, seconds),
        (Workload::Fl(w), true) => traced::run_fl(&w, seed),
    };
    // A run that lost metrics on the way cannot pass as a clean one.
    let expected = if trace {
        per_layer().len()
    } else {
        END_TO_END.len()
    };
    if result.metrics.len() != expected && result.failed == 0 {
        result.failed = 1;
    }
    eprintln!("env: {}", emit(&environment())?);
    eprintln!("workload: {workload:?} seed {seed}");
    for note in &result.notes {
        eprintln!("{name}: {note}");
    }
    let correct = result.failed == 0;
    println!(
        "{}",
        emit(&Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(result.attempted.max(1))),
            ("failed".into(), Value::UInt(result.failed)),
            ("metrics".into(), metrics_json(&result)),
        ]))?
    );
    Ok(correct)
}

/// One run in a child process of this same program, exactly as the
/// driver would start it, so no run sees another's memory high-water
/// mark or CPU counters. Returns the result object it printed.
fn run_child(name: &str, seed: u64, seconds: u64, trace: bool) -> Res<Value> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: no result"))?;
    serde_json::from_str(last).map_err(|e| format!("{name}: {e}"))
}

fn count(result: &Value, key: &str) -> u64 {
    field(result, key).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

/// The one command: every workload untraced (`repeats` seeds each), then
/// traced; every metric printed by name and unit; one report file.
/// `Ok(false)` when any round failed.
///
/// # Errors
///
/// A run printed no result, or the report could not be written.
pub fn run_all(seed: u64, seconds: u64, repeats: u64, out: &str) -> Res<bool> {
    let env = environment();
    println!("env: {}", emit(&env)?);
    println!("transport: TCP over 127.0.0.1 (tcp_*), in-process loopback (fl_*)");
    let mut attempted = 0;
    let mut failed = 0;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let name = workload.name();
        println!("\n== {name}: {workload:?}");
        let mut values: Vec<Vec<Value>> = vec![Vec::new(); END_TO_END.len()];
        for k in 0..repeats.max(1) {
            let result = run_child(name, seed + 1000 * k, seconds, false)?;
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (slot, metric) in values.iter_mut().zip(END_TO_END) {
                let run = field(&result, "metrics").and_then(|m| field(m, metric.name));
                slot.extend(run.and_then(|m| field(m, "value")).cloned());
            }
        }
        for (metric, v) in END_TO_END.iter().zip(&values) {
            let runs: Vec<f64> = v.iter().filter_map(Value::as_f64).collect();
            println!(
                "   {:<44} {:>16.6} {}",
                metric.name,
                median(&runs),
                metric.unit
            );
        }
        let traced = run_child(name, seed, seconds, true)?;
        attempted += count(&traced, "attempted");
        failed += count(&traced, "failed");
        let layers = field(&traced, "metrics").cloned().unwrap_or(Value::Null);
        for (layer, unit) in per_layer() {
            let value = field(&layers, layer).and_then(|m| field(m, "value"));
            let value = value.and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!("   {layer:<44} {value:>16.6} {unit}");
        }
        workloads.push(Value::Object(vec![
            ("name".into(), Value::Str(name.into())),
            ("params".into(), Value::Str(format!("{workload:?}"))),
            (
                "end_to_end".into(),
                Value::Object(
                    END_TO_END
                        .iter()
                        .zip(values)
                        .map(|(m, runs)| {
                            (
                                m.name.to_string(),
                                Value::Object(vec![
                                    ("unit".into(), Value::Str(m.unit.into())),
                                    ("values".into(), Value::Array(runs)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("per_layer".into(), layers),
        ]));
    }
    let ratio = failed as f64 / attempted.max(1) as f64;
    println!("\nround_fail_ratio {ratio} ({failed} of {attempted} round(s))");
    let report = Value::Object(vec![
        ("schema".into(), Value::Str("dordis-benchmark/1".into())),
        ("env".into(), env),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("rounds_attempted".into(), Value::UInt(attempted)),
        ("rounds_failed".into(), Value::UInt(failed)),
        ("round_fail_ratio".into(), Value::Float(ratio)),
        ("workloads".into(), Value::Array(workloads)),
    ]);
    // A relative path is relative to the repository, like the default.
    let path = repo_root().join(out);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report: {}", path.display());
    Ok(failed == 0)
}

/// How the second file's runs of one metric stand against the first's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than either side's own spread.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Worse,
    /// The runs' own spread exceeds the bound, and the two sides overlap.
    Unresolved,
}

/// Judges `b` against `a` for one metric.
#[must_use]
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let sign = if metric.higher_is_better { -1.0 } else { 1.0 };
    let (ma, mb) = (median(a), median(b));
    let worse_by = sign * (mb - ma) / ma.abs();
    let noise = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
    if noise > metric.bound {
        let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
        let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
        return if worst(b) < best(a) {
            Verdict::Better
        } else if best(b) > worst(a) && worse_by > metric.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > noise && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &str) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    obj_get(value.as_object()?, key)
}

/// The runs of one (workload, metric) in a report.
fn runs(report: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let Value::Array(workloads) = field(report, "workloads")? else {
        return None;
    };
    let entry = workloads
        .iter()
        .find(|w| matches!(field(w, "name"), Some(Value::Str(n)) if n == workload))?;
    let Value::Array(values) = field(field(field(entry, "end_to_end")?, metric)?, "values")? else {
        return None;
    };
    let values: Vec<f64> = values.iter().filter_map(Value::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

/// Prints the verdict per (workload, end-to-end metric) of report `b`
/// against report `a`. `Ok(false)` when anything is worse, or when `b`
/// recorded a failed round.
///
/// # Errors
///
/// A file is missing, malformed, or lacks a workload or metric.
pub fn compare_files(a: &str, b: &str) -> Res<bool> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change"
    );
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let name = workload.name();
            let missing = |which: &str| format!("{which}: no runs of {name} / {}", metric.name);
            let va = runs(&ra, name, metric.name).ok_or_else(|| missing(a))?;
            let vb = runs(&rb, name, metric.name).ok_or_else(|| missing(b))?;
            let verdict = judge(metric, &va, &vb);
            clean &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<26} {:>14.6} {:>14.6} {:>+7.2}%  {}",
                name,
                metric.name,
                median(&va),
                median(&vb),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs(),
                match verdict {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                }
            );
        }
    }
    let failed = field(&rb, "rounds_failed").and_then(Value::as_f64);
    if failed != Some(0.0) {
        println!("{b}: rounds_failed is {failed:?}, must be 0");
        clean = false;
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: EndToEnd = END_TO_END[0];
    const THROUGHPUT: EndToEnd = END_TO_END[1];

    #[test]
    fn verdicts() {
        let steady = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            judge(&WALL, &steady, &[1.02, 1.03, 1.02, 1.03]),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&WALL, &steady, &[1.30, 1.31, 1.29, 1.30]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&WALL, &steady, &[0.80, 0.81, 0.79, 0.80]),
            Verdict::Better
        );
        // Direction flips for a higher-is-better metric.
        assert_eq!(
            judge(&THROUGHPUT, &steady, &[0.70, 0.71, 0.69, 0.70]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&THROUGHPUT, &steady, &[1.20, 1.21, 1.19, 1.20]),
            Verdict::Better
        );
        // Spread wider than the bound, overlapping sides: not resolved.
        let noisy = [0.8, 1.0, 1.2, 1.4];
        assert_eq!(
            judge(&WALL, &noisy, &[0.9, 1.1, 1.3, 1.5]),
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&WALL, &noisy, &[0.5, 0.6, 0.7, 0.75]),
            Verdict::Better
        );
        // A single run per side has no spread to hide behind.
        assert_eq!(judge(&WALL, &[1.0], &[1.3]), Verdict::Worse);
    }
}
