//! Everything the harness does with processes: build the program from
//! the current tree, describe the host, spawn and reap `dordis`
//! children, and read their CPU and memory from `/proc`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

use crate::Res;

/// The repository root: the benchmark crate lives one level below it.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
        .to_path_buf()
}

/// Rebuilds `dordis` in release mode from the current tree and returns
/// the binary's path, so a stale binary is never measured. Honours
/// `CARGO_TARGET_DIR` (resolved against the caller's directory, as the
/// outer `cargo` did).
///
/// # Errors
///
/// The build failed, or the root manifest is not there.
pub fn build_dordis() -> Res<PathBuf> {
    let root = repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| format!("current dir: {e}"))?
            .join(dir),
        None => root.join("target"),
    };
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--package", "dordis-core", "--bin", "dordis"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of `dordis` failed: {status}"));
    }
    let bin = target.join("release").join("dordis");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Number of cores the scheduler gives this process.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What was measured, where: recorded with every report so two files
/// can be told apart.
#[must_use]
pub fn environment() -> Value {
    let root = repo_root();
    // A checkout without `.git` (the driver's) has no revision.
    let rev = command_line("git", &["rev-parse", "HEAD"], &root);
    let dirty = command_line("git", &["status", "--porcelain"], &root).map(|s| !s.is_empty());
    let text = |v: Option<String>| Value::Str(v.unwrap_or_else(|| "unknown".into()));
    Value::Object(vec![
        ("git_rev".into(), text(rev)),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        ("host_cores".into(), Value::UInt(host_cores() as u64)),
        ("rustc".into(), text(command_line("rustc", &["-V"], &root))),
        (
            "kernel".into(),
            text(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .ok()
                    .map(|s| s.trim().to_string()),
            ),
        ),
    ])
}

/// `/proc` reports CPU time in `USER_HZ` ticks, which is 100 on every
/// Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// The four CPU counters of `/proc/self/stat`, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    /// This process's own user + system time (all threads).
    pub own: f64,
    /// User + system time of every child reaped so far.
    pub reaped_children: f64,
}

/// Reads this process's CPU counters.
///
/// # Errors
///
/// `/proc/self/stat` is missing or malformed.
pub fn cpu_times() -> Res<CpuTimes> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields are counted after it.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse().ok())
        .collect();
    match fields[..] {
        [utime, stime, cutime, cstime] => Ok(CpuTimes {
            own: (utime + stime) / TICKS_PER_SECOND,
            reaped_children: (cutime + cstime) / TICKS_PER_SECOND,
        }),
        _ => Err("malformed /proc/self/stat".into()),
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in KiB; `None` once it
/// has exited. `pid` 0 means this process.
#[must_use]
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let path = if pid == 0 {
        "/proc/self/status".to_string()
    } else {
        format!("/proc/{pid}/status")
    };
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Owns every child of one session. Dropping it kills and reaps
/// whatever is still running, so no failure path leaks a process.
#[derive(Default)]
pub struct Fleet {
    children: Vec<(String, Child)>,
}

impl Fleet {
    /// Spawns `command` (stdin and stderr to null) and keeps it under
    /// `label`; returns its index.
    ///
    /// # Errors
    ///
    /// The spawn failed.
    pub fn spawn(&mut self, label: String, command: &mut Command) -> Res<usize> {
        let child = command
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {label}: {e}"))?;
        self.children.push((label, child));
        Ok(self.children.len() - 1)
    }

    /// The child at `idx`.
    pub fn child(&mut self, idx: usize) -> &mut Child {
        &mut self.children[idx].1
    }

    /// Whether the child at `idx` has exited; its exit must be clean.
    ///
    /// # Errors
    ///
    /// The child exited with a failure status.
    pub fn exited(&mut self, idx: usize) -> Res<bool> {
        let (label, child) = &mut self.children[idx];
        match child.try_wait().map_err(|e| format!("wait {label}: {e}"))? {
            None => Ok(false),
            Some(status) if status.success() => Ok(true),
            Some(status) => Err(format!("{label} exited with {status}")),
        }
    }

    /// Waits, until `deadline` at most, for every child whose index
    /// satisfies `which`; each must exit cleanly.
    ///
    /// # Errors
    ///
    /// A child exited with a failure status or outlived the deadline.
    pub fn reap(&mut self, which: impl Fn(usize) -> bool, deadline: Instant) -> Res<()> {
        for idx in (0..self.children.len()).filter(|&i| which(i)) {
            while !self.exited(idx)? {
                if Instant::now() > deadline {
                    return Err(format!("{} outlived the deadline", self.children[idx].0));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            // Already-reaped children make both calls no-ops.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
