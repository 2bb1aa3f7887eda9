//! One TCP session as a black box: a `dordis serve` process and one
//! `dordis join` process per cohort member on 127.0.0.1, observed only
//! through `serve`'s stdout, exit codes and `/proc`.
//!
//! Rounds are a closed loop (round r+1 starts when round r returns); the
//! harness is one control thread plus one stdout reader.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use crate::proc::{cpu_times, peak_rss_kib, Fleet};
use crate::workloads::TcpWorkload;
use crate::Res;

/// What `serve` printed about one round, and when.
#[derive(Clone, Debug, Default)]
pub struct RoundObs {
    /// Seconds from session start to the `round N complete` line.
    pub complete_at_s: f64,
    /// Chunks the round realized.
    pub chunks: u64,
    /// Length of the `dropped:` list.
    pub dropped: u64,
    /// The `traffic:` byte count.
    pub wire_bytes: u64,
    /// The `reactor:` line: polls, events, timer fires.
    pub reactor: [u64; 3],
    /// `demo verification: OK` was printed.
    pub verified: bool,
}

/// One session, observed from outside.
#[derive(Clone, Debug, Default)]
pub struct SessionObs {
    /// Per-round observations, in order.
    pub rounds: Vec<RoundObs>,
    /// Session start (first spawn) to `serve` reaped.
    pub wall_s: f64,
    /// `VmHWM` of `serve`, read at the last round line that still found
    /// the process.
    pub peak_rss_kib: u64,
    /// User + system time of every `join`, reaped before `serve`.
    pub client_cpu_s: f64,
    /// User + system time of `serve`.
    pub coordinator_cpu_s: f64,
}

/// The scripted failure of dropper number `k`: even ones vanish before
/// unmasking (`U3 \ U5`, which forces the ExcessiveNoiseRemoval stage),
/// odd ones stop after one masked chunk frame (never reach U3; needs a
/// round large enough for the planner to realize two chunks).
fn drop_flags(k: u32) -> [&'static str; 2] {
    if k.is_multiple_of(2) {
        ["--drop-at", "unmasking"]
    } else {
        ["--drop-after-chunks", "1"]
    }
}

/// Ids of the clients that fail every round: spread evenly round the
/// roster from a seed-chosen offset, so every masking neighbourhood
/// keeps far more live holders than the threshold.
#[must_use]
pub fn dropper_ids(w: &TcpWorkload, seed: u64) -> Vec<u32> {
    (0..w.droppers)
        .map(|k| ((seed % u64::from(w.clients)) as u32 + k * (w.clients / w.droppers)) % w.clients)
        .collect()
}

fn join_command(bin: &Path, addr: &str, id: u32, seed: u64) -> Command {
    let mut cmd = Command::new(bin);
    cmd.arg("join")
        .args(["--connect", addr])
        .args(["--id", &id.to_string()])
        .args(["--seed", &seed.to_string()])
        .args(["--timeout-ms", "120000"])
        .stdout(Stdio::null());
    cmd
}

/// First unsigned integer in `text`.
fn first_number(text: &str) -> Option<u64> {
    let digits: String = text
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs one session of `rounds` rounds and observes it.
///
/// # Errors
///
/// A spawn failed, a process exited uncleanly, `serve` printed something
/// unparseable or stopped early, or the session outlived `deadline`.
/// Every child is killed and reaped before the error returns.
pub fn run_session(
    bin: &Path,
    w: &TcpWorkload,
    seed: u64,
    rounds: u64,
    deadline: Instant,
) -> Res<SessionObs> {
    let cpu_before = cpu_times()?;
    let started = Instant::now();
    let mut fleet = Fleet::default();

    let mut serve = Command::new(bin);
    serve
        .arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(["--clients", &w.clients.to_string()])
        .args(["--threshold", &w.threshold.to_string()])
        .args(["--rounds", &rounds.to_string()])
        .args(["--dim", &w.dim.to_string()])
        .args(["--bits", &w.bits.to_string()])
        .args(["--noise-components", &w.noise_components.to_string()])
        .arg("--verify-demo")
        .args(["--stage-timeout-ms", "60000"])
        .args(["--join-timeout-ms", "60000"])
        .stdout(Stdio::piped());
    let serve_idx = fleet.spawn("serve".into(), &mut serve)?;
    let serve_pid = fleet.child(serve_idx).id();
    let stdout = fleet
        .child(serve_idx)
        .stdout
        .take()
        .expect("serve stdout is piped");

    // The one helper thread: stamps each stdout line as it arrives.
    let (tx, rx) = mpsc::channel::<(Instant, String)>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });

    let droppers = dropper_ids(w, seed);
    // (dropper number, fleet index, round it fails in) still running.
    let mut failing: Vec<(u32, usize, u64)> = Vec::new();
    let mut obs = SessionObs::default();
    let mut reactor = [0u64; 3];
    let mut addr: Option<String> = None;
    let mut ended = false;

    let outcome = (|| -> Res<()> {
        loop {
            // Droppers exit mid-round; poll for that only while some
            // are due, otherwise sleep until the next line.
            let wait = if failing.is_empty() {
                deadline.saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(2)
            };
            match rx.recv_timeout(wait) {
                Ok((at, line)) => {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        let a = rest.trim().to_string();
                        for id in 0..w.clients {
                            let mut cmd = join_command(bin, &a, id, seed);
                            let k = droppers.iter().position(|&d| d == id);
                            if let Some(k) = k {
                                cmd.args(["--fail-round", "1"]).args(drop_flags(k as u32));
                            }
                            let idx = fleet.spawn(format!("join {id}"), &mut cmd)?;
                            if let Some(k) = k {
                                failing.push((k as u32, idx, 1));
                            }
                        }
                        addr = Some(a);
                    } else if line.starts_with("reactor:") {
                        let mut nums = line.split(',').map(first_number);
                        for slot in &mut reactor {
                            *slot = nums
                                .next()
                                .flatten()
                                .ok_or_else(|| format!("unparseable line: {line}"))?;
                        }
                    } else if line.starts_with("round ") && line.contains(" complete") {
                        let mut nums = line.split("complete").map(first_number);
                        let n = nums.next().flatten();
                        if n != Some(obs.rounds.len() as u64 + 1) {
                            return Err(format!("unexpected round line: {line}"));
                        }
                        if let Some(kib) = peak_rss_kib(serve_pid) {
                            obs.peak_rss_kib = kib;
                        }
                        obs.rounds.push(RoundObs {
                            complete_at_s: at.duration_since(started).as_secs_f64(),
                            chunks: nums.next().flatten().unwrap_or(0),
                            reactor,
                            ..RoundObs::default()
                        });
                    } else if let Some(round) = obs.rounds.last_mut() {
                        if let Some(list) = line.strip_prefix("dropped:") {
                            round.dropped = list.split(',').filter_map(first_number).count() as u64;
                        } else if line.starts_with("traffic:") {
                            round.wire_bytes = first_number(&line)
                                .ok_or_else(|| format!("unparseable line: {line}"))?;
                        } else if line.starts_with("demo verification: OK") {
                            round.verified = true;
                        } else if line.starts_with("session complete") {
                            ended = true;
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // stdout closed: serve is exiting.
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "session outlived its deadline after {} round(s)",
                    obs.rounds.len()
                ));
            }
            // A dropper that has failed as scripted re-joins at once,
            // as a fresh process, to fail again in the next round.
            let mut still = Vec::new();
            for (k, idx, round) in std::mem::take(&mut failing) {
                if !fleet.exited(idx)? {
                    still.push((k, idx, round));
                } else if round < rounds {
                    let id = droppers[k as usize];
                    let a = addr
                        .as_deref()
                        .expect("droppers are spawned after the address");
                    let mut cmd = join_command(bin, a, id, seed);
                    cmd.args(["--fail-round", &(round + 1).to_string()])
                        .args(drop_flags(k));
                    let idx = fleet.spawn(format!("join {id} (re-join)"), &mut cmd)?;
                    still.push((k, idx, round + 1));
                }
            }
            failing = still;
        }
    })();
    // On error, dropping the fleet kills `serve`, which ends the reader.
    if let Err(e) = outcome {
        drop(fleet);
        let _ = reader.join();
        return Err(e);
    }
    reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    if !ended || obs.rounds.len() as u64 != rounds {
        return Err(format!(
            "serve stopped after {} of {rounds} round(s)",
            obs.rounds.len()
        ));
    }

    // Reap the clients first, then the coordinator, so the two deltas
    // of the reaped-children counter separate their CPU time.
    fleet.reap(|idx| idx != serve_idx, deadline)?;
    let cpu_clients = cpu_times()?;
    fleet.reap(|idx| idx == serve_idx, deadline)?;
    let cpu_all = cpu_times()?;
    obs.wall_s = started.elapsed().as_secs_f64();
    obs.client_cpu_s = cpu_clients.reaped_children - cpu_before.reaped_children;
    obs.coordinator_cpu_s = cpu_all.reaped_children - cpu_clients.reaped_children;
    Ok(obs)
}
