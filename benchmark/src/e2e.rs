//! The untraced run: repeats sessions of a workload for the requested
//! number of seconds and reduces them to the end-to-end metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::fl::{self, FlSessionObs};
use crate::stats::median;
use crate::tcp::{run_session, SessionObs};
use crate::workloads::{FlWorkload, TcpWorkload};

/// No single session may take longer than this.
pub const SESSION_DEADLINE: Duration = Duration::from_secs(150);

/// One run's result, in the shape the driver reads.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that errored, timed out or failed verification.
    pub failed: u64,
    /// Human-readable findings, for stderr.
    pub notes: Vec<String>,
}

impl RunResult {
    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Whether another session still fits: one is started while the time
/// used plus half the last session's length is inside the budget, so a
/// run overshoots `seconds` by half a session at most.
fn fits(started: Instant, last_session: Duration, seconds: u64) -> bool {
    started.elapsed() + last_session / 2 < Duration::from_secs(seconds)
}

/// Rounds of one session that failed verification or are missing.
fn failed_rounds(obs: &SessionObs, rounds: u64) -> u64 {
    let ok = obs.rounds.iter().filter(|r| r.verified).count() as u64;
    rounds - ok.min(rounds)
}

/// Runs sessions of `w` for about `seconds` seconds.
#[must_use]
pub fn run_tcp(bin: &Path, w: &TcpWorkload, seed: u64, seconds: u64) -> RunResult {
    let rounds = w.timed_rounds + 1;
    let started = Instant::now();
    let mut out = RunResult::default();
    let mut sessions: Vec<SessionObs> = Vec::new();
    loop {
        let t0 = Instant::now();
        // Each session gets its own seed so no two repeat inputs.
        let session_seed = seed.wrapping_add(sessions.len() as u64);
        out.attempted += rounds;
        match run_session(bin, w, session_seed, rounds, t0 + SESSION_DEADLINE) {
            Ok(obs) => {
                out.failed += failed_rounds(&obs, rounds);
                sessions.push(obs);
            }
            Err(e) => {
                out.failed += rounds;
                out.notes.push(format!("session failed: {e}"));
                break;
            }
        }
        if !fits(started, t0.elapsed(), seconds) {
            break;
        }
    }
    if sessions.is_empty() {
        return out;
    }

    // Round 1 is warm-up (spawn, bind, connect, join, cold round) and
    // is the set-up sample; rounds 2..R are timed by the gap between
    // consecutive `round N complete` lines.
    let mut gaps = Vec::new();
    let mut window_s = 0.0;
    let mut elems = 0.0;
    let mut bytes = Vec::new();
    for s in &sessions {
        for pair in s.rounds.windows(2) {
            gaps.push(pair[1].complete_at_s - pair[0].complete_at_s);
            elems += (u64::from(w.clients) - pair[1].dropped) as f64 * w.dim as f64;
            bytes.push(pair[1].wire_bytes as f64);
        }
        window_s += s.rounds[s.rounds.len() - 1].complete_at_s - s.rounds[0].complete_at_s;
    }
    let setups: Vec<f64> = sessions.iter().map(|s| s.rounds[0].complete_at_s).collect();
    let rss: Vec<f64> = sessions
        .iter()
        .map(|s| s.peak_rss_kib as f64 / 1024.0)
        .collect();
    if bytes.iter().any(|b| *b != bytes[0]) {
        out.notes
            .push("wire bytes differ between timed rounds".into());
    }
    out.notes.push(format!(
        "{} session(s), {} timed round(s) over 127.0.0.1",
        sessions.len(),
        gaps.len()
    ));
    out.metrics = vec![
        ("round_wall_s", median(&gaps), "s"),
        ("agg_elems_per_s", elems / window_s, "1/s"),
        ("coordinator_peak_rss_mib", median(&rss), "MiB"),
        ("wire_bytes_per_round", median(&bytes), "bytes"),
        ("setup_s", median(&setups), "s"),
    ];
    out
}

/// Runs FL sessions of `w` for about `seconds` seconds.
#[must_use]
pub fn run_fl(w: &FlWorkload, seed: u64, seconds: u64) -> RunResult {
    let started = Instant::now();
    let mut out = RunResult::default();
    let mut sessions: Vec<FlSessionObs> = Vec::new();
    let mut wire_bytes = 0.0;
    loop {
        let t0 = Instant::now();
        let session_seed = seed.wrapping_add(sessions.len() as u64);
        out.attempted += u64::from(w.rounds);
        let session = fl::run_session(w, session_seed, w.rounds);
        let last = !fits(started, t0.elapsed(), seconds);
        // The cheap checks gate every session; the single-threaded
        // replay of a round costs about two rounds of wall time, so
        // only the last session pays for it.
        match session.and_then(|obs| Ok((fl::check(&obs, u32::from(last))?, obs))) {
            Ok((verdict, obs)) => {
                out.failed += verdict.failed_rounds;
                out.notes.extend(verdict.findings);
                wire_bytes = verdict.replayed_traffic as f64;
                sessions.push(obs);
            }
            Err(e) => {
                out.failed += u64::from(w.rounds);
                out.notes.push(format!("session failed: {e}"));
                break;
            }
        }
        if last {
            break;
        }
    }
    let Some(last) = sessions.last() else {
        return out;
    };

    // One sample per session: its wall time over its rounds.
    let per_round: Vec<f64> = sessions
        .iter()
        .map(|s| s.session_s / f64::from(w.rounds))
        .collect();
    let elems: f64 = sessions.iter().map(|s| s.survivor_elems() as f64).sum();
    let wall: f64 = sessions.iter().map(|s| s.session_s).sum();
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    out.notes.push(format!(
        "{} session(s) of {} round(s), in-process loopback; final accuracy {:.4}",
        sessions.len(),
        w.rounds,
        last.report.training.final_accuracy
    ));
    out.metrics = vec![
        ("round_wall_s", median(&per_round), "s"),
        ("agg_elems_per_s", elems / wall, "1/s"),
        // The coordinator shares this process with the clients; the
        // peak is read after the first session, before any check ran.
        (
            "coordinator_peak_rss_mib",
            sessions[0].peak_rss_kib as f64 / 1024.0,
            "MiB",
        ),
        // The session report exposes no byte count: this is what the
        // replayed round's SecAgg stages put through the same codec.
        ("wire_bytes_per_round", wire_bytes, "bytes"),
        ("setup_s", median(&setups), "s"),
    ];
    out
}
