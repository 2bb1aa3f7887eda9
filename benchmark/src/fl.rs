//! The `fl_xnoise32` workload: `train_session_networked` in this
//! process (loopback connections, VRF claims seating, the global model
//! in each Setup payload, scripted mid-stream droppers), and the
//! correctness gate that checks what it released.

use std::time::Instant;

use dordis_core::config::{ModelSpec, TaskSpec};
use dordis_core::sampling::SamplingConfig;
use dordis_core::session::{
    planned_cohorts, train_session_networked, FlSessionOptions, FlSessionReport, MidStreamDrop,
};
use dordis_secagg::ClientId;

use crate::flstep::FlReplay;
use crate::trace::Recorder;
use crate::workloads::FlWorkload;
use crate::Res;

/// The generated inputs of one session: everything comes from the seed.
pub struct FlInputs {
    /// The task.
    pub spec: TaskSpec,
    /// Session options, with the dropper script filled in.
    pub opts: FlSessionOptions,
    /// The cohort each round will seat.
    pub cohorts: Vec<Vec<ClientId>>,
}

/// Builds the task, the per-round cohorts and the dropper script from
/// `seed` — the workload's set-up work.
#[must_use]
pub fn inputs(w: &FlWorkload, seed: u64, rounds: u32) -> FlInputs {
    let mut spec = TaskSpec::femnist_like(seed);
    spec.population = w.population;
    spec.sampled_per_round = w.sampled;
    spec.rounds = rounds;
    spec.model = ModelSpec::Mlp { hidden: w.hidden };
    spec.privacy.delta = 1.0 / w.population as f64;
    let mut opts = FlSessionOptions::new(
        rounds,
        SamplingConfig {
            target_sample: w.sampled,
            population: w.population,
            over_selection: w.over_selection,
        },
    );
    let cohorts = planned_cohorts(&spec, &opts);
    // Each round, `droppers` seated clients spread round the cohort send
    // one masked chunk frame and disconnect, then re-join the next round.
    for (i, cohort) in cohorts.iter().enumerate() {
        for k in 0..w.droppers.min(cohort.len()) {
            let at = (seed as usize + i + k * (cohort.len() / w.droppers)) % cohort.len();
            opts.droppers.push(MidStreamDrop {
                round: i as u32,
                client: cohort[at],
                after_chunks: 1,
            });
        }
    }
    FlInputs {
        spec,
        opts,
        cohorts,
    }
}

/// One session, as measured.
pub struct FlSessionObs {
    /// The generated inputs.
    pub inputs: FlInputs,
    /// Workload start to entry into `train_session_networked`.
    pub setup_s: f64,
    /// Wall time of `train_session_networked`.
    pub session_s: f64,
    /// This process's CPU time over the session, all threads.
    pub cpu_s: f64,
    /// `VmHWM` of this process when the session returned, in KiB.
    pub peak_rss_kib: u64,
    /// What the session reported.
    pub report: FlSessionReport,
}

impl FlSessionObs {
    /// Σ over rounds of |survivors| · padded dimension.
    #[must_use]
    pub fn survivor_elems(&self) -> u64 {
        self.report
            .rounds
            .iter()
            .map(|r| (r.survivors.len() * r.sum.len()) as u64)
            .sum()
    }
}

/// Generates the inputs and runs one session.
///
/// # Errors
///
/// The session failed.
pub fn run_session(w: &FlWorkload, seed: u64, rounds: u32) -> Res<FlSessionObs> {
    let t0 = Instant::now();
    let inputs = inputs(w, seed, rounds);
    let setup_s = t0.elapsed().as_secs_f64();
    let cpu0 = crate::proc::cpu_times()?.own;
    let t1 = Instant::now();
    let report = train_session_networked(&inputs.spec, &inputs.opts).map_err(|e| e.to_string())?;
    let session_s = t1.elapsed().as_secs_f64();
    Ok(FlSessionObs {
        inputs,
        setup_s,
        session_s,
        cpu_s: crate::proc::cpu_times()?.own - cpu0,
        peak_rss_kib: crate::proc::peak_rss_kib(0).unwrap_or(0),
        report,
    })
}

/// What the gate found in one session.
pub struct FlVerdict {
    /// Rounds that missed a check.
    pub failed_rounds: u64,
    /// One line per miss.
    pub findings: Vec<String>,
    /// Bytes the replayed rounds' SecAgg stages put on the wire, counted
    /// as the coordinator's `traffic:` line counts them (0 when no
    /// round was replayed).
    pub replayed_traffic: u64,
    /// Variance of one XNoise component draw in this session's plan.
    pub component_variance: f64,
    /// The replay recorder, for callers that trace.
    pub recorder: Recorder,
}

/// Checks a session's report. Every round must have seated the planned
/// cohort, lost exactly the scripted droppers, and released noise at
/// exactly the planned multiplier z* (XNoise's "enforced precisely"
/// claim); the ledger must stay inside ε_G. The last `replay_rounds`
/// rounds are then replayed single-threaded from the layers' public
/// functions — starting from the global model the earlier released
/// aggregates imply — and must come out bit-equal.
///
/// # Errors
///
/// The replay itself failed to run.
pub fn check(obs: &FlSessionObs, replay_rounds: u32) -> Res<FlVerdict> {
    let FlInputs {
        spec,
        opts,
        cohorts,
    } = &obs.inputs;
    let mut rec = Recorder::new();
    let mut replay = FlReplay::new(spec, opts, &mut rec)?;
    let report = &obs.report;
    let mut bad = vec![false; opts.rounds as usize];
    let mut findings = Vec::new();
    let mut miss = |i: usize, what: String| {
        bad[i] = true;
        findings.push(format!("round {i}: {what}"));
    };

    if report.rounds.len() != opts.rounds as usize
        || report.training.records.len() != opts.rounds as usize
    {
        return Err(format!(
            "session reported {} of {} round(s)",
            report.rounds.len(),
            opts.rounds
        ));
    }
    for (i, round) in report.rounds.iter().enumerate() {
        if round.cohort != cohorts[i] {
            miss(
                i,
                "seated cohort differs from the planned VRF cohort".into(),
            );
        }
        let mut scripted: Vec<ClientId> = opts
            .droppers
            .iter()
            .filter(|d| d.round as usize == i)
            .map(|d| d.client)
            .collect();
        scripted.sort_unstable();
        let mut dropped = round.dropped.clone();
        dropped.sort_unstable();
        if dropped != scripted {
            miss(i, format!("dropped {dropped:?}, scripted {scripted:?}"));
        }
        let achieved = report.training.records[i].achieved_multiplier;
        if achieved != replay.z_star {
            miss(
                i,
                format!(
                    "achieved noise multiplier {achieved} is not the planned {}",
                    replay.z_star
                ),
            );
        }
    }
    if report.training.epsilon_consumed > spec.privacy.epsilon {
        miss(
            opts.rounds as usize - 1,
            format!(
                "epsilon {} exceeds the budget {}",
                report.training.epsilon_consumed, spec.privacy.epsilon
            ),
        );
    }

    let first_replayed = opts.rounds - replay_rounds.min(opts.rounds);
    for (i, round) in report.rounds.iter().enumerate() {
        if (i as u32) < first_replayed {
            replay.absorb(i as u32, &round.sum, round.survivors.len(), &mut rec);
            continue;
        }
        let got = replay.round(i as u32, &mut rec)?;
        if got.cohort != round.cohort || got.survivors != round.survivors {
            miss(i, "replay seated or kept different clients".into());
        } else if got.sum != round.sum {
            miss(i, "aggregate is not bit-equal to the replay".into());
        }
    }
    if replay_rounds >= opts.rounds {
        let (accuracy, _) = replay.evaluate(&mut rec);
        if accuracy != report.training.final_accuracy {
            miss(
                opts.rounds as usize - 1,
                format!(
                    "final accuracy {} differs from the replay's {accuracy}",
                    report.training.final_accuracy
                ),
            );
        }
    }
    Ok(FlVerdict {
        failed_rounds: bad.iter().filter(|b| **b).count() as u64,
        findings,
        replayed_traffic: rec.counter("traffic"),
        component_variance: replay.xnoise_plan(cohorts[0].len())?.component_variance(1),
        recorder: rec,
    })
}
