//! The traced run: per-layer numbers for one workload.
//!
//! Three sources, all outside the program: the single-threaded stepper
//! (one span per call into a layer), unit costs on direct calls, and
//! observations of the running processes (`/proc` CPU, the `reactor:`
//! lines). End-to-end metrics come from the untraced run only.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dordis_pipeline::{planned_chunk_count, ChunkPlan};
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::round_rng_seed;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

use crate::e2e::{RunResult, SESSION_DEADLINE};
use crate::proc::{host_cores, repo_root};
use crate::stepper::{step_round, RoundScript};
use crate::tcp::{dropper_ids, run_session};
use crate::trace::{Recorder, ROOT};
use crate::units::{self, UnitSizes};
use crate::workloads::{
    FlWorkload, TcpWorkload, COUNT_METRICS, MAX_RESIDUAL_SHARE, OUTSIDE_METRICS, SPAN_METRICS,
    TRACE_METRICS, UNIT_METRICS,
};
use crate::{fl, Res};

/// Elements per PRG / mask / Skellam unit-cost call: the workload's
/// vector, capped so 200 calls stay well under a second.
const UNIT_ELEMS_MAX: usize = 1 << 16;

/// Envelope header plus sender id in front of a masked chunk's payload.
const CHUNK_FRAME_OVERHEAD: usize = 12 + 4;

/// The update the `serve`/`join` demo derives from a client id alone.
fn demo_update(id: ClientId, dim: usize, bits: u32) -> Vec<u64> {
    let mask = (1u64 << bits) - 1;
    (0..dim)
        .map(|i| (u64::from(id) * 1009 + i as u64 * 31 + 7) & mask)
        .collect()
}

/// The XNoise seeds `join --seed` derives for a client.
fn demo_noise_seeds(seed: u64, id: ClientId, components: usize) -> Vec<[u8; 32]> {
    if components == 0 {
        return Vec::new();
    }
    (0..=components)
        .map(|k| {
            let mut s = [0u8; 32];
            s[..8].copy_from_slice(&seed.to_le_bytes());
            s[8..12].copy_from_slice(&id.to_le_bytes());
            s[12] = k as u8;
            s[31] = 0xd3;
            s
        })
        .collect()
}

/// Replays `w.stepper_rounds` rounds of a TCP workload in the stepper,
/// each checked against the survivors' demo updates.
fn step_tcp_rounds(w: &TcpWorkload, seed: u64, rec: &mut Recorder) -> Res<()> {
    let n = w.clients as usize;
    let droppers = dropper_ids(w, seed);
    for round in 1..=w.stepper_rounds {
        let script = RoundScript {
            params: RoundParams {
                round,
                clients: (0..w.clients).collect(),
                threshold: w.threshold,
                bit_width: w.bits,
                vector_len: w.dim,
                noise_components: w.noise_components,
                threat_model: ThreatModel::SemiHonest,
                graph: MaskingGraph::recommended(n),
            },
            requested_chunks: planned_chunk_count(w.dim, n, w.bits),
            rng_seed: round_rng_seed(seed, round),
            setup_payload: Vec::new(),
            // Same alternation as the `join` flags in `tcp.rs`.
            before_unmasking: droppers.iter().step_by(2).copied().collect(),
            mid_stream: droppers
                .iter()
                .skip(1)
                .step_by(2)
                .map(|&id| (id, 1))
                .collect(),
        };
        rec.set_round(round);
        let outcome = rec.span(ROOT, |rec| {
            step_round(
                &script,
                |id, _, _| {
                    Ok(ClientInput {
                        vector: demo_update(id, w.dim, w.bits),
                        noise_seeds: demo_noise_seeds(seed, id, w.noise_components),
                    })
                },
                rec,
            )
        })?;
        let mask = (1u64 << w.bits) - 1;
        let mut expected = vec![0u64; w.dim];
        for &id in &outcome.survivors {
            for (e, v) in expected.iter_mut().zip(demo_update(id, w.dim, w.bits)) {
                *e = (*e + v) & mask;
            }
        }
        if outcome.sum != expected {
            return Err(format!(
                "stepper round {round}: aggregate is not the survivors' sum"
            ));
        }
        if outcome.dropped.len() != droppers.len() / 2 {
            return Err(format!(
                "stepper round {round}: dropped {:?}",
                outcome.dropped
            ));
        }
    }
    Ok(())
}

/// Reduces a recorder to the span and counter metrics, per round, and
/// the stepper's own residual.
fn layer_metrics(rec: &Recorder, rounds: f64) -> Vec<(&'static str, f64, &'static str)> {
    let own = rec.self_seconds();
    let wall = rec.root_wall_seconds();
    let seconds = |span: &str| own.get(span).copied().unwrap_or(0.0);
    let mut out: Vec<_> = SPAN_METRICS
        .iter()
        .map(|&(metric, span)| (metric, seconds(span) / rounds, "s"))
        .collect();
    out.extend(
        COUNT_METRICS
            .iter()
            .map(|&(metric, unit)| (metric, rec.counter(metric) as f64 / rounds, unit)),
    );
    let own_bookkeeping = [wall / rounds, seconds(ROOT) / wall];
    out.extend(
        TRACE_METRICS
            .iter()
            .zip(own_bookkeeping)
            .map(|(&(metric, unit), value)| (metric, value, unit)),
    );
    out
}

/// Seconds per round the named spans account for.
fn attributed_seconds(metrics: &[(&'static str, f64, &'static str)]) -> f64 {
    metrics[..SPAN_METRICS.len()]
        .iter()
        .map(|(_, v, _)| v)
        .sum()
}

/// Writes the spans to `benchmark/out/<workload>.trace.json`.
fn write_trace(workload: &str, rec: &Recorder) -> Res<()> {
    let dir = repo_root().join("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    let text = serde_json::to_string(&rec.to_json()).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends unit costs and checks the residual; shared tail of both kinds.
fn finish(
    workload: &str,
    rec: &Recorder,
    sizes: &UnitSizes,
    seed: u64,
    outside: BTreeMap<&'static str, f64>,
    out: &mut RunResult,
) {
    let residual = out.metric("trace.residual_share").unwrap_or(1.0);
    if residual >= MAX_RESIDUAL_SHARE {
        out.failed += 1;
        out.notes.push(format!(
            "stepper leaves {residual:.3} of its wall time unattributed"
        ));
    }
    match units::measure(sizes, seed) {
        Ok(costs) => {
            out.metrics.extend(
                costs
                    .into_iter()
                    .zip(UNIT_METRICS)
                    .map(|((name, value), (_, unit))| (name, value, unit)),
            );
        }
        Err(e) => {
            out.failed += 1;
            out.notes.push(format!("unit costs failed: {e}"));
        }
    }
    out.metrics.extend(
        OUTSIDE_METRICS
            .iter()
            .map(|&(name, unit)| (name, outside.get(name).copied().unwrap_or(0.0), unit)),
    );
    if let Err(e) = write_trace(workload, rec) {
        out.failed += 1;
        out.notes.push(format!("trace file: {e}"));
    }
}

/// The traced run of a TCP workload: the stepper, one observed session,
/// the unit costs.
#[must_use]
pub fn run_tcp(bin: &Path, w: &TcpWorkload, seed: u64) -> RunResult {
    let mut out = RunResult::default();
    let rounds = w.timed_rounds + 1;
    out.attempted = rounds + w.stepper_rounds;

    let mut rec = Recorder::new();
    if let Err(e) = step_tcp_rounds(w, seed, &mut rec) {
        out.failed += w.stepper_rounds;
        out.notes.push(e);
    }
    out.metrics = layer_metrics(&rec, w.stepper_rounds as f64);

    let mut outside = BTreeMap::new();
    match run_session(bin, w, seed, rounds, Instant::now() + SESSION_DEADLINE) {
        Ok(obs) => {
            out.failed += obs.rounds.iter().filter(|r| !r.verified).count() as u64;
            // The replay is only a fair stand-in for the processes if it
            // puts the same bytes on the wire as `serve` counted.
            let stepped = rec.counter("traffic") / w.stepper_rounds;
            let seen = obs.rounds[0].wire_bytes;
            if stepped != seen {
                out.failed += 1;
                out.notes.push(format!(
                    "stepper moves {stepped} bytes a round, serve counted {seen}"
                ));
            }
            let per_round = |total: f64| total / rounds as f64;
            let sum =
                |f: fn(&crate::tcp::RoundObs) -> u64| obs.rounds.iter().map(f).sum::<u64>() as f64;
            let cpu = obs.client_cpu_s + obs.coordinator_cpu_s;
            outside.extend([
                (
                    "net.runtime.client_cpu_s_per_round",
                    per_round(obs.client_cpu_s),
                ),
                (
                    "net.coordinator.cpu_s_per_round",
                    per_round(obs.coordinator_cpu_s),
                ),
                ("net.session.first_round_s", obs.rounds[0].complete_at_s),
                (
                    "net.reactor.polls_per_round",
                    per_round(sum(|r| r.reactor[0])),
                ),
                (
                    "net.reactor.events_per_round",
                    per_round(sum(|r| r.reactor[1])),
                ),
                (
                    "net.reactor.timer_fires_per_round",
                    per_round(sum(|r| r.reactor[2])),
                ),
                (
                    "net.session.dropped_per_round",
                    per_round(sum(|r| r.dropped)),
                ),
                (
                    "host.cpu_busy_share",
                    cpu / (obs.wall_s * host_cores() as f64),
                ),
                // What the processes burn beyond the compute the layers
                // explain: runtime, transport, syscalls, process start-up.
                (
                    "net.unattributed_cpu_s_per_round",
                    per_round(cpu) - attributed_seconds(&out.metrics),
                ),
            ]);
            out.notes.push(format!(
                "observed session: {rounds} round(s) over 127.0.0.1, {} chunk(s) realized",
                obs.rounds[0].chunks
            ));
        }
        Err(e) => {
            out.failed += rounds;
            out.notes.push(format!("observed session failed: {e}"));
        }
    }

    let n = w.clients as usize;
    let graph = MaskingGraph::recommended(n);
    let chunk_len = ChunkPlan::aligned(w.dim, planned_chunk_count(w.dim, n, w.bits), w.bits)
        .map_or(w.dim, |p| p.chunk_len(0));
    let sizes = UnitSizes {
        holders: graph.degree(n) + 1,
        threshold: w.threshold.min(graph.degree(n)),
        noise_components: w.noise_components,
        bits: w.bits,
        elems: w.dim.min(UNIT_ELEMS_MAX),
        chunk_frame_bytes: (chunk_len * w.bits as usize).div_ceil(8) + CHUNK_FRAME_OVERHEAD,
        // No DP layer runs in the demo rounds; a nominal unit variance.
        skellam_variance: 1.0,
    };
    finish(w.name, &rec, &sizes, seed, outside, &mut out);
    out
}

/// The traced run of the FL workload: one short session, replayed
/// whole in the stepper and compared bit for bit.
#[must_use]
pub fn run_fl(w: &FlWorkload, seed: u64) -> RunResult {
    let mut out = RunResult::default();
    let rounds = w.stepper_rounds;
    out.attempted = u64::from(rounds);
    let checked =
        fl::run_session(w, seed, rounds).and_then(|obs| Ok((fl::check(&obs, rounds)?, obs)));
    let (verdict, obs) = match checked {
        Ok(pair) => pair,
        Err(e) => {
            out.failed = out.attempted;
            out.notes.push(format!("session failed: {e}"));
            return out;
        }
    };
    out.failed += verdict.failed_rounds;
    out.notes.extend(verdict.findings);
    out.metrics = layer_metrics(&verdict.recorder, f64::from(rounds));

    // Clients and coordinator are threads of this process: only their
    // joint CPU time is visible from outside, and no reactor counters.
    let per_round = |total: f64| total / f64::from(rounds);
    let dropped: usize = obs.report.rounds.iter().map(|r| r.dropped.len()).sum();
    let outside = BTreeMap::from([
        ("net.runtime.client_cpu_s_per_round", per_round(obs.cpu_s)),
        ("net.session.dropped_per_round", per_round(dropped as f64)),
        (
            "host.cpu_busy_share",
            obs.cpu_s / (obs.session_s * host_cores() as f64),
        ),
        (
            "net.unattributed_cpu_s_per_round",
            per_round(obs.cpu_s) - attributed_seconds(&out.metrics),
        ),
    ]);

    let spec = &obs.inputs.spec;
    let bits = spec.privacy.encoding.bit_width;
    let n = w.sampled;
    let padded = obs.report.rounds[0].sum.len();
    let chunk_len =
        ChunkPlan::aligned(padded, obs.inputs.opts.chunks, bits).map_or(padded, |p| p.chunk_len(0));
    let sizes = UnitSizes {
        holders: n,
        threshold: (n / 2 + 1).min(n - 1),
        noise_components: n / 2,
        bits,
        elems: padded.min(UNIT_ELEMS_MAX),
        chunk_frame_bytes: (chunk_len * bits as usize).div_ceil(8) + CHUNK_FRAME_OVERHEAD,
        skellam_variance: verdict.component_variance,
    };
    finish(w.name, &verdict.recorder, &sizes, seed, outside, &mut out);
    out
}
