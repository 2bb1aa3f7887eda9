//! The four named workloads and the metric names the benchmark emits.
//!
//! Every size below is a fixed constant, the same on every commit; only
//! `--seed` varies between runs. Why each workload exists is recorded in
//! `BENCHMARK.json` and the README.

/// A `dordis serve` + N × `dordis join` workload over 127.0.0.1.
#[derive(Clone, Copy, Debug)]
pub struct TcpWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Cohort size (an input dimension, like batch size).
    pub clients: u32,
    /// Update vector length.
    pub dim: usize,
    /// Ring bit width.
    pub bits: u32,
    /// SecAgg threshold.
    pub threshold: usize,
    /// XNoise components `T` (0 = no XNoise bookkeeping).
    pub noise_components: usize,
    /// Clients that fail in every round and re-join the next one.
    pub droppers: u32,
    /// Timed rounds per session (round 1 is warm-up and belongs to
    /// set-up, so a session runs one more).
    pub timed_rounds: u64,
    /// Rounds the traced stepper replays.
    pub stepper_rounds: u64,
}

/// The in-process `train_session_networked` workload.
#[derive(Clone, Copy, Debug)]
pub struct FlWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Client population.
    pub population: usize,
    /// Clients sampled per round.
    pub sampled: usize,
    /// VRF over-selection factor.
    pub over_selection: f64,
    /// MLP hidden width.
    pub hidden: usize,
    /// Scripted mid-stream droppers per round.
    pub droppers: usize,
    /// Rounds per session.
    pub rounds: u32,
    /// Rounds the traced stepper replays (and the traced session runs).
    pub stepper_rounds: u32,
}

/// A workload of either kind.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// Black-box processes over TCP.
    Tcp(TcpWorkload),
    /// In-process FL session.
    Fl(FlWorkload),
}

impl Workload {
    /// The workload's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Tcp(w) => w.name,
            Workload::Fl(w) => w.name,
        }
    }
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    // Many clients, tiny vector: X25519 / Shamir / AEAD and the
    // 256-connection join and reactor work dominate; PRG and bytes are
    // negligible.
    Workload::Tcp(TcpWorkload {
        name: "tcp_cohort256",
        clients: 256,
        dim: 1024,
        bits: 20,
        threshold: 11,
        noise_components: 0,
        droppers: 0,
        timed_rounds: 5,
        stepper_rounds: 3,
    }),
    // Few clients, 2.6 MB per client per round: PRG mask expansion,
    // codec, chunk pipeline, TCP bulk and frame custody dominate; key
    // agreement is negligible.
    Workload::Tcp(TcpWorkload {
        name: "tcp_vector1m",
        clients: 16,
        dim: 1 << 20,
        bits: 20,
        threshold: 9,
        noise_components: 0,
        droppers: 0,
        timed_rounds: 3,
        stepper_rounds: 2,
    }),
    // ROADMAP's reference shape (TCP, XNoise seeds, ~10 % dropout) at a
    // size two cores can repeat: the session join path every round,
    // Shamir reconstruction and mask re-expansion for dropped clients,
    // the ExcessiveNoiseRemoval stage, reactor disconnect events.
    Workload::Tcp(TcpWorkload {
        name: "tcp_churn64",
        clients: 64,
        dim: 65536,
        bits: 20,
        threshold: 9,
        noise_components: 8,
        droppers: 6,
        timed_rounds: 5,
        stepper_rounds: 3,
    }),
    // The only workload where dp, xnoise, fl, VRF sampling and the
    // privacy ledger do most of the work.
    Workload::Fl(FlWorkload {
        name: "fl_xnoise32",
        population: 96,
        sampled: 32,
        over_selection: 1.3,
        hidden: 64,
        droppers: 3,
        rounds: 3,
        stepper_rounds: 2,
    }),
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name() == name)
}

/// One end-to-end metric, as declared in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports. Failed rounds are not
/// in this list because they must stay at zero: they travel as the
/// result's `attempted` / `failed` counts and fail the run outright.
///
/// Each bound is three times the widest run-to-run spread (interquartile
/// range over median, ten seeds) seen on the 2-core host this was
/// written on — 7.5 % for the timings, 3.6 % for peak RSS — where whole
/// runs drift together by a few percent whatever their length.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "round_wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "agg_elems_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "coordinator_peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.12,
    },
    EndToEnd {
        name: "wire_bytes_per_round",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Per-layer span metrics: `(metric, span name)`; values are seconds per
/// round, summed over clients.
pub const SPAN_METRICS: [(&str, &str); 29] = [
    ("secagg.client.new_s", "secagg.client.new"),
    (
        "secagg.client.advertise_keys_s",
        "secagg.client.advertise_keys",
    ),
    ("secagg.client.share_keys_s", "secagg.client.share_keys"),
    ("secagg.client.masked_input_s", "secagg.client.masked_input"),
    ("secagg.client.unmask_s", "secagg.client.unmask"),
    ("secagg.client.noise_shares_s", "secagg.client.noise_shares"),
    (
        "secagg.server.collect_advertisements_s",
        "secagg.server.collect_advertisements",
    ),
    ("secagg.server.route_shares_s", "secagg.server.route_shares"),
    (
        "secagg.server.collect_masked_chunk_s",
        "secagg.server.collect_masked_chunk",
    ),
    (
        "secagg.server.finalize_masked_s",
        "secagg.server.finalize_masked",
    ),
    (
        "secagg.server.reconstruct_unmasking_s",
        "secagg.server.reconstruct_unmasking",
    ),
    ("secagg.server.unmask_chunk_s", "secagg.server.unmask_chunk"),
    (
        "secagg.server.collect_noise_shares_s",
        "secagg.server.collect_noise_shares",
    ),
    ("secagg.server.finish_s", "secagg.server.finish"),
    ("net.codec.encode_s", "net.codec.encode"),
    ("net.codec.decode_s", "net.codec.decode"),
    ("pipeline.chunkplan.split_s", "pipeline.chunkplan.split"),
    (
        "pipeline.chunkplan.reassemble_s",
        "pipeline.chunkplan.reassemble",
    ),
    ("fl.local_train_s", "fl.local_train"),
    ("fl.apply_update_s", "fl.apply_update"),
    ("fl.eval_s", "fl.eval"),
    ("dp.encoding.encode_s", "dp.encoding.encode"),
    ("dp.encoding.decode_s", "dp.encoding.decode"),
    ("xnoise.perturb_s", "xnoise.perturb"),
    ("xnoise.remove_excess_s", "xnoise.remove_excess"),
    ("dp.planner.plan_s", "dp.planner.plan"),
    ("dp.ledger.record_s", "dp.ledger.record"),
    ("core.sampling.self_select_s", "core.sampling.self_select"),
    ("core.sampling.seat_claims_s", "core.sampling.seat_claims"),
];

/// Per-layer counters taken in the stepper: `(metric, unit)`.
pub const COUNT_METRICS: [(&str, &str); 3] = [
    ("net.codec.bytes", "bytes"),
    ("pipeline.planner.chunks", "count"),
    ("xnoise.components_removed", "count"),
];

/// Unit costs, timed on direct calls at the workload's sizes.
pub const UNIT_METRICS: [(&str, &str); 13] = [
    ("crypto.x25519.keygen_us", "us"),
    ("crypto.x25519.agree_us", "us"),
    ("crypto.shamir.share_us", "us"),
    ("crypto.shamir.reconstruct_us", "us"),
    ("crypto.aead.seal_us", "us"),
    ("crypto.aead.open_us", "us"),
    ("crypto.prg.fill_ns_per_elem", "ns"),
    ("secagg.mask.expand_and_add_ns_per_elem", "ns"),
    ("crypto.vrf.evaluate_us", "us"),
    ("crypto.vrf.verify_us", "us"),
    ("dp.mechanism.skellam_ns_per_sample", "ns"),
    ("net.tcp.frame_roundtrip_us", "us"),
    ("net.tcp.bulk_mib_per_s", "MiB/s"),
];

/// Outside observations of the running processes.
pub const OUTSIDE_METRICS: [(&str, &str); 9] = [
    ("net.runtime.client_cpu_s_per_round", "s"),
    ("net.coordinator.cpu_s_per_round", "s"),
    ("net.session.first_round_s", "s"),
    ("net.reactor.polls_per_round", "count"),
    ("net.reactor.events_per_round", "count"),
    ("net.reactor.timer_fires_per_round", "count"),
    ("net.session.dropped_per_round", "count"),
    ("host.cpu_busy_share", "ratio"),
    ("net.unattributed_cpu_s_per_round", "s"),
];

/// The stepper's own bookkeeping: its wall time per round, and the share
/// of it no named span accounts for.
pub const TRACE_METRICS: [(&str, &str); 2] = [
    ("trace.stepper_wall_s", "s"),
    ("trace.residual_share", "ratio"),
];

/// Every per-layer metric the traced run prints, in output order.
#[must_use]
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    let mut names: Vec<_> = SPAN_METRICS.iter().map(|(m, _)| (*m, "s")).collect();
    names.extend(COUNT_METRICS);
    names.extend(TRACE_METRICS);
    names.extend(UNIT_METRICS);
    names.extend(OUTSIDE_METRICS);
    names
}

/// Upper bound the stepper's unattributed share of its own wall time
/// must stay under.
pub const MAX_RESIDUAL_SHARE: f64 = 0.05;
