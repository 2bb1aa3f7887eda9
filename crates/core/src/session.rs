//! Multi-round federated training: the one FL round loop (local train →
//! clip → encode → perturb → aggregate → excess removal → decode →
//! FedAvg → privacy ledger) and the engines it drives.
//!
//! Three engines, one loop. An engine runs one round's cohort and hands
//! back the raw modular aggregate; the removal, decode, ledger entry,
//! FedAvg step and evaluation run once, in the shared driver, for every
//! engine:
//!
//! - the plain engine behind [`crate::trainer::train`]: the task's
//!   seeded cohort shuffle and dropout model, survivors summed through
//!   `secagg::plain` — the DP-relevant math without the masking crypto,
//!   whose cancellation the protocol tests pin separately;
//! - [`train_session`]: the in-memory reference. Each round's cohort is
//!   sampled by VRF self-selection + [`seat_claims`] verify-and-trim,
//!   and the round itself runs through the in-memory secagg *driver*
//!   ([`run_round`]) with scripted dropouts.
//! - [`train_session_networked`]: the deployed shape. A
//!   [`Session`] coordinator runs R
//!   rounds back to back over persistent TCP connections on 127.0.0.1;
//!   every population member keeps one connection open, answers each round's
//!   announce with a VRF participation claim (or a decline), receives
//!   the current global model in the Setup payload, trains locally, and
//!   streams its masked update. Scripted droppers fail mid-chunk-stream
//!   and *reconnect* to re-join the next round. The driver never plans
//!   the cohort itself: it takes what the coordinator seated from the
//!   claims it verified (the server holds the public VRF registry only,
//!   §7) and derives the noise plan, removal and ledger entry from that.
//!
//! One function, `coordinate`, is that networked coordinator: one
//! `Session` over one acceptor, the driver from an optional
//! [`DriverCheckpoint`], an optional replica link and one
//! [`FaultPlan`]. [`train_session_networked`] calls it once;
//! [`train_session_networked_failover`] calls it for a replicated
//! primary and, after a scripted kill, for the successor that resumes
//! from the backup's last acked checkpoint. It ends the session with
//! `SessionEnd` unless the error is an injected kill.
//!
//! Every engine derives every random artefact (per-round protocol seeds,
//! encoding rotations, noise seeds) from the same `(spec.seed, round)`
//! functions, so the two session engines' per-round modular aggregates
//! are bit-equal and their reports match field for field — the
//! session-level analogue of the single-round equivalence pins.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dordis_crypto::prg::{Prg, Seed};
use dordis_crypto::vrf::{VrfInput, VrfPublicKey, VrfSecretKey};
use dordis_dp::accountant::Mechanism;
use dordis_dp::encoding::Encoder;
use dordis_dp::ledger::PrivacyLedger;
use dordis_dp::planner::{plan, PlannerConfig};
use dordis_fl::data::{dirichlet_partition, synthetic_classification, train_test_split, Dataset};
use dordis_fl::eval::{accuracy, perplexity};
use dordis_fl::fedavg::apply_update;
use dordis_net::faults::{FaultPlan, KillPoint};
use dordis_net::local;
use dordis_net::replication::{run_backup, BackupOutcome};
use dordis_net::runtime::{
    Backoff, FailAction, FailPoint, FailStage, Redial, SessionClientOptions, SessionEndKind,
};
use dordis_net::session::{Session, SessionConfig};
use dordis_net::tcp::{TcpAcceptor, TcpChannel};
use dordis_net::transport::Acceptor as _;
use dordis_net::NetError;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{round_rng_seed, run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{plain, ClientId, RoundParams, ThreatModel};
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{derive_component_seeds, perturb, remove_excess};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::config::{TaskSpec, Variant};
use crate::sampling::{
    decode_claim, encode_claim, round_input, seat_claims, seat_claims_at, self_select,
    self_select_at, SamplingConfig,
};
use crate::trainer::{
    achieved_noise_multiplier, add_share_noise, build_model, build_optimizer, clipped_local_delta,
    master_seed, RoundRecord, TrainingReport,
};
use crate::DordisError;

/// A scripted mid-stream dropout: `client` sends `after_chunks` masked
/// chunk frames in round `round` (0-based index), then disconnects —
/// and, on the networked path, reconnects to re-join the next round.
#[derive(Clone, Copy, Debug)]
pub struct MidStreamDrop {
    /// 0-based session round index the failure fires in.
    pub round: u32,
    /// The failing client (must be in that round's cohort to fire).
    pub client: ClientId,
    /// Chunk frames delivered before the disconnect.
    pub after_chunks: u16,
}

/// Options for a multi-round FL session.
pub struct FlSessionOptions {
    /// Rounds to run.
    pub rounds: u32,
    /// VRF sampling parameters (`population` must equal the task
    /// spec's).
    pub sample: SamplingConfig,
    /// Requested chunk count for the networked data plane.
    pub chunks: usize,
    /// Scripted mid-stream dropouts.
    pub droppers: Vec<MidStreamDrop>,
}

impl FlSessionOptions {
    /// Sensible defaults for in-process sessions.
    #[must_use]
    pub fn new(rounds: u32, sample: SamplingConfig) -> FlSessionOptions {
        FlSessionOptions {
            rounds,
            sample,
            chunks: 4,
            droppers: Vec::new(),
        }
    }
}

/// Join/claim window and per-stage deadline of the in-process networked
/// coordinator: generous, because the whole population shares this
/// process's cores.
const NET_TIMEOUT: Duration = Duration::from_secs(20);

/// One session round's aggregate-level outcome (the bit-equality
/// surface of the equivalence tests).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionRoundOutcome {
    /// 0-based round index.
    pub round: u32,
    /// Round id on the wire (`round + 1`; round ids start at 1, so a
    /// frame stamped 0 is a protocol violation).
    pub wire_round: u64,
    /// The VRF-seated cohort, in seating order.
    pub cohort: Vec<ClientId>,
    /// Survivors whose inputs reached the aggregate (U3).
    pub survivors: Vec<ClientId>,
    /// Cohort members that dropped.
    pub dropped: Vec<ClientId>,
    /// The modular aggregate after excessive-noise removal.
    pub sum: Vec<u64>,
    /// Stale frames the coordinator discarded (networked path only).
    pub stale_frames: u64,
}

/// Result of a session run: the trainer-level report plus per-round
/// aggregates.
#[derive(Debug)]
pub struct FlSessionReport {
    /// The same report shape the in-memory [`crate::trainer::train`]
    /// emits.
    pub training: TrainingReport,
    /// Per-round aggregate outcomes.
    pub rounds: Vec<SessionRoundOutcome>,
    /// The global model's parameters after the last round.
    pub global: Vec<f32>,
}

/// Wire round id for a 0-based session round index.
#[must_use]
pub(crate) fn wire_round(index: u32) -> u64 {
    u64::from(index) + 1
}

/// The 0-based session round index of wire round id `round`: the
/// inverse of [`wire_round`], `None` for round 0 (round ids start at 1)
/// and for an id past the last index.
fn round_index(round: u64) -> Option<u32> {
    round.checked_sub(1).and_then(|i| u32::try_from(i).ok())
}

/// The driver's durable round-boundary state: everything a successor
/// coordinator needs to resume the session exactly where the committed
/// prefix ended. Travels as the opaque `app_state` of a
/// [`SessionCheckpoint`](dordis_net::replication::SessionCheckpoint).
///
/// The ledger inside carries its replay watermark, so a resumed driver
/// that tried to re-record an already-committed round would be rejected
/// — losing or double-counting ledger state is a *privacy* bug, not
/// just a bookkeeping one.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DriverCheckpoint {
    /// 0-based index of the first round the successor must run.
    pub next_round: u32,
    /// Privacy ledger with every committed round recorded.
    pub ledger: PrivacyLedger,
    /// Global model after the last committed round's FedAvg step.
    pub global: Vec<f32>,
    /// Trainer-level records for the committed prefix.
    pub records: Vec<RoundRecord>,
    /// Aggregate-level outcomes for the committed prefix.
    pub rounds: Vec<SessionRoundOutcome>,
}

impl DriverCheckpoint {
    /// Serializes for the replication channel (JSON: float fields
    /// round-trip bit-exactly through the vendored codec).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("driver checkpoint serializes")
            .into_bytes()
    }

    /// Restores a checkpoint shipped by a former primary.
    ///
    /// # Errors
    ///
    /// Malformed UTF-8 or JSON.
    pub fn from_bytes(bytes: &[u8]) -> Result<DriverCheckpoint, DordisError> {
        let text = core::str::from_utf8(bytes)
            .map_err(|_| DordisError::Config("driver checkpoint is not UTF-8".into()))?;
        serde_json::from_str(text)
            .map_err(|e| DordisError::Config(format!("driver checkpoint parse: {e}")))
    }
}

/// Deterministic per-client VRF key (stands in for PKI key
/// registration).
#[must_use]
pub fn vrf_key_for(seed: u64, id: ClientId) -> VrfSecretKey {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&seed.to_le_bytes());
    s[8..12].copy_from_slice(&id.to_le_bytes());
    s[31] = 0x7f;
    VrfSecretKey::from_seed(&s)
}

/// A lookup over the population's public keys, each taken from a key
/// pair derived once.
fn registry_of(keys: &[VrfSecretKey]) -> impl Fn(ClientId) -> Option<VrfPublicKey> {
    let public: Vec<VrfPublicKey> = keys.iter().map(VrfSecretKey::public_key).collect();
    move |id| public.get(id as usize).copied()
}

/// The VRF public-key registry both verifier and tests use. Every key
/// is derived here, once, not on each lookup.
fn vrf_registry(seed: u64, population: u32) -> impl Fn(ClientId) -> Option<VrfPublicKey> {
    let keys: Vec<VrfSecretKey> = (0..population).map(|id| vrf_key_for(seed, id)).collect();
    registry_of(&keys)
}

/// The cohort each round will seat, computed offline (VRF outputs are
/// deterministic) — how tests script per-round droppers.
#[must_use]
pub fn planned_cohorts(spec: &TaskSpec, opts: &FlSessionOptions) -> Vec<Vec<ClientId>> {
    let keys: Vec<VrfSecretKey> = (0..spec.population as u32)
        .map(|id| vrf_key_for(spec.seed, id))
        .collect();
    let registry = registry_of(&keys);
    (0..opts.rounds)
        .map(|i| {
            // One hash of the round's input for every evaluation and
            // every claim check, and one comb of it for every
            // evaluation.
            let input = VrfInput::for_many_evaluations(&round_input(wire_round(i)));
            let claims: Vec<_> = (0u32..)
                .zip(&keys)
                .filter_map(|(id, sk)| self_select_at(sk, id, &input, &opts.sample))
                .collect();
            seat_claims_at(&claims, &registry, &input, &opts.sample).seated
        })
        .collect()
}

// ---------------------------------------------------------------------
// Shared deterministic derivations (every engine).
// ---------------------------------------------------------------------

/// Everything every engine derives identically before the first round.
pub(crate) struct Statics {
    spec: TaskSpec,
    root: Seed,
    /// The planned horizon.
    rounds: u32,
    /// Per-round sampling probability the planner and the ledger use.
    sample_rate: f64,
    z_star: f64,
    target_variance: f64,
    /// Model parameter count (the decode length).
    dim: usize,
    data: Dataset,
    train_set: Dataset,
    test_set: Dataset,
    shards: Vec<Vec<usize>>,
}

/// The mechanism a session plans its noise for and its ledger charges:
/// Skellam at the encoder's ℓ1/ℓ2 ratio for a `dim`-parameter model.
fn mechanism(spec: &TaskSpec, dim: usize) -> Mechanism {
    Mechanism::Skellam {
        l1_per_l2: spec.privacy.encoding.l1_per_l2(dim),
    }
}

/// Derives the statics of a `rounds`-round run that samples clients at
/// `sample_rate` (the non-private baseline plans no noise).
pub(crate) fn statics(
    spec: &TaskSpec,
    rounds: u32,
    sample_rate: f64,
) -> Result<Statics, DordisError> {
    spec.validate().map_err(DordisError::Config)?;
    if rounds == 0 {
        return Err(DordisError::Config(
            "sessions need at least one round".into(),
        ));
    }
    let data = synthetic_classification(&spec.dataset);
    let (train_set, test_set) = train_test_split(&data, spec.test_fraction);
    let shards = dirichlet_partition(&train_set, spec.population, spec.dirichlet_alpha, spec.seed);
    let model = build_model(spec, &data);
    let dim = model.num_params();
    let enc_cfg = &spec.privacy.encoding;
    let z_star = if spec.variant == Variant::NonPrivate {
        0.0
    } else {
        plan(&PlannerConfig {
            epsilon: spec.privacy.epsilon,
            delta: spec.privacy.delta,
            rounds,
            sample_rate,
            mechanism: mechanism(spec, dim),
        })?
        .noise_multiplier
    };
    let sigma = z_star * enc_cfg.l2_sensitivity(dim);
    Ok(Statics {
        spec: spec.clone(),
        root: master_seed(spec),
        rounds,
        sample_rate,
        z_star,
        target_variance: sigma * sigma,
        dim,
        data,
        train_set,
        test_set,
        shards,
    })
}

/// The statics of a session: `opts.rounds` rounds at the VRF target
/// sampling rate.
fn session_statics(spec: &TaskSpec, opts: &FlSessionOptions) -> Result<Statics, DordisError> {
    if opts.sample.population != spec.population {
        return Err(DordisError::Config(format!(
            "sampling population {} disagrees with task population {}",
            opts.sample.population, spec.population
        )));
    }
    let rate = opts.sample.target_sample as f64 / spec.population as f64;
    statics(spec, opts.rounds, rate)
}

/// Per-round encoding rotation seed.
pub(crate) fn rotation_for(root: &Seed, r: u64) -> Seed {
    Prg::fork(root, b"session.rotation", r)
}

/// Per-(round, client) encoding/noise seed.
fn encode_seed_for(root: &Seed, r: u64, id: ClientId) -> Seed {
    Prg::fork(root, b"session.client", (r << 20) ^ u64::from(id))
}

/// The deterministic per-(run, round, client) seed used for noise
/// derivation — shared with every engine of the FL round loop so they
/// can be compared bit for bit.
fn client_round_seed(run_seed: u64, round: u64, client: ClientId) -> Seed {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&run_seed.to_le_bytes());
    s[8..16].copy_from_slice(&round.to_le_bytes());
    s[16..20].copy_from_slice(&client.to_le_bytes());
    s[31] = 0xc5;
    s
}

/// The XNoise dropout tolerance for a cohort of `n` (must agree between
/// the coordinator's `noise_components` and the clients' plans).
fn xnoise_tolerance(variant: Variant, n: usize) -> usize {
    match variant {
        Variant::XNoise { tolerance_frac, .. } => {
            (((n as f64) * tolerance_frac).floor() as usize).min(n.saturating_sub(1))
        }
        _ => 0,
    }
}

/// The SecAgg threshold of a round over a cohort of `n`: a majority,
/// never below 2. A cohort of one has no aggregate to hide in, and this
/// makes its parameters fail validation before any input is collected.
/// XNoise sizes its collusion bound from the same threshold, so the
/// `t/(t − T_C)` inflation matches the threshold the round enforces.
fn secagg_threshold(n: usize) -> usize {
    (n / 2 + 1).max(2)
}

/// The round's XNoise plan for a cohort of `n` (None for non-XNoise
/// variants).
fn xplan_for(st: &Statics, n: usize) -> Result<Option<XNoisePlan>, DordisError> {
    match st.spec.variant {
        Variant::XNoise { collusion_frac, .. } => {
            let tolerance = xnoise_tolerance(st.spec.variant, n);
            let threshold = secagg_threshold(n);
            let collusion = ((threshold as f64) * collusion_frac).floor() as usize;
            Ok(Some(XNoisePlan::new(
                st.target_variance,
                n,
                tolerance,
                collusion,
                threshold,
            )?))
        }
        _ => Ok(None),
    }
}

/// One client's clipped local delta for a round, from the given global
/// model.
fn client_update(st: &Statics, round_index: u32, id: ClientId, global: &[f32]) -> Vec<f32> {
    let mut model = build_model(&st.spec, &st.data);
    let mut opt = build_optimizer(&st.spec);
    clipped_local_delta(
        &st.spec,
        model.as_mut(),
        opt.as_mut(),
        global,
        &st.train_set,
        &st.shards[id as usize],
        round_index,
        u64::from(id),
    )
}

/// Encodes + perturbs one client's update into its round input: the
/// DSkellam encoding, the variant's noise, and (XNoise) the component
/// seeds to be Shamir-backed through secagg.
fn encoded_input(
    st: &Statics,
    r: u64,
    id: ClientId,
    update: &[f32],
    n: usize,
    xplan: Option<&XNoisePlan>,
) -> Result<ClientInput, DordisError> {
    let enc_cfg = &st.spec.privacy.encoding;
    let bits = enc_cfg.bit_width;
    let encoder = Encoder::new(enc_cfg, rotation_for(&st.root, r));
    let update_f64: Vec<f64> = update.iter().map(|&x| f64::from(x)).collect();
    let round_seed = encode_seed_for(&st.root, r, id);
    let mut enc = encoder
        .encode(&update_f64, &round_seed)
        .map_err(DordisError::Dp)?;
    let noise_seeds = match st.spec.variant {
        Variant::XNoise { .. } => {
            let plan = xplan.expect("xnoise plan built for xnoise variant");
            // The seeds travel through secagg's Shamir backup, so the
            // server can recover exactly the removable components —
            // keyed per (run, round, client) so the recovery is
            // reproducible.
            let seeds = derive_component_seeds(
                &client_round_seed(st.spec.seed, r, id),
                plan.dropout_tolerance,
            );
            perturb(&mut enc, &seeds, plan, bits)?;
            seeds
        }
        Variant::NonPrivate => Vec::new(),
        variant => {
            add_share_noise(&mut enc, variant, &round_seed, st.target_variance, n, bits);
            Vec::new()
        }
    };
    Ok(ClientInput {
        vector: enc,
        noise_seeds,
    })
}

/// The round parameters for a seated cohort.
fn round_params(st: &Statics, r: u64, cohort: &[ClientId]) -> RoundParams {
    let n = cohort.len();
    RoundParams {
        round: r,
        clients: cohort.to_vec(),
        threshold: secagg_threshold(n),
        bit_width: st.spec.privacy.encoding.bit_width,
        vector_len: Encoder::padded_len(st.dim),
        noise_components: xnoise_tolerance(st.spec.variant, n),
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

/// What a round execution engine must hand back to the shared driver.
pub(crate) struct RoundNet {
    /// The cohort the round ran with, in seating order: the task's
    /// shuffle for the plain engine, the VRF plan for the in-memory
    /// engine, what the coordinator seated for the networked ones.
    /// Everything downstream is sized from this.
    cohort: Vec<ClientId>,
    /// The modular aggregate before excess removal (empty when nobody
    /// survived).
    sum: Vec<u64>,
    /// Survivors (U3), in outcome order.
    survivors: Vec<ClientId>,
    /// Recovered XNoise removal seeds.
    removal_seeds: Vec<(ClientId, usize, Seed)>,
    /// Stale frames discarded (0 for the in-process engines).
    stale_frames: u64,
}

// ---------------------------------------------------------------------
// The shared session driver.
// ---------------------------------------------------------------------

/// Round-commit callback: `(wire_round, serialized candidate
/// checkpoint)`; an `Err` unwinds the round before it takes effect.
type CommitFn<'a> = &'a mut dyn FnMut(u64, &[u8]) -> Result<(), DordisError>;

/// The one FL round loop: runs `st.rounds` rounds given a per-round
/// execution engine — `exec(round index, wire round, global model)`
/// returns the round's cohort and raw aggregate; everything else
/// (removal, decode, FedAvg, evaluation, the privacy ledger) is this one
/// code path for every engine, and all of it is sized from the cohort
/// the engine hands back.
///
/// `Early` stops before the first round that would start on an
/// exhausted budget. A round nobody survived releases nothing: no
/// ledger entry, no model step. The non-private baseline records
/// nothing in the ledger.
///
/// Optionally starts from a restored [`DriverCheckpoint`] instead of
/// round 0, and optionally gates every round on a `commit` callback
/// (checkpoint replication). The commit is called with the serialized
/// candidate state *before* that state is installed — a round whose
/// commit errors leaves no trace in the ledger, the model, or the
/// records, which is exactly the crash-consistency contract the
/// failover path relies on.
pub(crate) fn run_fl_session_at(
    st: &Statics,
    resume: Option<DriverCheckpoint>,
    mut commit: Option<CommitFn<'_>>,
    mut exec: impl FnMut(u32, u64, &[f32]) -> Result<RoundNet, DordisError>,
) -> Result<FlSessionReport, DordisError> {
    let spec = &st.spec;
    let enc_cfg = &spec.privacy.encoding;
    let bits = enc_cfg.bit_width;

    let mut model = build_model(spec, &st.data);
    let (start, mut ledger, mut global, mut records, mut rounds) = match resume {
        Some(ckpt) => {
            if ckpt.next_round > st.rounds {
                return Err(DordisError::Config(format!(
                    "checkpoint resumes at round {} past the {}-round horizon",
                    ckpt.next_round, st.rounds
                )));
            }
            (
                ckpt.next_round,
                ckpt.ledger,
                ckpt.global,
                ckpt.records,
                ckpt.rounds,
            )
        }
        None => {
            let ledger = PrivacyLedger::new(
                mechanism(spec, st.dim),
                spec.privacy.epsilon,
                spec.privacy.delta,
            )?;
            (0, ledger, model.params(), Vec::new(), Vec::new())
        }
    };

    let mut stopped_early = false;
    for i in start..st.rounds {
        if spec.variant == Variant::Early && ledger.exhausted() {
            stopped_early = true;
            break;
        }
        let r = wire_round(i);
        let net = exec(i, r, &global)?;
        let cohort = net.cohort;
        // The plan the cohort's clients perturbed under: they sized it
        // from the Setup `cohort` field, which is this length.
        let xplan = xplan_for(st, cohort.len())?;
        let dropped_ct = cohort.len() - net.survivors.len();
        let mut sum = net.sum;
        let achieved = if net.survivors.is_empty() {
            0.0
        } else {
            if let Some(plan) = &xplan {
                if dropped_ct <= plan.dropout_tolerance {
                    remove_excess(&mut sum, &net.removal_seeds, &net.survivors, plan, bits)?;
                }
            }
            let encoder = Encoder::new(enc_cfg, rotation_for(&st.root, r));
            let decoded = encoder.decode(&sum, st.dim);
            let achieved = achieved_noise_multiplier(
                spec.variant,
                st.z_star,
                st.target_variance,
                cohort.len(),
                net.survivors.len(),
                xplan.as_ref(),
            );
            // The watermark-guarded record: a resumed driver that
            // replayed an already-committed round would be rejected
            // here instead of double-counting privacy budget.
            if spec.variant != Variant::NonPrivate {
                ledger
                    .record_round_at(r, st.sample_rate, achieved)
                    .map_err(DordisError::Dp)?;
            }
            // FedAvg over survivors.
            let mean: Vec<f32> = decoded
                .iter()
                .map(|&v| (v / net.survivors.len() as f64) as f32)
                .collect();
            apply_update(&mut global, &mean, 1.0);
            achieved
        };

        // Evaluate on the cadence.
        model.set_params(&global);
        let evaluate = i % spec.eval_every == spec.eval_every - 1 || i + 1 == st.rounds;
        let (acc, ppl) = if evaluate {
            (
                Some(accuracy(model.as_ref(), &st.test_set)),
                Some(perplexity(model.as_ref(), &st.test_set)),
            )
        } else {
            (None, None)
        };
        records.push(RoundRecord {
            round: i,
            epsilon: ledger.realized_epsilon(),
            dropped: dropped_ct,
            achieved_multiplier: achieved,
            accuracy: acc,
            perplexity: ppl,
        });
        let dropped: Vec<ClientId> = cohort
            .iter()
            .copied()
            .filter(|id| !net.survivors.contains(id))
            .collect();
        rounds.push(SessionRoundOutcome {
            round: i,
            wire_round: r,
            cohort,
            survivors: net.survivors,
            dropped,
            sum,
            stale_frames: net.stale_frames,
        });

        // Checkpoint-then-commit: ship the round's candidate state and
        // only treat it as durable once the commit callback returns. A
        // commit error unwinds the whole session — the caller must
        // discard this driver (a backup may already hold a divergent
        // view), so nothing recorded above ever escapes uncommitted.
        if let Some(cb) = commit.as_mut() {
            let ckpt = DriverCheckpoint {
                next_round: i + 1,
                ledger: ledger.clone(),
                global: global.clone(),
                records: records.clone(),
                rounds: rounds.clone(),
            };
            cb(r, &ckpt.to_bytes())?;
        }
    }

    // The last record evaluated `global` as it stands, unless its round
    // fell off the eval cadence (an `Early` stop) or none exists.
    let (final_accuracy, final_perplexity) = match records.last() {
        Some(&RoundRecord {
            accuracy: Some(acc),
            perplexity: Some(ppl),
            ..
        }) => (acc, ppl),
        _ => {
            model.set_params(&global);
            (
                accuracy(model.as_ref(), &st.test_set),
                perplexity(model.as_ref(), &st.test_set),
            )
        }
    };
    Ok(FlSessionReport {
        training: TrainingReport {
            task: spec.name.clone(),
            rounds_completed: records.len() as u32,
            epsilon_consumed: ledger.realized_epsilon(),
            final_accuracy,
            final_perplexity,
            stopped_early,
            records,
        },
        rounds,
        global,
    })
}

// ---------------------------------------------------------------------
// Plain engine.
// ---------------------------------------------------------------------

/// One round of the plain engine behind [`crate::trainer::train`]: the
/// task's seeded cohort shuffle and dropout draw (after sampling, before
/// the upload), the survivors trained and encoded in scoped threads, and
/// their inputs summed through `secagg::plain` with no masking. Each
/// survivor hands over the XNoise seeds the round's dropouts leave
/// removable — what the secagg engines recover through Shamir shares.
pub(crate) fn plain_round(st: &Statics, i: u32, global: &[f32]) -> Result<RoundNet, DordisError> {
    let spec = &st.spec;
    let n = spec.sampled_per_round;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ (u64::from(i) << 32));
    let mut pool: Vec<usize> = (0..spec.population).collect();
    pool.shuffle(&mut rng);
    let cohort: Vec<ClientId> = pool[..n].iter().map(|&c| c as ClientId).collect();
    let dropped = spec
        .dropout
        .sample_dropouts(i as usize, n, None, spec.seed ^ 0xd409);
    let survivors: Vec<ClientId> = (0..n)
        .filter(|pos| !dropped.contains(pos))
        .map(|pos| cohort[pos])
        .collect();

    let r = wire_round(i);
    let xplan = xplan_for(st, n)?;
    let xplan = xplan.as_ref();
    let workers = std::thread::available_parallelism().map_or(4, NonZeroUsize::get);
    let per_worker = survivors.len().div_ceil(workers).max(1);
    let inputs = std::thread::scope(|scope| {
        let handles: Vec<_> = survivors
            .chunks(per_worker)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&id| {
                            let update = client_update(st, i, id, global);
                            encoded_input(st, r, id, &update, n, xplan)
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("training thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;

    let mut vectors = BTreeMap::new();
    let mut removal_seeds = Vec::new();
    for (&id, input) in survivors.iter().zip(inputs.into_iter().flatten()) {
        let removable = input
            .noise_seeds
            .iter()
            .enumerate()
            .skip(n - survivors.len() + 1);
        removal_seeds.extend(removable.map(|(k, seed)| (id, k, *seed)));
        vectors.insert(id, input.vector);
    }
    let sum = if vectors.is_empty() {
        Vec::new()
    } else {
        plain::aggregate(&vectors, spec.privacy.encoding.bit_width).map_err(DordisError::SecAgg)?
    };
    Ok(RoundNet {
        cohort,
        sum,
        survivors,
        removal_seeds,
        stale_frames: 0,
    })
}

// ---------------------------------------------------------------------
// In-memory reference path.
// ---------------------------------------------------------------------

/// One round of `cohort` through the in-memory secagg *driver*, with
/// the round's scripted droppers that are seated in it.
fn memory_round(
    st: &Statics,
    opts: &FlSessionOptions,
    i: u32,
    cohort: &[ClientId],
    global: &[f32],
) -> Result<RoundNet, DordisError> {
    let r = wire_round(i);
    let xplan = xplan_for(st, cohort.len())?;
    let mut inputs = std::collections::BTreeMap::new();
    for &id in cohort {
        let update = client_update(st, i, id, global);
        let input = encoded_input(st, r, id, &update, cohort.len(), xplan.as_ref())?;
        inputs.insert(id, input);
    }
    let mut dropout = DropoutSchedule::none();
    for d in &opts.droppers {
        if d.round == i && cohort.contains(&d.client) {
            // A mid-chunk-stream failure never reaches U3: in the
            // driver's stage model that is a BeforeMaskedInput drop.
            dropout.drop_at(d.client, DropStage::BeforeMaskedInput);
        }
    }
    let (outcome, _) = run_round(RoundSpec {
        params: round_params(st, r, cohort),
        inputs,
        dropout,
        rng_seed: round_rng_seed(st.spec.seed, r),
    })
    .map_err(DordisError::SecAgg)?;
    Ok(RoundNet {
        cohort: cohort.to_vec(),
        sum: outcome.sum,
        survivors: outcome.survivors,
        removal_seeds: outcome.removal_seeds,
        stale_frames: 0,
    })
}

/// Runs the session fully in memory: per-round VRF cohorts, the secagg
/// *driver* with scripted dropouts, and the shared FedAvg/ledger tail.
///
/// # Errors
///
/// Invalid configuration, protocol aborts, noise-enforcement failures.
pub fn train_session(
    spec: &TaskSpec,
    opts: &FlSessionOptions,
) -> Result<FlSessionReport, DordisError> {
    let st = session_statics(spec, opts)?;
    let cohorts = planned_cohorts(spec, opts);
    run_fl_session_at(&st, None, None, |i, _r, global| {
        memory_round(&st, opts, i, &cohorts[i as usize], global)
    })
}

// ---------------------------------------------------------------------
// Networked path.
// ---------------------------------------------------------------------

/// Serializes the global model into the Setup payload.
fn global_to_bytes(global: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(global.len() * 4);
    for v in global {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Parses a Setup payload back into the global model.
fn bytes_to_global(payload: &[u8]) -> Result<Vec<f32>, NetError> {
    if !payload.len().is_multiple_of(4) {
        return Err(NetError::Protocol(format!(
            "global-model payload length {} is not a multiple of 4",
            payload.len()
        )));
    }
    Ok(payload
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect())
}

/// The one networked FL coordinator: a [`Session`] over `acceptor` that
/// runs the FL driver from `resume` (round 0 when `None`) to the
/// horizon, seating each round from the VRF claims it verifies and
/// deriving round params from the shared statics. With a `replica` link
/// every round commits through [`Session::commit_round`] (checkpoint,
/// then commit); without one the driver passes no commit hook and
/// serialises nothing. A kill that `faults` injects drops the session
/// the way a `SIGKILL` would; a clean end and every other error end it
/// with [`Session::finish`], so no client waits out its receive window.
fn coordinate(
    st: &Arc<Statics>,
    opts: &FlSessionOptions,
    acceptor: &mut TcpAcceptor,
    resume: Option<DriverCheckpoint>,
    replica: Option<TcpChannel>,
    faults: FaultPlan,
) -> Result<FlSessionReport, DordisError> {
    let first_index = resume.as_ref().map_or(0, |c| c.next_round);
    let replicated = replica.is_some();
    let population = st.spec.population as u32;
    let sample = opts.sample;
    // The coordinator's whole view of the VRF keys: the public registry.
    let registry = vrf_registry(st.spec.seed, population);
    let params_st = Arc::clone(st);
    let seating = Box::new(move |r, raw_claims: &[(ClientId, Vec<u8>)]| {
        let mut claims = Vec::new();
        let mut rejected = Vec::new();
        for (id, bytes) in raw_claims {
            match decode_claim(bytes) {
                Ok(c) if c.client == *id => claims.push(c),
                Ok(_) => rejected.push((*id, "claim names another client".to_string())),
                Err(why) => rejected.push((*id, why)),
            }
        }
        let mut outcome = seat_claims(&claims, &registry, r, &sample);
        rejected.append(&mut outcome.rejected);
        outcome.rejected = rejected;
        outcome
    });
    let cfg = SessionConfig {
        first_round: wire_round(first_index),
        join_timeout: NET_TIMEOUT,
        stage_timeout: NET_TIMEOUT,
        chunks: opts.chunks,
        replica,
        faults,
        ..SessionConfig::new(
            u64::from(opts.rounds.saturating_sub(first_index)),
            (0..population).collect(),
            seating,
            Box::new(move |r, seated| round_params(&params_st, r, seated)),
        )
    };
    let session = RefCell::new(Session::new(acceptor, cfg).map_err(DordisError::Net)?);
    let mut commit = |r: u64, state: &[u8]| {
        session
            .borrow_mut()
            .commit_round(r, state)
            .map_err(DordisError::Net)
    };
    let result = run_fl_session_at(
        st,
        resume,
        replicated.then_some(&mut commit as CommitFn<'_>),
        |_i, r, global| {
            networked_round(&mut session.borrow_mut(), r, global).map_err(DordisError::Net)
        },
    );
    match &result {
        Err(DordisError::Net(e)) if FaultPlan::is_injected(e) => {}
        _ => session.into_inner().finish(),
    }
    result
}

/// Executes one networked round through `session` and hands back the
/// cohort the coordinator seated with the aggregate.
fn networked_round(session: &mut Session, r: u64, global: &[f32]) -> Result<RoundNet, NetError> {
    let report = session.run_round(&global_to_bytes(global))?;
    if report.round != r {
        return Err(NetError::Protocol(format!(
            "session executed round {} where the driver expected {r}",
            report.round
        )));
    }
    Ok(RoundNet {
        cohort: report.cohort,
        sum: report.outcome.sum,
        survivors: report.outcome.survivors,
        removal_seeds: report.outcome.removal_seeds,
        stale_frames: report.stale_frames,
    })
}

/// A coordinator listener on an OS-assigned 127.0.0.1 port.
fn bind_local() -> Result<TcpAcceptor, DordisError> {
    TcpAcceptor::bind("127.0.0.1:0").map_err(DordisError::Net)
}

/// Runs `coordinator` on this thread with one [`local_client`] thread
/// per population member, then reaps the clients. A client error
/// surfaces only when the coordinator side succeeded.
fn with_local_clients(
    st: &Arc<Statics>,
    opts: &FlSessionOptions,
    addrs: &[String],
    coordinator: impl FnOnce() -> Result<FlSessionReport, DordisError>,
) -> Result<FlSessionReport, DordisError> {
    let droppers: Arc<[MidStreamDrop]> = opts.droppers.clone().into();
    let shutdown = Arc::new(AtomicBool::new(false));
    let cohort = {
        let (st, shutdown) = (Arc::clone(st), Arc::clone(&shutdown));
        let (addrs, sample) = (addrs.to_vec(), opts.sample);
        local::spawn(0..st.spec.population as ClientId, move |id| {
            local_client(id, &addrs, &st, &sample, &droppers, &shutdown)
        })
    };

    let outcome = coordinator();
    // Coordinator-side resources are gone; release any still-dialing
    // clients and reap the threads.
    shutdown.store(true, Ordering::Relaxed);
    let joined = cohort
        .reap()
        .map_err(|_| DordisError::Config("client thread panicked".into()))?;
    if outcome.is_ok() {
        for run in joined.into_values() {
            run.map_err(DordisError::Config)?;
        }
    }
    outcome
}

/// One population member on 127.0.0.1: a VRF claim (or a decline) per
/// announce, the scripted mid-stream failure if one names this client
/// and round, and — when seated — local training from the Setup
/// payload's global model, encoded and perturbed under the plan for the
/// Setup frame's cohort size.
///
/// It dials `addrs[0]` and, after a scripted dropout, redials the same
/// address to re-join from the next round's announce. With more than one
/// address (the failover harness) a lost coordinator sends it to the
/// next address through [`Redial`], so orphans of a coordinator crash
/// find the successor. Once `shutdown` is set, a client that cannot
/// connect retires.
fn local_client(
    id: ClientId,
    addrs: &[String],
    st: &Statics,
    sample: &SamplingConfig,
    droppers: &[MidStreamDrop],
    shutdown: &AtomicBool,
) -> Result<(), String> {
    let failover = addrs.len() > 1;
    let key = vrf_key_for(st.spec.seed, id);
    let opts = SessionClientOptions {
        id,
        rng_seed: st.spec.seed,
        // Short enough under failover that a client parked on a
        // dead-but-accepting address re-enters the redial loop well
        // inside the takeover window.
        recv_timeout: Duration::from_secs(if failover { 5 } else { 120 }),
    };
    let backoff = Backoff::new(
        u64::from(id),
        Duration::from_millis(2),
        Duration::from_millis(200),
    );
    let mut redial = Redial::new(opts, addrs.to_vec(), backoff, 2_000);
    loop {
        let run = redial.run(
            || shutdown.load(Ordering::Relaxed),
            |_| {},
            |r| self_select(&key, id, r, sample).map(|c| encode_claim(&c)),
            |r| {
                droppers
                    .iter()
                    .find(|d| wire_round(d.round) == r && d.client == id)
                    .map(|d| FailPoint {
                        stage: FailStage::MaskedInputAfterChunks(d.after_chunks),
                        action: FailAction::Disconnect,
                    })
            },
            |r, _params, cohort, payload| {
                let global = bytes_to_global(payload)?;
                let i = round_index(r)
                    .ok_or_else(|| NetError::Protocol(format!("no session round {r}")))?;
                let n = usize::from(cohort);
                let update = client_update(st, i, id, &global);
                let xplan = xplan_for(st, n)
                    .map_err(|e| NetError::Protocol(format!("xnoise plan: {e}")))?;
                encoded_input(st, r, id, &update, n, xplan.as_ref())
                    .map_err(|e| NetError::Protocol(format!("encode: {e}")))
            },
            |_| None,
        );
        let report = match run {
            Ok(Some(report)) => report,
            Ok(None) => return Ok(()),
            Err(e) => return Err(format!("client {id}: {e}")),
        };
        match report.end {
            SessionEndKind::Ended => return Ok(()),
            // Scripted dropout: rejoin the same coordinator from the
            // next round's announce.
            SessionEndKind::Failed { .. } => {}
            SessionEndKind::Aborted { round, reason } => {
                return Err(format!("client {id} aborted in round {round}: {reason}"))
            }
            SessionEndKind::ServerAborted { reason } => {
                return Err(format!("client {id}: server aborted: {reason}"))
            }
        }
    }
}

/// Runs the session over `dordis-net`: a session coordinator on this
/// thread, one persistent 127.0.0.1 TCP connection per population member,
/// per-round VRF claims verified-and-trimmed at the join stage, the
/// global model broadcast in each Setup payload, and scripted
/// mid-stream droppers that reconnect and re-join the next round.
///
/// # Errors
///
/// Invalid configuration, protocol aborts, transport failures,
/// noise-enforcement failures.
pub fn train_session_networked(
    spec: &TaskSpec,
    opts: &FlSessionOptions,
) -> Result<FlSessionReport, DordisError> {
    let st = Arc::new(session_statics(spec, opts)?);
    let mut acceptor = bind_local()?;
    with_local_clients(&st, opts, &[acceptor.local_addr()], || {
        coordinate(&st, opts, &mut acceptor, None, None, FaultPlan::none())
    })
}

// ---------------------------------------------------------------------
// Failover path: replicated primary, backup takeover, client redial.
// ---------------------------------------------------------------------

/// A scripted coordinator crash for the failover harness.
#[derive(Clone, Copy, Debug)]
pub struct CrashSpec {
    /// 0-based session round index the kill fires in.
    pub round: u32,
    /// Where inside that round the primary dies.
    pub point: KillPoint,
}

/// Runs a *replicated* networked session and (optionally) kills the
/// primary coordinator partway through: a primary on one 127.0.0.1
/// address ships a [`DriverCheckpoint`] to a backup at every round
/// boundary through [`Session::commit_round`]; clients redial with
/// bounded jittered [`Backoff`], flipping between the two addresses
/// until one answers; on the primary's death the backup takes over from
/// the last acked checkpoint and serves the remaining rounds.
///
/// With `crash: None` the session still runs fully replicated (every
/// round gated on the backup's ack) and retires cleanly — the overhead
/// path. With a [`CrashSpec`] the primary dies at the scripted
/// [`KillPoint`] and the report is produced by the successor. Either
/// way the result is bit-equal to [`train_session_networked`] /
/// [`train_session`]: a crash mid-round re-runs that round from the
/// committed prefix (same VRF cohort, seeds, and global model ⇒ same
/// aggregate), a crash between the ack and the commit resumes *past*
/// the round the backup already holds, and the ledger's watermark
/// rejects any double-record across the hand-off.
///
/// # Errors
///
/// Invalid configuration, unrecoverable protocol/transport failures
/// ([`DordisError::Net`], after which the primary retires as it would
/// at a clean end), checkpoint corruption.
pub fn train_session_networked_failover(
    spec: &TaskSpec,
    opts: &FlSessionOptions,
    crash: Option<CrashSpec>,
) -> Result<FlSessionReport, DordisError> {
    let st = Arc::new(session_statics(spec, opts)?);
    let mut primary = bind_local()?;
    let mut successor = bind_local()?;
    let addrs = [primary.local_addr(), successor.local_addr()];
    let (link, mut backup_link) = TcpChannel::pair().map_err(DordisError::Net)?;

    // ---- The backup coordinator's watch thread. The lease is generous
    // — takeover here is driven by the replication channel closing with
    // the crashed primary, which the backup sees immediately. ----
    let lease = NET_TIMEOUT * 5;
    let backup = std::thread::spawn(move || {
        run_backup(
            &mut backup_link,
            lease,
            &dordis_telemetry::Telemetry::disabled(),
        )
    });
    let faults = crash.map_or_else(FaultPlan::none, |c| {
        FaultPlan::kill_at(wire_round(c.round), c.point)
    });

    // ---- Primary, then (after a scripted crash) the successor, with
    // clients that flip between the two addresses. ----
    with_local_clients(&st, opts, &addrs, || {
        let run = coordinate(&st, opts, &mut primary, None, Some(link), faults);
        // The primary retired its role or dropped the replication link,
        // so the backup has returned or is about to.
        drop(primary);
        let backup = backup.join();
        match run {
            Err(DordisError::Net(e)) if FaultPlan::is_injected(&e) => {}
            run => return run,
        }

        // ---- Failover. The dead primary dropped every client channel
        // and the replication link — no SessionEnd, no retire: exactly
        // what a SIGKILL looks like from the outside. ----
        let takeover = match backup {
            Ok(Ok(BackupOutcome::Takeover(t))) => t,
            Ok(Ok(BackupOutcome::SessionEnded(_))) => {
                return Err(DordisError::Config(
                    "backup saw a clean session end after a scripted crash".into(),
                ))
            }
            Ok(Err(e)) => return Err(DordisError::Net(e)),
            Err(_) => return Err(DordisError::Config("backup thread panicked".into())),
        };
        // Died before the first commit ⇒ no checkpoint ⇒ the successor
        // starts the whole session from scratch.
        let resume = takeover
            .checkpoint
            .map(|c| DriverCheckpoint::from_bytes(&c.app_state))
            .transpose()?;
        coordinate(&st, opts, &mut successor, resume, None, FaultPlan::none())
    })
}

#[cfg(test)]
mod tests {
    use dordis_secagg::SecAggError;

    use super::*;

    #[test]
    fn round_index_inverts_wire_round() {
        for i in [0, 1, 41, u32::MAX] {
            assert_eq!(round_index(wire_round(i)), Some(i));
        }
        assert_eq!(round_index(0), None);
        assert_eq!(round_index(wire_round(u32::MAX) + 1), None);
    }

    /// The driver plans nothing itself: handed a cohort one client short
    /// of the VRF plan, the reported cohort and droppers, the XNoise plan
    /// removal runs under and the ledger's achieved multiplier all follow
    /// the cohort that came back.
    #[test]
    fn driver_follows_the_cohort_the_engine_hands_back() {
        let mut spec = TaskSpec::tiny_for_tests(77);
        let sample = SamplingConfig {
            target_sample: 8,
            population: spec.population,
            over_selection: 1.5,
        };
        let mut opts = FlSessionOptions::new(1, sample);
        let planned = planned_cohorts(&spec, &opts).remove(0);
        let seated = planned[..planned.len() - 1].to_vec();
        // Tolerance 1 at both cohort sizes, so the one scripted dropper
        // is within tolerance of what was seated — while bookkeeping on
        // the planned cohort would count two clients missing.
        spec.variant = Variant::XNoise {
            tolerance_frac: 1.5 / planned.len() as f64,
            collusion_frac: 0.0,
        };
        opts.droppers = vec![MidStreamDrop {
            round: 0,
            client: seated[0],
            after_chunks: 1,
        }];
        let st = session_statics(&spec, &opts).unwrap();

        let raw = RefCell::new(None);
        let report = run_fl_session_at(&st, None, None, |i, _r, global| {
            let net = memory_round(&st, &opts, i, &seated, global)?;
            *raw.borrow_mut() = Some((net.sum.clone(), net.removal_seeds.clone()));
            Ok(net)
        })
        .unwrap();

        let round = &report.rounds[0];
        assert_eq!(round.cohort, seated);
        assert_eq!(round.dropped, vec![seated[0]]);
        let record = &report.training.records[0];
        assert_eq!(record.dropped, 1);

        // Removal ran under the plan for the seated cohort's size.
        let plan = xplan_for(&st, seated.len()).unwrap().unwrap();
        assert_eq!(plan.dropout_tolerance, 1);
        let (mut sum, seeds) = raw.into_inner().unwrap();
        let bits = spec.privacy.encoding.bit_width;
        remove_excess(&mut sum, &seeds, &round.survivors, &plan, bits).unwrap();
        assert_eq!(round.sum, sum);

        // One dropout within tolerance: exactly the planned multiplier —
        // not the shortfall the planned cohort's size would have booked.
        assert_eq!(record.achieved_multiplier, st.z_star);
        let by_plan = achieved_noise_multiplier(
            spec.variant,
            st.z_star,
            st.target_variance,
            planned.len(),
            round.survivors.len(),
            xplan_for(&st, planned.len()).unwrap().as_ref(),
        );
        assert_ne!(record.achieved_multiplier, by_plan);
    }

    /// A round that falls below threshold ends both networked
    /// coordinators with the same typed error, and the replicated one
    /// ends its session with `SessionEnd` as well, so its parked and
    /// re-joining clients leave at once instead of waiting out their
    /// receive window.
    #[test]
    fn a_below_threshold_abort_ends_both_coordinators_alike() {
        let spec = TaskSpec::tiny_for_tests(20_240_517);
        let sample = SamplingConfig {
            target_sample: 8,
            population: spec.population,
            over_selection: 1.5,
        };
        let mut opts = FlSessionOptions::new(3, sample);
        let seated = planned_cohorts(&spec, &opts).remove(1);
        assert_eq!(seated.len(), 8);
        // Four of eight stay live against t = 5.
        opts.droppers = seated[..4]
            .iter()
            .map(|&client| MidStreamDrop {
                round: 1,
                client,
                after_chunks: 0,
            })
            .collect();
        let below_threshold = |e: DordisError| match e {
            DordisError::Net(NetError::SecAgg(e @ SecAggError::BelowThreshold { .. })) => e,
            other => panic!("want a below-threshold abort, got {other}"),
        };
        let plain = below_threshold(train_session_networked(&spec, &opts).unwrap_err());
        let started = std::time::Instant::now();
        let replicated =
            below_threshold(train_session_networked_failover(&spec, &opts, None).unwrap_err());
        let took = started.elapsed();
        assert_eq!(replicated, plain);
        assert!(
            took < Duration::from_secs(1),
            "replicated abort took {took:?}"
        );
    }

    /// A networked session on the session golden's spec (three rounds,
    /// one scripted dropper that reconnects and re-joins) discards no
    /// frame: nothing on 127.0.0.1 arrives late, so every stale frame
    /// would be one the protocol made itself.
    #[test]
    fn a_networked_session_reports_no_self_made_stale_frames() {
        let mut spec = TaskSpec::tiny_for_tests(20_261_019);
        spec.rounds = 3;
        spec.model = crate::config::ModelSpec::Mlp { hidden: 6 };
        spec.eval_every = 1;
        let sample = SamplingConfig {
            target_sample: 8,
            population: spec.population,
            over_selection: 1.5,
        };
        let mut opts = FlSessionOptions::new(3, sample);
        opts.droppers.push(MidStreamDrop {
            round: 1,
            client: planned_cohorts(&spec, &opts)[1][0],
            after_chunks: 1,
        });
        let report = train_session_networked(&spec, &opts).unwrap();
        let stale: Vec<u64> = report.rounds.iter().map(|r| r.stale_frames).collect();
        assert_eq!(stale, [0, 0, 0]);
    }

    /// `Early` stops before the first round that would start on a spent
    /// budget on the session engines too, and reports that it did.
    #[test]
    fn early_session_stops_once_the_budget_is_spent() {
        let mut spec = TaskSpec::tiny_for_tests(31);
        spec.variant = Variant::Early;
        let rounds = 12;
        let sample = SamplingConfig {
            target_sample: 8,
            population: spec.population,
            over_selection: 1.5,
        };
        let mut opts = FlSessionOptions::new(rounds, sample);
        // Every round loses all but a threshold of its cohort.
        opts.droppers = planned_cohorts(&spec, &opts)
            .iter()
            .zip(0..)
            .flat_map(|(cohort, round)| {
                cohort[cohort.len() / 2 + 1..]
                    .iter()
                    .map(move |&client| MidStreamDrop {
                        round,
                        client,
                        after_chunks: 1,
                    })
            })
            .collect();
        let report = train_session(&spec, &opts).unwrap();
        let training = &report.training;
        assert!(training.stopped_early);
        assert!(training.rounds_completed < rounds);
        assert_eq!(training.records.len(), training.rounds_completed as usize);
        assert_eq!(report.rounds.len(), training.rounds_completed as usize);
        // It stopped because the budget was spent, and not a round early.
        let budget = spec.privacy.epsilon;
        assert!(training.epsilon_consumed >= budget);
        assert!(training.records[training.records.len() - 2].epsilon < budget);
    }
}
