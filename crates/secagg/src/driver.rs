//! In-memory round executor with dropout injection and traffic accounting.
//!
//! The driver wires the client and server state machines together exactly
//! as a network would, drops clients at configurable stage boundaries, and
//! records per-stage traffic. Protocol logic lives entirely in
//! [`crate::client`] and [`crate::server`]; the driver is deliberately
//! dumb so that tests exercising the state machines directly (e.g. the
//! malicious-server suite) see the same behaviour.

use std::collections::BTreeMap;
use std::sync::Arc;

use dordis_crypto::ed25519::SigningKey;
use rand::SeedableRng;

use crate::client::{Client, ClientInput, Identity};
use crate::messages::{IdList, WireSize};
use crate::server::{RoundOutcome, Server};
use crate::{ClientId, RoundParams, SecAggError, ThreatModel};

/// The last point at which a client is still alive; it produces no
/// messages from the named stage onward.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropStage {
    /// Drops before advertising keys (never participates).
    BeforeAdvertise,
    /// Drops after advertising, before sharing keys.
    BeforeShareKeys,
    /// Drops after sharing keys, before sending the masked input — the
    /// paper's standard dropout model (§6.1).
    BeforeMaskedInput,
    /// Drops after the masked input, before the consistency check.
    BeforeConsistency,
    /// Drops after the consistency check, before unmasking (exercises
    /// `U3 \ U5` and therefore stage 5).
    BeforeUnmasking,
    /// Drops after unmasking, before the noise-share stage.
    BeforeNoiseShares,
    /// Stays for the whole round.
    Never,
}

/// Per-round dropout plan.
#[derive(Clone, Debug, Default)]
pub struct DropoutSchedule {
    map: BTreeMap<ClientId, DropStage>,
}

impl DropoutSchedule {
    /// No dropouts.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Marks `client` to drop at `stage`.
    pub fn drop_at(&mut self, client: ClientId, stage: DropStage) -> &mut Self {
        self.map.insert(client, stage);
        self
    }

    /// True if the client is still alive at `stage`.
    #[must_use]
    fn alive_at(&self, client: ClientId, stage: DropStage) -> bool {
        match self.map.get(&client) {
            None => true,
            Some(&drop) => stage < drop,
        }
    }
}

/// Traffic observed during one stage.
#[derive(Clone, Debug, Default)]
pub struct StageTraffic {
    /// Stage name.
    pub stage: &'static str,
    /// Total client→server bytes.
    pub uplink_total: u64,
    /// Largest single client's uplink bytes.
    pub uplink_max: u64,
    /// Total server→client bytes.
    pub downlink_total: u64,
    /// Largest single client's downlink bytes.
    pub downlink_max: u64,
}

/// Full traffic statistics for a round.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// Per-stage traffic in execution order.
    pub stages: Vec<StageTraffic>,
    /// Clients that aborted (detected an inconsistency) rather than
    /// dropping per schedule.
    pub aborted: Vec<ClientId>,
}

impl RoundStats {
    /// Total bytes moved in the round.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.uplink_total + s.downlink_total)
            .sum()
    }

    /// Finds a stage's traffic by name.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageTraffic> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

/// Specification of one driver-executed round.
pub struct RoundSpec {
    /// Protocol parameters.
    pub params: RoundParams,
    /// Each sampled client's input.
    pub inputs: BTreeMap<ClientId, ClientInput>,
    /// Dropout plan.
    pub dropout: DropoutSchedule,
    /// Seed for all client randomness (deterministic runs).
    pub rng_seed: u64,
}

/// Runs a full round in memory.
///
/// Clients that abort due to a detected inconsistency are treated as
/// dropped from that point on (matching deployed behaviour, where an
/// aborting client simply goes silent); hard configuration errors
/// propagate.
///
/// # Errors
///
/// Returns the server's error if a stage falls below threshold, plus any
/// configuration error.
pub fn run_round(spec: RoundSpec) -> Result<(RoundOutcome, RoundStats), SecAggError> {
    let params = spec.params;
    params.validate()?;
    let mut stats = RoundStats::default();

    // PKI setup in the malicious model.
    let registry: Option<Arc<BTreeMap<ClientId, dordis_crypto::ed25519::VerifyingKey>>> =
        if params.threat_model == ThreatModel::Malicious {
            let mut reg = BTreeMap::new();
            for &id in &params.clients {
                let sk = signing_key_for(spec.rng_seed, id);
                reg.insert(id, sk.verifying_key());
            }
            Some(Arc::new(reg))
        } else {
            None
        };

    // Instantiate clients.
    let mut clients: BTreeMap<ClientId, Client> = BTreeMap::new();
    for &id in &params.clients {
        let input = spec
            .inputs
            .get(&id)
            .cloned()
            .ok_or_else(|| SecAggError::Config(format!("missing input for client {id}")))?;
        let identity = registry.as_ref().map(|reg| Identity {
            signing: signing_key_for(spec.rng_seed, id),
            registry: Arc::clone(reg),
        });
        let mut rng = client_rng(spec.rng_seed, id);
        clients.insert(
            id,
            Client::new(params.clone(), id, input, identity, &mut rng)?,
        );
    }

    let mut server = Server::new(params.clone())?;
    let alive =
        |sched: &DropoutSchedule, id: ClientId, st: DropStage| -> bool { sched.alive_at(id, st) };

    // ---- Stage 0: AdvertiseKeys. ----
    let mut advs = Vec::new();
    let mut up = Traffic::default();
    for (&id, c) in clients.iter_mut() {
        if !alive(&spec.dropout, id, DropStage::BeforeAdvertise) {
            continue;
        }
        match c.advertise_keys() {
            Ok(a) => {
                up.add(a.wire_bytes());
                advs.push(a);
            }
            Err(SecAggError::ClientAbort { client, .. }) => stats.aborted.push(client),
            Err(e) => return Err(e),
        }
    }
    let roster = server.collect_advertisements(advs)?;
    let roster_bytes: u64 = roster.iter().map(WireSize::wire_bytes).sum();
    let live_count = roster.len() as u64;
    stats.stages.push(StageTraffic {
        stage: "AdvertiseKeys",
        uplink_total: up.total,
        uplink_max: up.max,
        downlink_total: roster_bytes * live_count,
        downlink_max: roster_bytes,
    });

    // ---- Stage 1: ShareKeys. ----
    let mut all_cts = Vec::new();
    let mut up = Traffic::default();
    for (&id, c) in clients.iter_mut() {
        if !alive(&spec.dropout, id, DropStage::BeforeShareKeys) {
            continue;
        }
        match c.share_keys(&roster, &mut share_keys_rng(spec.rng_seed, id)) {
            Ok(cts) => {
                up.add(cts.iter().map(WireSize::wire_bytes).sum());
                all_cts.extend(cts);
            }
            Err(SecAggError::ClientAbort { client, .. }) => stats.aborted.push(client),
            Err(e) => return Err(e),
        }
    }
    let mut inboxes = server.route_shares(all_cts)?;
    let mut down = Traffic::default();
    for cts in inboxes.values() {
        down.add(cts.iter().map(WireSize::wire_bytes).sum());
    }
    stats.stages.push(StageTraffic {
        stage: "ShareKeys",
        uplink_total: up.total,
        uplink_max: up.max,
        downlink_total: down.total,
        downlink_max: down.max,
    });

    // ---- Stage 2: MaskedInputCollection. ----
    let mut masked = Vec::new();
    let mut up = Traffic::default();
    for (&id, c) in clients.iter_mut() {
        if !alive(&spec.dropout, id, DropStage::BeforeMaskedInput) {
            continue;
        }
        let inbox = inboxes.remove(&id).unwrap_or_default();
        match c.masked_input(inbox) {
            Ok(m) => {
                up.add(m.wire_bytes());
                masked.push(m);
            }
            Err(SecAggError::ClientAbort { client, .. }) => stats.aborted.push(client),
            Err(e) => return Err(e),
        }
    }
    server.collect_masked_chunk(0, masked)?;
    let u3 = server.finalize_masked()?;
    let u3_bytes = IdList(u3.clone()).wire_bytes();
    stats.stages.push(StageTraffic {
        stage: "MaskedInputCollection",
        uplink_total: up.total,
        uplink_max: up.max,
        downlink_total: u3_bytes * u3.len() as u64,
        downlink_max: u3_bytes,
    });

    // ---- Stage 3: ConsistencyCheck (malicious only). ----
    let signatures = if params.threat_model == ThreatModel::Malicious {
        let mut sigs = Vec::new();
        let mut up = Traffic::default();
        for &id in &u3 {
            if !alive(&spec.dropout, id, DropStage::BeforeConsistency) {
                continue;
            }
            let c = clients.get_mut(&id).expect("sampled");
            match c.consistency_check(&u3) {
                Ok(s) => {
                    up.add(s.wire_bytes());
                    sigs.push(s);
                }
                Err(SecAggError::ClientAbort { client, .. }) => stats.aborted.push(client),
                Err(e) => return Err(e),
            }
        }
        let list = server.collect_consistency(sigs)?;
        let down_bytes = list.len() as u64 * 68;
        stats.stages.push(StageTraffic {
            stage: "ConsistencyCheck",
            uplink_total: up.total,
            uplink_max: up.max,
            downlink_total: down_bytes * u3.len() as u64,
            downlink_max: down_bytes,
        });
        Some(list)
    } else {
        None
    };

    // ---- Stage 4: Unmasking. ----
    let mut responses = Vec::new();
    let mut up = Traffic::default();
    for &id in &u3 {
        if !alive(&spec.dropout, id, DropStage::BeforeUnmasking) {
            continue;
        }
        let c = clients.get_mut(&id).expect("sampled");
        match c.unmask(&u3, signatures.as_deref()) {
            Ok(r) => {
                up.add(r.wire_bytes());
                responses.push(r);
            }
            Err(SecAggError::ClientAbort { client, .. }) => stats.aborted.push(client),
            Err(e) => return Err(e),
        }
    }
    server.reconstruct_unmasking(responses)?;
    server.unmask_chunk(0)?;
    let u5 = server.u5().to_vec();
    let u5_bytes = IdList(u5.clone()).wire_bytes();
    stats.stages.push(StageTraffic {
        stage: "Unmasking",
        uplink_total: up.total,
        uplink_max: up.max,
        downlink_total: u5_bytes * u5.len() as u64,
        downlink_max: u5_bytes,
    });

    // ---- Stage 5: ExcessiveNoiseRemoval (only if needed). ----
    if !server.pending_seed_owners().is_empty() {
        let mut responses = Vec::new();
        let mut up = Traffic::default();
        for &id in &u5 {
            if !alive(&spec.dropout, id, DropStage::BeforeNoiseShares) {
                continue;
            }
            let c = clients.get_mut(&id).expect("sampled");
            match c.noise_shares(&u5) {
                Ok(r) => {
                    up.add(r.wire_bytes());
                    responses.push(r);
                }
                Err(SecAggError::ClientAbort { client, .. }) => stats.aborted.push(client),
                Err(e) => return Err(e),
            }
        }
        server.collect_noise_shares(responses)?;
        stats.stages.push(StageTraffic {
            stage: "ExcessiveNoiseRemoval",
            uplink_total: up.total,
            uplink_max: up.max,
            downlink_total: 0,
            downlink_max: 0,
        });
    }

    debug_assert!(server.privacy_invariant_holds());
    Ok((server.finish(), stats))
}

/// Derives one round's protocol seed from a session-level base seed.
///
/// A multi-round session must reset every per-round secret — self-mask
/// seeds, pairwise key-agreement keys, Shamir polynomials — each round;
/// reusing `base` directly would make every round's masks identical
/// (and one recorded round would unmask all the others). Both the
/// networked session runtime and the in-memory reference derive the
/// per-round [`RoundSpec::rng_seed`] through this one function, so a
/// session round stays bit-equal to the equivalent driver round.
#[must_use]
pub fn round_rng_seed(base: u64, round: u64) -> u64 {
    base ^ round.rotate_left(17) ^ 0x00d0_ed15_5e55_u64.rotate_left((round % 31) as u32)
}

/// The per-client RNG for [`Client::new`]. Exported so the networked
/// runtime (`dordis-net`) derives identical randomness and a networked
/// round reproduces a driver round bit for bit.
#[must_use]
pub fn client_rng(seed: u64, id: ClientId) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed ^ (u64::from(id) << 20) ^ 0x5eca_66d0)
}

/// The per-client RNG for [`Client::share_keys`]; see [`client_rng`].
#[must_use]
pub fn share_keys_rng(seed: u64, id: ClientId) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed ^ (u64::from(id) << 24) ^ 0x5a4e)
}

/// Deterministic per-client signing key (stands in for the PKI's
/// out-of-band key distribution). Public so the networked path
/// (`dordis-net` callers) can reproduce the same PKI for equivalence
/// testing.
pub fn signing_key_for(seed: u64, id: ClientId) -> SigningKey {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&seed.to_le_bytes());
    s[8..12].copy_from_slice(&id.to_le_bytes());
    s[31] = 0x51;
    SigningKey::from_seed(&s)
}

#[derive(Default)]
struct Traffic {
    total: u64,
    max: u64,
}

impl Traffic {
    fn add(&mut self, bytes: u64) {
        self.total += bytes;
        self.max = self.max.max(bytes);
    }
}
