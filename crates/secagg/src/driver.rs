//! In-memory round executor with dropout injection.
//!
//! The driver wires the client and server state machines together exactly
//! as a network would and drops clients at configurable stage boundaries.
//! It counts no bytes: traffic is measured on the wire, by `dordis-net`'s
//! coordinator. Protocol logic lives entirely in
//! [`crate::client`] and [`crate::server`]; the driver is deliberately
//! dumb so that tests exercising the state machines directly (e.g. the
//! malicious-server suite) see the same behaviour.

use std::collections::BTreeMap;
use std::sync::Arc;

use dordis_crypto::ed25519::SigningKey;
use rand::SeedableRng;

use crate::client::{Client, ClientInput, Identity};
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

/// Runs a full round in memory. Returns the outcome and the clients that
/// aborted on a detected inconsistency, in abort order.
///
/// An aborting client is treated as dropped from that point on (matching
/// deployed behaviour, where an aborting client simply goes silent);
/// hard configuration errors propagate.
///
/// # Errors
///
/// Returns the server's error if a stage falls below threshold, plus any
/// configuration error.
pub fn run_round(spec: RoundSpec) -> Result<(RoundOutcome, Vec<ClientId>), SecAggError> {
    let params = spec.params;
    params.validate()?;
    let mut aborted = Vec::new();

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
    for (&id, c) in clients.iter_mut() {
        if !alive(&spec.dropout, id, DropStage::BeforeAdvertise) {
            continue;
        }
        match c.advertise_keys() {
            Ok(a) => advs.push(a),
            Err(SecAggError::ClientAbort { client, .. }) => aborted.push(client),
            Err(e) => return Err(e),
        }
    }
    let roster = server.collect_advertisements(advs)?;

    // ---- Stage 1: ShareKeys. ----
    let mut all_cts = Vec::new();
    for (&id, c) in clients.iter_mut() {
        if !alive(&spec.dropout, id, DropStage::BeforeShareKeys) {
            continue;
        }
        match c.share_keys(&roster, &mut share_keys_rng(spec.rng_seed, id)) {
            Ok(cts) => all_cts.extend(cts),
            Err(SecAggError::ClientAbort { client, .. }) => aborted.push(client),
            Err(e) => return Err(e),
        }
    }
    let mut inboxes = server.route_shares(all_cts)?;

    // ---- Stage 2: MaskedInputCollection. ----
    let mut masked = Vec::new();
    for (&id, c) in clients.iter_mut() {
        if !alive(&spec.dropout, id, DropStage::BeforeMaskedInput) {
            continue;
        }
        let inbox = inboxes.remove(&id).unwrap_or_default();
        match c.masked_input(inbox) {
            Ok(m) => masked.push(m),
            Err(SecAggError::ClientAbort { client, .. }) => aborted.push(client),
            Err(e) => return Err(e),
        }
    }
    server.collect_masked_chunk(0, masked)?;
    let u3 = server.finalize_masked()?;

    // ---- Stage 3: ConsistencyCheck (malicious only). ----
    let signatures = if params.threat_model == ThreatModel::Malicious {
        let mut sigs = Vec::new();
        for &id in &u3 {
            if !alive(&spec.dropout, id, DropStage::BeforeConsistency) {
                continue;
            }
            let c = clients.get_mut(&id).expect("sampled");
            match c.consistency_check(&u3) {
                Ok(s) => sigs.push(s),
                Err(SecAggError::ClientAbort { client, .. }) => aborted.push(client),
                Err(e) => return Err(e),
            }
        }
        Some(server.collect_consistency(sigs)?)
    } else {
        None
    };

    // ---- Stage 4: Unmasking. ----
    let mut responses = Vec::new();
    for &id in &u3 {
        if !alive(&spec.dropout, id, DropStage::BeforeUnmasking) {
            continue;
        }
        let c = clients.get_mut(&id).expect("sampled");
        match c.unmask(&u3, signatures.as_deref()) {
            Ok(r) => responses.push(r),
            Err(SecAggError::ClientAbort { client, .. }) => aborted.push(client),
            Err(e) => return Err(e),
        }
    }
    server.reconstruct_unmasking(responses)?;
    server.unmask_chunk(0)?;
    let u5 = server.u5().to_vec();

    // ---- Stage 5: ExcessiveNoiseRemoval (only if needed). ----
    if !server.pending_seed_owners().is_empty() {
        let mut responses = Vec::new();
        for &id in &u5 {
            if !alive(&spec.dropout, id, DropStage::BeforeNoiseShares) {
                continue;
            }
            let c = clients.get_mut(&id).expect("sampled");
            match c.noise_shares(&u5) {
                Ok(r) => responses.push(r),
                Err(SecAggError::ClientAbort { client, .. }) => aborted.push(client),
                Err(e) => return Err(e),
            }
        }
        server.collect_noise_shares(responses)?;
    }

    debug_assert!(server.privacy_invariant_holds());
    Ok((server.finish(), aborted))
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
