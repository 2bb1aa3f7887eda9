//! The client-side protocol state machine.
//!
//! One method per stage of Figure 5; each consumes the server's previous
//! broadcast and produces this client's next message, or an error if a
//! consistency check fails (in which case the client aborts for the rest
//! of the round — honest clients never continue past a detected attack).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dordis_crypto::aead;
use dordis_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use dordis_crypto::ka::KeyPair;
use dordis_crypto::prg::Seed;
use dordis_crypto::shamir::{self, Share};
use rand::Rng;

use crate::mask::{self, OUTER_STRIP};
use crate::messages::{
    AdvertisedKeys, ConsistencySignature, EncryptedShares, MaskedInput, NoiseShareResponse,
    ShareBundle, UnmaskingResponse,
};
use crate::{ClientId, RoundParams, SecAggError, ThreatModel};

/// A client's per-round secret input.
#[derive(Clone, Debug)]
pub struct ClientInput {
    /// The (already DP-perturbed, encoded) update in `Z_{2^b}`.
    pub vector: Vec<u64>,
    /// XNoise seeds `g_{u,0..=T}`; must be `noise_components + 1` long, or
    /// empty when XNoise is disabled. Component 0 is never shared or
    /// revealed.
    pub noise_seeds: Vec<Seed>,
}

/// Identity material in the malicious model: the client's signing key plus
/// the PKI registry mapping every id to its verification key.
#[derive(Clone)]
pub struct Identity {
    /// This client's long-term signing key.
    pub signing: SigningKey,
    /// The PKI: everyone's verification keys.
    pub registry: Arc<BTreeMap<ClientId, VerifyingKey>>,
}

/// Client state machine.
pub struct Client {
    params: RoundParams,
    id: ClientId,
    /// Position of every sampled id in `params.clients` (stable across
    /// parties; what the masking graph is defined over).
    index: HashMap<ClientId, usize>,
    input: ClientInput,
    identity: Option<Identity>,
    c_kp: KeyPair,
    s_kp: KeyPair,
    b_seed: Seed,
    /// U1 restricted to this client's holder set (itself and its masking
    /// neighbours): id -> (c_pk, s_pk). Only these keys are ever agreed
    /// with, so `share_keys` checks the whole roster and stores these.
    u1: BTreeMap<ClientId, ([u8; 32], [u8; 32])>,
    /// Clients whose ciphertexts we received (U2), in id order.
    u2: Vec<ClientId>,
    /// Ciphertexts received, keyed by sender; every sender is a
    /// neighbour in `u1` (`begin_masked_input` aborts on any other).
    inbox: BTreeMap<ClientId, Vec<u8>>,
    /// This round's channel keys `KA.agree(c_sk, c_pk_v)`, keyed by peer:
    /// filled when `share_keys` seals to `v`, read when `unmask` opens
    /// from `v`, so each pair costs one agreement. The map dies with
    /// this `Client`, i.e. with the round.
    channel_keys: BTreeMap<ClientId, [u8; 32]>,
    /// The bundles `unmask` decrypted, keyed by sender, kept for
    /// `noise_shares`.
    bundles: BTreeMap<ClientId, ShareBundle>,
    /// The U3 set this client accepted (set at consistency/unmask).
    u3: Vec<ClientId>,
    /// The U4/U5 supersets for later verification.
    u4: Vec<ClientId>,
    /// This client's own share of its self-mask seed `b_u` (Figure 5
    /// shares over all of U1 including oneself; the self-share is sent
    /// back at Unmasking like any other U3 member's).
    own_b_share: Option<Share>,
    aborted: bool,
    /// `KA.agree` calls made so far (both keypairs).
    #[cfg(test)]
    agreements: usize,
}

impl Client {
    /// Creates the client. `input.vector` must match `params.vector_len`
    /// and `input.noise_seeds` must be empty or `T + 1` long.
    ///
    /// # Errors
    ///
    /// Configuration errors (wrong lengths, missing identity in the
    /// malicious model).
    pub fn new<R: Rng>(
        params: RoundParams,
        id: ClientId,
        input: ClientInput,
        identity: Option<Identity>,
        rng: &mut R,
    ) -> Result<Self, SecAggError> {
        if input.vector.len() != params.vector_len {
            return Err(SecAggError::Config(format!(
                "client {id}: vector length {} != {}",
                input.vector.len(),
                params.vector_len
            )));
        }
        let ring = params.ring_mask();
        if input.vector.iter().any(|&v| v > ring) {
            return Err(SecAggError::Config(format!(
                "client {id}: vector coordinate out of ring"
            )));
        }
        if !input.noise_seeds.is_empty() && input.noise_seeds.len() != params.noise_components + 1 {
            return Err(SecAggError::Config(format!(
                "client {id}: expected {} noise seeds, got {}",
                params.noise_components + 1,
                input.noise_seeds.len()
            )));
        }
        if params.threat_model == ThreatModel::Malicious && identity.is_none() {
            return Err(SecAggError::Config(
                "malicious model requires a PKI identity".into(),
            ));
        }
        let index: HashMap<ClientId, usize> = params
            .clients
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i))
            .collect();
        if !index.contains_key(&id) {
            return Err(SecAggError::Config(format!("client {id} not sampled")));
        }
        let mut b_seed = [0u8; 32];
        rng.fill(&mut b_seed[..]);
        Ok(Client {
            params,
            id,
            index,
            input,
            identity,
            c_kp: KeyPair::generate(rng),
            s_kp: KeyPair::generate(rng),
            b_seed,
            u1: BTreeMap::new(),
            u2: Vec::new(),
            inbox: BTreeMap::new(),
            channel_keys: BTreeMap::new(),
            bundles: BTreeMap::new(),
            u3: Vec::new(),
            u4: Vec::new(),
            own_b_share: None,
            aborted: false,
            #[cfg(test)]
            agreements: 0,
        })
    }

    /// This client's id.
    #[must_use]
    pub fn id(&self) -> ClientId {
        self.id
    }

    fn abort(&mut self, reason: impl Into<String>) -> SecAggError {
        self.aborted = true;
        SecAggError::ClientAbort {
            client: self.id,
            reason: reason.into(),
        }
    }

    fn check_live(&self) -> Result<(), SecAggError> {
        if self.aborted {
            return Err(SecAggError::ClientAbort {
                client: self.id,
                reason: "previously aborted".into(),
            });
        }
        Ok(())
    }

    /// Index of a client id in the sampled set (stable across parties).
    fn index_of(&self, id: ClientId) -> Option<usize> {
        self.index.get(&id).copied()
    }

    /// Neighbor ids in the masking graph, restricted to a live set
    /// (sorted ascending, as U1 and U2 are), in ascending id order: share
    /// slots and the order of the pairwise masks follow it.
    fn neighbors_in(&self, live: &[ClientId]) -> Vec<ClientId> {
        debug_assert!(live.windows(2).all(|w| w[0] < w[1]));
        let n = self.params.clients.len();
        let my_idx = self.index_of(self.id).expect("own id sampled");
        let mut out: Vec<ClientId> = self
            .params
            .graph
            .neighbors(n, my_idx)
            .into_iter()
            .map(|i| self.params.clients[i])
            .filter(|v| live.binary_search(v).is_ok())
            .collect();
        out.sort_unstable();
        out
    }

    /// The AEAD key of the channel to `peer` (who must be in U1), agreed
    /// on first use and remembered for the rest of the round.
    fn channel_key(&mut self, peer: ClientId) -> [u8; 32] {
        if let Some(&key) = self.channel_keys.get(&peer) {
            return key;
        }
        let (c_pk, _) = self.u1[&peer];
        let key = self.c_kp.agree(&c_pk);
        #[cfg(test)]
        {
            self.agreements += 1;
        }
        self.channel_keys.insert(peer, key);
        key
    }

    /// Agrees the channel keys of all of `peers` (who must be in U1) that
    /// are not cached yet, in one `agree_many` under `c_sk`.
    fn agree_channel_keys(&mut self, peers: &[ClientId]) {
        let (missing, c_pks): (Vec<ClientId>, Vec<[u8; 32]>) = peers
            .iter()
            .filter(|peer| !self.channel_keys.contains_key(peer))
            .map(|peer| (*peer, self.u1[peer].0))
            .unzip();
        let keys = self.c_kp.agree_many(&c_pks);
        #[cfg(test)]
        {
            self.agreements += keys.len();
        }
        self.channel_keys.extend(missing.into_iter().zip(keys));
    }

    // ------------------------------------------------------------------
    // Stage 0: AdvertiseKeys.
    // ------------------------------------------------------------------

    /// Produces the key advertisement.
    pub fn advertise_keys(&mut self) -> Result<AdvertisedKeys, SecAggError> {
        self.check_live()?;
        let signature = self.identity.as_ref().map(|ident| {
            let mut msg = Vec::with_capacity(64);
            msg.extend_from_slice(&self.c_kp.public);
            msg.extend_from_slice(&self.s_kp.public);
            ident.signing.sign(&msg)
        });
        Ok(AdvertisedKeys {
            client: self.id,
            c_pk: self.c_kp.public,
            s_pk: self.s_kp.public,
            signature,
        })
    }

    // ------------------------------------------------------------------
    // Stage 1: ShareKeys.
    // ------------------------------------------------------------------

    /// Consumes the broadcast roster; returns encrypted share bundles for
    /// every masking neighbor.
    pub fn share_keys<R: Rng>(
        &mut self,
        roster: &[AdvertisedKeys],
        rng: &mut R,
    ) -> Result<Vec<EncryptedShares>, SecAggError> {
        self.check_live()?;
        if roster.len() < self.params.threshold {
            return Err(self.abort(format!("|U1| = {} < t", roster.len())));
        }
        // All public keys must be distinct (Figure 5 assertion).
        if !keys_distinct(roster) {
            return Err(self.abort("duplicate public keys in roster"));
        }
        // Verify identity signatures in the malicious model.
        if let Some(ident) = &self.identity {
            for adv in roster {
                let vk = ident.registry.get(&adv.client).ok_or_else(|| {
                    SecAggError::Config(format!("no PKI entry for {}", adv.client))
                })?;
                let sig = adv
                    .signature
                    .as_ref()
                    .ok_or_else(|| self_abort_err(self.id, "missing roster signature"))?;
                let mut msg = Vec::with_capacity(64);
                msg.extend_from_slice(&adv.c_pk);
                msg.extend_from_slice(&adv.s_pk);
                if vk.verify(&msg, sig).is_err() {
                    return Err(self.abort(format!("bad roster signature from {}", adv.client)));
                }
            }
        }
        // Every id must be sampled; of U1 only the holder set is kept.
        let n = self.params.clients.len();
        let my_idx = self.index_of(self.id).expect("own id sampled");
        let holders = self.params.graph.holders(n, my_idx);
        for adv in roster {
            let Some(idx) = self.index_of(adv.client) else {
                return Err(self.abort(format!("roster contains unsampled id {}", adv.client)));
            };
            if holders.binary_search(&idx).is_ok() {
                self.u1.insert(adv.client, (adv.c_pk, adv.s_pk));
            }
        }
        if !self.u1.contains_key(&self.id) {
            return Err(self.abort("own advertisement missing from roster"));
        }

        // Determine recipients: masking-graph neighbors that are in U1.
        let u1_holders: Vec<ClientId> = self.u1.keys().copied().collect();
        let recipients = self.neighbors_in(&u1_holders);
        if recipients.is_empty() && roster.iter().any(|adv| adv.client != self.id) {
            return Err(self.abort("no live masking neighbors"));
        }

        // Shamir-share s_sk, b, and the noise seeds — indexed by
        // **neighborhood position**, not global roster index. Shares of a
        // client's secrets only ever reach (and return from) its holder
        // set `{self} ∪ neighbors`, so x-coordinates need only be unique
        // within that set: shares are evaluated at the local coordinates
        // `1..=degree+1`, recipient `v` getting the slot at `v`'s position
        // in the sorted holder list. The server's per-owner share pooling
        // is oblivious to the mapping (shares carry `x` on the wire), and
        // under the complete graph the holder list is the full roster so
        // the local x equals the historical global one bit-for-bit. This
        // cuts share generation from `O(n)` to `O(degree)` evaluations
        // per secret and frees the roster size from GF(256): only
        // `degree + 1 ≤ 255` is required (enforced by `validate`).
        // The client keeps its own b-share (it will return it at
        // Unmasking, per Figure 5's `b_{v,u}` for all `v ∈ U3`). The
        // effective threshold is capped at the masking-graph degree so
        // sparse-graph (SecAgg+) reconstruction remains possible.
        let local_slot = |idx: usize| holders.binary_search(&idx).ok();
        let t = crate::share_threshold(&self.params);
        let sk_shares = shamir::share(&self.s_kp.secret, t, holders.len(), rng)?;
        let b_shares = shamir::share(&self.b_seed, t, holders.len(), rng)?;
        let own_slot = local_slot(my_idx).expect("owner in holder set");
        self.own_b_share = Some(b_shares[own_slot].clone());
        let mut seed_share_lists: Vec<Vec<Share>> = Vec::new();
        if !self.input.noise_seeds.is_empty() {
            for seed in &self.input.noise_seeds[1..] {
                seed_share_lists.push(shamir::share(seed, t, holders.len(), rng)?);
            }
        }

        self.agree_channel_keys(&recipients);
        let mut out = Vec::with_capacity(recipients.len());
        for &to in recipients.iter() {
            let slot = self
                .index_of(to)
                .and_then(local_slot)
                .ok_or_else(|| SecAggError::Config(format!("unknown recipient {to}")))?;
            debug_assert_eq!(sk_shares[slot].x, (slot + 1) as u8);
            let bundle = ShareBundle {
                from: self.id,
                to,
                sk_share: sk_shares[slot].clone(),
                b_share: b_shares[slot].clone(),
                seed_shares: seed_share_lists.iter().map(|l| l[slot].clone()).collect(),
            };
            let key = self.channel_keys[&to];
            let aad = aad_for(self.params.round, self.id, to);
            let ciphertext = aead::seal(&key, &aad, &bundle.encode(), rng);
            out.push(EncryptedShares {
                from: self.id,
                to,
                ciphertext,
            });
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Stage 2: MaskedInputCollection.
    // ------------------------------------------------------------------

    /// Consumes routed ciphertexts and starts the stage: the routing,
    /// U2 and quorum checks and the one key agreement per live neighbor
    /// happen here, once; the returned cursor then produces `y_u` one
    /// chunk at a time, so a sender can put chunk `c` on the wire
    /// before chunk `c + 1` has been masked (paper §4's client half).
    pub fn begin_masked_input(
        &mut self,
        ciphertexts: Vec<EncryptedShares>,
    ) -> Result<MaskedInputCursor<'_>, SecAggError> {
        self.check_live()?;
        for ct in ciphertexts {
            if ct.to != self.id {
                return Err(self.abort("misrouted ciphertext"));
            }
            // Only a neighbour in U1 shares keys with this client: no
            // other sender has a channel key or a mask here.
            if ct.from == self.id || !self.u1.contains_key(&ct.from) {
                return Err(self.abort(format!(
                    "ciphertext from {}, who is not a neighbour in U1",
                    ct.from
                )));
            }
            self.inbox.insert(ct.from, ct.ciphertext);
        }
        // U2 is inferred from the senders, plus ourselves.
        let mut u2: Vec<ClientId> = self.inbox.keys().copied().collect();
        u2.push(self.id);
        u2.sort_unstable();
        u2.dedup();
        // In sparse graphs a client only hears from its neighbors, so the
        // threshold check is against neighbor count when the graph is
        // sparse; Figure 5's |U2| >= t check applies to the complete graph.
        let min_live = self.min_live_neighbors();
        if self.inbox.len() < min_live {
            return Err(self.abort(format!(
                "only {} ciphertexts received, need {min_live}",
                self.inbox.len()
            )));
        }
        self.u2 = u2;

        // Pairwise masks with every live neighbor: one `agree_many`
        // under `s_sk`.
        let neighbors = self.neighbors_in(&self.u2);
        let s_pks: Vec<[u8; 32]> = neighbors.iter().map(|v| self.u1[v].1).collect();
        let pairwise: Vec<([u8; 32], bool)> = self
            .s_kp
            .agree_many(&s_pks)
            .into_iter()
            .zip(&neighbors)
            .map(|(s_uv, &v)| (s_uv, self.id > v))
            .collect();
        #[cfg(test)]
        {
            self.agreements += pairwise.len();
        }
        Ok(MaskedInputCursor {
            client: self.id,
            bit_width: self.params.bit_width,
            input: &self.input.vector,
            b_seed: &self.b_seed,
            pairwise,
        })
    }

    /// Consumes routed ciphertexts; returns the masked input `y_u` —
    /// the single-chunk walk of [`Client::begin_masked_input`].
    pub fn masked_input(
        &mut self,
        ciphertexts: Vec<EncryptedShares>,
    ) -> Result<MaskedInput, SecAggError> {
        let len = self.params.vector_len;
        Ok(self.begin_masked_input(ciphertexts)?.chunk(0..len))
    }

    /// Minimum ciphertexts a client must receive before proceeding: `t-1`
    /// in the complete graph, a 2/3 quorum of its degree in sparse graphs.
    fn min_live_neighbors(&self) -> usize {
        let n = self.params.clients.len();
        let deg = self.params.graph.degree(n);
        if deg + 1 >= n {
            self.params.threshold.saturating_sub(1)
        } else {
            (2 * deg).div_ceil(3)
        }
    }

    // ------------------------------------------------------------------
    // Stage 3: ConsistencyCheck (malicious model).
    // ------------------------------------------------------------------

    /// Signs the broadcast U3 set.
    pub fn consistency_check(
        &mut self,
        u3: &[ClientId],
    ) -> Result<ConsistencySignature, SecAggError> {
        self.check_live()?;
        self.accept_u3(u3)?;
        let ident = self
            .identity
            .as_ref()
            .ok_or_else(|| SecAggError::Config("consistency check requires identity".into()))?;
        let signature = ident.signing.sign(&u3_message(self.params.round, u3));
        Ok(ConsistencySignature {
            client: self.id,
            signature,
        })
    }

    fn accept_u3(&mut self, u3: &[ClientId]) -> Result<(), SecAggError> {
        if u3.len() < self.params.threshold {
            return Err(self.abort(format!("|U3| = {} < t", u3.len())));
        }
        if !u3.contains(&self.id) {
            return Err(self.abort("excluded from U3 despite having responded"));
        }
        // Subset check: a client can only vouch for ids it actually heard
        // from, which in a sparse masking graph is its neighborhood. Every
        // claimed survivor within our neighborhood must have shared keys
        // with us; ids outside the neighborhood are other clients'
        // responsibility.
        let n = self.params.clients.len();
        let my_idx = self.index_of(self.id).expect("own id sampled");
        for &v in u3 {
            let Some(vi) = self.index_of(v) else {
                return Err(self.abort(format!("U3 contains unsampled id {v}")));
            };
            if v != self.id
                && self.params.graph.are_neighbors(n, my_idx, vi)
                && !self.u2.contains(&v)
            {
                return Err(self.abort("U3 not a subset of U2 within neighborhood"));
            }
        }
        let mut sorted = u3.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != u3.len() {
            return Err(self.abort("duplicate ids in U3"));
        }
        self.u3 = sorted;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Stage 4: Unmasking.
    // ------------------------------------------------------------------

    /// Produces the unmasking response.
    ///
    /// In the semi-honest model, `u3` is the server's broadcast of
    /// surviving clients and `signatures` is `None`. In the malicious
    /// model, `u3` is the set fixed at `consistency_check` and
    /// `signatures` carries `{(v, ω'_v)}` for `v ∈ U4`, which must verify
    /// over `round ‖ U3` against the PKI — the defence against a server
    /// understating dropout (§3.3).
    pub fn unmask(
        &mut self,
        u3: &[ClientId],
        signatures: Option<&[(ClientId, Signature)]>,
    ) -> Result<UnmaskingResponse, SecAggError> {
        self.check_live()?;
        match self.params.threat_model {
            ThreatModel::SemiHonest => {
                self.accept_u3(u3)?;
            }
            ThreatModel::Malicious => {
                // U3 was fixed at consistency_check; the server's claim
                // must match and carry >= t valid signatures over it.
                if self.u3.is_empty() {
                    return Err(self.abort("unmask before consistency check"));
                }
                let mut claimed = u3.to_vec();
                claimed.sort_unstable();
                if claimed != self.u3 {
                    return Err(self.abort("server's U3 differs from the signed set"));
                }
                let sigs = signatures
                    .ok_or_else(|| self_abort_err(self.id, "missing consistency signatures"))?;
                if sigs.len() < self.params.threshold {
                    self.aborted = true;
                    return Err(SecAggError::ClientAbort {
                        client: self.id,
                        reason: format!("|U4| = {} < t", sigs.len()),
                    });
                }
                let ident = self
                    .identity
                    .as_ref()
                    .expect("malicious model has identity");
                let msg = u3_message(self.params.round, &self.u3);
                let mut u4 = Vec::with_capacity(sigs.len());
                for (v, sig) in sigs {
                    if !self.u3.contains(v) {
                        return Err(self.abort("U4 not a subset of U3"));
                    }
                    let vk = ident
                        .registry
                        .get(v)
                        .ok_or_else(|| SecAggError::Config(format!("no PKI entry for {v}")))?;
                    if vk.verify(&msg, sig).is_err() {
                        return Err(self.abort(format!("invalid consistency signature from {v}")));
                    }
                    u4.push(*v);
                }
                self.u4 = u4;
            }
        }

        // Decrypt every received bundle, verifying addressing.
        let mut bundles: BTreeMap<ClientId, ShareBundle> = BTreeMap::new();
        let inbox = std::mem::take(&mut self.inbox);
        for (&from, ct) in inbox.iter() {
            let key = self.channel_key(from);
            let aad = aad_for(self.params.round, from, self.id);
            let plain = match aead::open(&key, &aad, ct) {
                Ok(p) => p,
                Err(_) => return Err(self.abort(format!("ciphertext from {from} failed AEAD"))),
            };
            let bundle = ShareBundle::decode(&plain)
                .ok_or_else(|| self_abort_err(self.id, "malformed share bundle"))?;
            if bundle.from != from || bundle.to != self.id {
                return Err(self.abort("share bundle addressing mismatch"));
            }
            bundles.insert(from, bundle);
        }
        self.inbox = inbox;

        // Respond: s_sk shares for dropped (U2 \ U3), b shares for alive
        // (U3), own seeds for the removal range.
        let u3 = self.u3.clone();
        let mut sk_shares = Vec::new();
        let mut b_shares = Vec::new();
        // Own share of own b (we are in U3, or we would not be here).
        if let Some(own) = self.own_b_share.clone() {
            b_shares.push((self.id, own));
        }
        for (&from, bundle) in bundles.iter() {
            if u3.contains(&from) {
                b_shares.push((from, bundle.b_share.clone()));
            } else {
                sk_shares.push((from, bundle.sk_share.clone()));
            }
        }
        let own_seeds = self.removal_seed_range().map_or_else(Vec::new, |range| {
            range
                .map(|k| (k, self.input.noise_seeds[k]))
                .collect::<Vec<_>>()
        });
        self.bundles = bundles;
        Ok(UnmaskingResponse {
            client: self.id,
            sk_shares,
            b_shares,
            own_seeds,
        })
    }

    /// The XNoise component indices to reveal: `|U \ U3| + 1 ..= T`.
    fn removal_seed_range(&self) -> Option<std::ops::RangeInclusive<usize>> {
        if self.input.noise_seeds.is_empty() {
            return None;
        }
        let t_cap = self.params.noise_components;
        let dropped = self.params.clients.len() - self.u3.len();
        if dropped >= t_cap {
            return None;
        }
        Some((dropped + 1)..=t_cap)
    }

    // ------------------------------------------------------------------
    // Stage 5: ExcessiveNoiseRemoval.
    // ------------------------------------------------------------------

    /// Returns shares of noise seeds owned by clients in `U3 \ U5` (those
    /// whose masked input is in the sum but who dropped before reporting
    /// their own seeds), read from the bundles `unmask` decrypted.
    pub fn noise_shares(&mut self, u5: &[ClientId]) -> Result<NoiseShareResponse, SecAggError> {
        self.check_live()?;
        if u5.len() < self.params.threshold {
            return Err(self.abort(format!("|U5| = {} < t", u5.len())));
        }
        if !u5.iter().all(|v| self.u3.contains(v)) {
            return Err(self.abort("U5 not a subset of U3"));
        }
        let range = match self.removal_seed_range() {
            Some(r) => r,
            None => {
                return Ok(NoiseShareResponse {
                    client: self.id,
                    seed_shares: Vec::new(),
                })
            }
        };
        let mut seed_shares = Vec::new();
        for (&from, bundle) in &self.bundles {
            if !self.u3.contains(&from) || u5.contains(&from) {
                continue;
            }
            for k in range.clone() {
                if let Some(share) = bundle.seed_shares.get(k - 1) {
                    seed_shares.push((from, k, share.clone()));
                }
            }
        }
        Ok(NoiseShareResponse {
            client: self.id,
            seed_shares,
        })
    }
}

/// A started MaskedInputCollection stage
/// ([`Client::begin_masked_input`]): the client's input and the seed of
/// every mask it carries, from which any range of `y_u` can be produced
/// independently. Addition in `Z_{2^b}` commutes and every mask stream
/// seeks, so the chunks of any partition, requested in any order,
/// concatenate to the whole-vector `y_u` bit for bit.
pub struct MaskedInputCursor<'a> {
    client: ClientId,
    bit_width: u32,
    input: &'a [u64],
    b_seed: &'a Seed,
    /// `(s_{u,v}, u > v)` per live neighbor `v`.
    pairwise: Vec<([u8; 32], bool)>,
}

impl MaskedInputCursor<'_> {
    /// Masks `input[range]`: strip-outer, mask-inner — the self mask and
    /// every pairwise mask are added to one `OUTER_STRIP` of the
    /// chunk before the next strip is touched.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not within the round's vector.
    #[must_use]
    pub fn chunk(&self, range: std::ops::Range<usize>) -> MaskedInput {
        let bits = self.bit_width;
        let start = range.start;
        let mut y = self.input[range].to_vec();
        let mut masks = Vec::with_capacity(self.pairwise.len() + 1);
        masks.push((mask::self_mask_prg_at(self.b_seed, bits, start), true));
        for (s_uv, positive) in &self.pairwise {
            masks.push((mask::pairwise_prg_at(s_uv, bits, start), *positive));
        }
        for strip in y.chunks_mut(OUTER_STRIP) {
            for (prg, positive) in &mut masks {
                mask::expand_and_add(prg, strip, *positive, bits);
            }
        }
        MaskedInput {
            client: self.client,
            vector: y,
            bit_width: bits,
        }
    }
}

fn self_abort_err(client: ClientId, reason: &str) -> SecAggError {
    SecAggError::ClientAbort {
        client,
        reason: reason.into(),
    }
}

/// True if no two of the roster's public keys are equal (Figure 5's
/// assertion): a sort of their 8-byte prefixes, and a comparison of
/// whole keys only among those whose prefixes tie.
fn keys_distinct(roster: &[AdvertisedKeys]) -> bool {
    let keys = || roster.iter().flat_map(|adv| [&adv.c_pk, &adv.s_pk]);
    let prefix = |key: &[u8; 32]| u64::from_le_bytes(key[..8].try_into().expect("8 bytes"));
    let mut prefixes: Vec<u64> = keys().map(prefix).collect();
    prefixes.sort_unstable();
    let tied: Vec<u64> = prefixes
        .windows(2)
        .filter(|w| w[0] == w[1])
        .map(|w| w[0])
        .collect();
    if tied.is_empty() {
        return true;
    }
    let mut suspects: Vec<&[u8; 32]> = keys()
        .filter(|key| tied.binary_search(&prefix(key)).is_ok())
        .collect();
    suspects.sort_unstable();
    suspects.windows(2).all(|w| w[0] != w[1])
}

/// AEAD associated data binding a ciphertext to (round, from, to).
fn aad_for(round: u64, from: ClientId, to: ClientId) -> Vec<u8> {
    let mut aad = Vec::with_capacity(16);
    aad.extend_from_slice(&round.to_le_bytes());
    aad.extend_from_slice(&from.to_le_bytes());
    aad.extend_from_slice(&to.to_le_bytes());
    aad
}

/// Message signed during the consistency check: `round ‖ sorted U3`.
pub(crate) fn u3_message(round: u64, u3: &[ClientId]) -> Vec<u8> {
    let mut sorted = u3.to_vec();
    sorted.sort_unstable();
    let mut msg = Vec::with_capacity(8 + 4 * sorted.len());
    msg.extend_from_slice(&round.to_le_bytes());
    for id in sorted {
        msg.extend_from_slice(&id.to_le_bytes());
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MaskingGraph;
    use rand::SeedableRng;

    fn params(n: u32, t: usize) -> RoundParams {
        RoundParams {
            round: 1,
            clients: (0..n).collect(),
            threshold: t,
            bit_width: 16,
            vector_len: 4,
            noise_components: 0,
            threat_model: ThreatModel::SemiHonest,
            graph: MaskingGraph::Complete,
        }
    }

    fn input(v: &[u64]) -> ClientInput {
        ClientInput {
            vector: v.to_vec(),
            noise_seeds: vec![],
        }
    }

    #[test]
    fn rejects_wrong_vector_length() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = Client::new(params(4, 3), 0, input(&[1, 2]), None, &mut rng);
        assert!(matches!(err, Err(SecAggError::Config(_))));
    }

    #[test]
    fn rejects_out_of_ring_coordinates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = Client::new(params(4, 3), 0, input(&[1, 2, 3, 1 << 20]), None, &mut rng);
        assert!(matches!(err, Err(SecAggError::Config(_))));
    }

    #[test]
    fn rejects_unsampled_client() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = Client::new(params(4, 3), 99, input(&[0; 4]), None, &mut rng);
        assert!(matches!(err, Err(SecAggError::Config(_))));
    }

    #[test]
    fn share_keys_needs_threshold_roster() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut c = Client::new(params(4, 3), 0, input(&[0; 4]), None, &mut rng).unwrap();
        let adv = c.advertise_keys().unwrap();
        let err = c.share_keys(&[adv], &mut rng);
        assert!(matches!(err, Err(SecAggError::ClientAbort { .. })));
    }

    #[test]
    fn duplicate_roster_keys_abort() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut a = Client::new(params(3, 2), 0, input(&[0; 4]), None, &mut rng).unwrap();
        let adv_a = a.advertise_keys().unwrap();
        let mut dup = adv_a.clone();
        dup.client = 1;
        let err = a.share_keys(&[adv_a, dup], &mut rng);
        assert!(matches!(err, Err(SecAggError::ClientAbort { .. })));
    }

    #[test]
    fn key_check_compares_whole_keys_on_prefix_ties() {
        let adv = |client, c_pk, s_pk| AdvertisedKeys {
            client,
            c_pk,
            s_pk,
            signature: None,
        };
        let key = |prefix: u8, tail: u8| {
            let mut k = [tail; 32];
            k[..8].fill(prefix);
            k
        };
        // Three keys share a prefix and differ after it: distinct.
        let tied = [
            adv(0, key(1, 1), key(2, 0)),
            adv(1, key(1, 2), key(3, 0)),
            adv(2, key(1, 3), key(4, 0)),
        ];
        assert!(keys_distinct(&tied));
        // The same key as one client's c_pk and another's s_pk, with
        // and without other keys on its prefix.
        let mut repeated = tied.to_vec();
        repeated[2].s_pk = repeated[0].c_pk;
        assert!(!keys_distinct(&repeated));
        repeated[1].c_pk = key(9, 9);
        assert!(!keys_distinct(&repeated));
        assert!(keys_distinct(&[]));
        assert!(!keys_distinct(&[adv(0, key(5, 5), key(5, 5))]));
    }

    #[test]
    fn u1_is_the_holder_set_of_the_roster() {
        for graph in [
            MaskingGraph::Harary { half_degree: 2 },
            MaskingGraph::Complete,
        ] {
            let p = RoundParams {
                graph,
                ..params(12, 3)
            };
            let mut clients: Vec<Client> = (0..12)
                .map(|id| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(id));
                    Client::new(p.clone(), id, input(&[0; 4]), None, &mut rng).unwrap()
                })
                .collect();
            let roster: Vec<AdvertisedKeys> = clients
                .iter_mut()
                .map(|c| c.advertise_keys().unwrap())
                .collect();
            for (i, c) in clients.iter_mut().enumerate() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(100 + i as u64);
                c.share_keys(&roster, &mut rng).unwrap();
                let held: Vec<usize> = c.u1.keys().map(|&id| id as usize).collect();
                assert_eq!(held, graph.holders(12, i), "{graph:?}, client {i}");
            }
        }
    }

    #[test]
    fn aborted_client_stays_aborted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut c = Client::new(params(4, 3), 0, input(&[0; 4]), None, &mut rng).unwrap();
        let adv = c.advertise_keys().unwrap();
        assert!(c.share_keys(&[adv], &mut rng).is_err());
        assert!(c.advertise_keys().is_err());
    }

    // ------------------------------------------------------------------
    // Once-per-pair key agreement, driven stage by stage the way
    // `driver::run_round` drives it (same rngs, same order), but keeping
    // the clients so their agreement counters can be read afterwards.
    // ------------------------------------------------------------------

    use crate::driver::{client_rng, share_keys_rng};
    use crate::server::Server;
    use crate::ChunkPlan;

    const SEED: u64 = 0x15_5eed;

    fn round(n: u32, t: usize, graph: MaskingGraph, noise_components: usize) -> RoundParams {
        RoundParams {
            graph,
            noise_components,
            ..params(n, t)
        }
    }

    struct Staged {
        clients: BTreeMap<ClientId, Client>,
        unmask: BTreeMap<ClientId, Result<UnmaskingResponse, SecAggError>>,
        /// Stage-5 responses; empty when the stage did not run.
        noise: Vec<NoiseShareResponse>,
    }

    /// Clients, server and routed inboxes of a semi-honest round that
    /// has finished ShareKeys; client `id` holds `input_for(id)`.
    fn staged_to_inboxes(
        params: &RoundParams,
        input_for: impl Fn(ClientId) -> Vec<u64>,
    ) -> (
        BTreeMap<ClientId, Client>,
        Server,
        BTreeMap<ClientId, Vec<EncryptedShares>>,
    ) {
        staged_to_inboxes_with(params, input_for, |_, _| {})
    }

    /// [`staged_to_inboxes`], with `before_share_keys` run on every client
    /// once the roster is known.
    fn staged_to_inboxes_with(
        params: &RoundParams,
        input_for: impl Fn(ClientId) -> Vec<u64>,
        before_share_keys: impl Fn(&mut Client, &[AdvertisedKeys]),
    ) -> (
        BTreeMap<ClientId, Client>,
        Server,
        BTreeMap<ClientId, Vec<EncryptedShares>>,
    ) {
        let mut clients = BTreeMap::new();
        for &id in &params.clients {
            let noise_seeds = if params.noise_components == 0 {
                vec![]
            } else {
                (0..=params.noise_components)
                    .map(|k| [(id as u8) ^ (k as u8) << 4; 32])
                    .collect()
            };
            let input = ClientInput {
                vector: input_for(id),
                noise_seeds,
            };
            let c = Client::new(params.clone(), id, input, None, &mut client_rng(SEED, id));
            clients.insert(id, c.unwrap());
        }
        let mut server = Server::new(params.clone()).unwrap();
        let advs = clients
            .values_mut()
            .map(|c| c.advertise_keys().unwrap())
            .collect();
        let roster = server.collect_advertisements(advs).unwrap();
        let mut cts = Vec::new();
        for (&id, c) in clients.iter_mut() {
            before_share_keys(c, &roster);
            cts.extend(
                c.share_keys(&roster, &mut share_keys_rng(SEED, id))
                    .unwrap(),
            );
        }
        let inboxes = server.route_shares(cts).unwrap();
        (clients, server, inboxes)
    }

    /// A semi-honest round in which `gone_before_masked` vanish just
    /// before MaskedInputCollection and `gone_before_unmask` just before
    /// Unmasking; `tamper` plays the network between ShareKeys and the
    /// clients' inboxes.
    fn drive(
        params: &RoundParams,
        gone_before_masked: &[ClientId],
        gone_before_unmask: &[ClientId],
        tamper: impl FnOnce(&mut BTreeMap<ClientId, Vec<EncryptedShares>>),
    ) -> Staged {
        let (mut clients, mut server, mut inboxes) =
            staged_to_inboxes(params, |id| vec![u64::from(id) + 1; params.vector_len]);
        tamper(&mut inboxes);
        let mut masked = Vec::new();
        for (&id, c) in clients.iter_mut() {
            if !gone_before_masked.contains(&id) {
                let inbox = inboxes.remove(&id).unwrap_or_default();
                masked.push(c.masked_input(inbox).unwrap());
            }
        }
        server.collect_masked_chunk(0, masked).unwrap();
        let u3 = server.finalize_masked().unwrap();
        let mut unmask = BTreeMap::new();
        for &id in u3.iter().filter(|id| !gone_before_unmask.contains(id)) {
            unmask.insert(id, clients.get_mut(&id).unwrap().unmask(&u3, None));
        }
        let responses = unmask.values().filter_map(|r| r.clone().ok()).collect();
        server.reconstruct_unmasking(responses).unwrap();
        server.unmask_chunk(0).unwrap();
        let u5 = server.u5().to_vec();
        let mut noise = Vec::new();
        if !server.pending_seed_owners().is_empty() {
            for id in &u5 {
                noise.push(clients.get_mut(id).unwrap().noise_shares(&u5).unwrap());
            }
            server.collect_noise_shares(noise.clone()).unwrap();
        }
        // The round must still aggregate: everyone in U3 is in the sum.
        let outcome = server.finish();
        let want: u64 = u3.iter().map(|&id| u64::from(id) + 1).sum();
        assert_eq!(outcome.sum, vec![want; params.vector_len]);
        Staged {
            clients,
            unmask,
            noise,
        }
    }

    /// Every client that answered Unmasking made exactly `2 · degree`
    /// agreements: one per neighbor for the channel key, one per
    /// neighbor for the pairwise mask.
    fn assert_two_agreements_per_neighbor(staged: &Staged, degree: usize) {
        assert!(!staged.unmask.is_empty());
        for (id, r) in &staged.unmask {
            assert!(r.is_ok(), "client {id}: {r:?}");
            let c = &staged.clients[id];
            assert_eq!(c.agreements, 2 * degree, "client {id}");
            assert_eq!(c.channel_keys.len(), degree, "client {id}");
        }
    }

    #[test]
    fn complete_graph_round_agrees_twice_per_neighbor() {
        let p = round(6, 4, MaskingGraph::Complete, 0);
        let staged = drive(&p, &[], &[], |_| {});
        assert_eq!(staged.unmask.len(), 6);
        assert_two_agreements_per_neighbor(&staged, 5);
    }

    #[test]
    fn harary_round_agrees_twice_per_neighbor() {
        let graph = MaskingGraph::Harary { half_degree: 3 };
        let p = round(12, 4, graph, 0);
        assert_eq!(graph.degree(12), 6);
        // One dropout after ShareKeys: its neighbors still hold its
        // ciphertext and still mask against it.
        let staged = drive(&p, &[5], &[], |_| {});
        assert_eq!(staged.unmask.len(), 11);
        assert_two_agreements_per_neighbor(&staged, 6);
    }

    /// An XNoise round that reaches ExcessiveNoiseRemoval: client 1 drops
    /// before its masked input (so components 2..=3 are removed) and
    /// client 6 after it (so the survivors must hand over shares of its
    /// seeds).
    fn xnoise_round_with_droppers() -> Staged {
        drive(&round(8, 5, MaskingGraph::Complete, 3), &[1], &[6], |_| {})
    }

    #[test]
    fn xnoise_round_with_noise_shares_agrees_twice_per_neighbor() {
        let staged = xnoise_round_with_droppers();
        assert_eq!(staged.unmask.len(), 6);
        assert_eq!(staged.noise.len(), 6);
        assert!(staged.noise.iter().all(|r| r.seed_shares.len() == 2));
        assert_two_agreements_per_neighbor(&staged, 7);
    }

    #[test]
    fn noise_shares_match_the_decrypt_again_implementation() {
        // SHA-256 over every response's (client, owner, k, x, y), taken
        // from this exact round when `noise_shares` still agreed on the
        // channel key and opened each inbox ciphertext a second time.
        let mut bytes = Vec::new();
        for r in xnoise_round_with_droppers().noise {
            for (owner, k, share) in r.seed_shares {
                bytes.extend_from_slice(&r.client.to_le_bytes());
                bytes.extend_from_slice(&owner.to_le_bytes());
                bytes.push(k as u8);
                bytes.push(share.x);
                bytes.extend_from_slice(&share.y);
            }
        }
        let digest: String = dordis_crypto::sha256::sha256(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            digest,
            "9ed2ece2db8fb597816ad9d4cadef901fcb439f2253e4e8f18932dd5ff845dee"
        );
    }

    #[test]
    fn corrupted_inbox_ciphertext_still_aborts_in_unmask() {
        let p = round(6, 4, MaskingGraph::Complete, 0);
        let staged = drive(&p, &[], &[], |inboxes| {
            let ct = inboxes
                .get_mut(&2)
                .and_then(|cts| cts.iter_mut().find(|ct| ct.from == 4))
                .unwrap();
            *ct.ciphertext.last_mut().unwrap() ^= 1;
        });
        for (id, r) in &staged.unmask {
            match r {
                Err(SecAggError::ClientAbort { client, reason }) => {
                    assert_eq!((*id, *client), (2, 2));
                    assert_eq!(reason, "ciphertext from 4 failed AEAD");
                }
                other => assert!(*id != 2 && other.is_ok(), "client {id}: {other:?}"),
            }
        }
        assert!(staged.unmask[&2].is_err());
        assert!(staged.clients[&2].aborted);
    }

    /// The whole-vector, one-pass-per-mask loop `masked_input` ran
    /// before the cursor existed — what every chunk must be a slice of.
    fn whole_vector_oracle(cursor: &MaskedInputCursor<'_>) -> Vec<u64> {
        let bits = cursor.bit_width;
        let mut y = cursor.input.to_vec();
        mask::add_self_mask_assign(&mut y, cursor.b_seed, 0, true, bits);
        for (s_uv, positive) in &cursor.pairwise {
            mask::add_pairwise_mask_assign(&mut y, s_uv, 0, *positive, bits);
        }
        y
    }

    #[test]
    fn cursor_chunks_are_slices_of_the_whole_vector_masking() {
        // Three outer strips and a ragged tail.
        let dim = 3 * OUTER_STRIP + 1000;
        let graphs = [
            (6u32, MaskingGraph::Complete),
            (9, MaskingGraph::Harary { half_degree: 2 }),
        ];
        // 32 / 33 bits sit on the two sides of the PRG lane boundary.
        for bits in [16u32, 20, 32, 33, 62] {
            for (n, graph) in graphs {
                let p = RoundParams {
                    bit_width: bits,
                    vector_len: dim,
                    ..round(n, 4, graph, 0)
                };
                let ring = p.ring_mask();
                let (mut clients, _, mut inboxes) = staged_to_inboxes(&p, |id| {
                    (0..dim as u64)
                        .map(|i| (u64::from(id) * 1009 + i * 31 + 7) & ring)
                        .collect()
                });
                let degree = graph.degree(n as usize);
                for (&id, c) in clients.iter_mut() {
                    let cursor = c.begin_masked_input(inboxes.remove(&id).unwrap()).unwrap();
                    let want = whole_vector_oracle(&cursor);
                    assert_ne!(want, cursor.input, "masked at all");
                    let mut partitions: Vec<Vec<std::ops::Range<usize>>> = [1usize, 2, 4, 8]
                        .iter()
                        .map(|&m| {
                            let plan = ChunkPlan::aligned(dim, m, bits).unwrap();
                            assert_eq!(plan.chunks(), m);
                            (0..m).map(|c| plan.range(c)).collect()
                        })
                        .collect();
                    // Chunk starts on neither a strip nor a PRG block.
                    partitions.push(vec![0..1, 1..OUTER_STRIP + 1, OUTER_STRIP + 1..dim]);
                    for ranges in partitions {
                        let mut in_order = Vec::with_capacity(dim);
                        for r in &ranges {
                            let part = cursor.chunk(r.clone());
                            assert_eq!((part.client, part.bit_width), (id, bits));
                            in_order.extend(part.vector);
                        }
                        assert_eq!(in_order, want, "bits {bits}, {graph:?}, {ranges:?}");
                        let mut reversed = vec![0u64; dim];
                        for r in ranges.iter().rev() {
                            reversed[r.clone()].copy_from_slice(&cursor.chunk(r.clone()).vector);
                        }
                        assert_eq!(reversed, want, "reversed; bits {bits}, {graph:?}");
                    }
                    // One agreement per neighbor at `begin`, none per chunk.
                    assert_eq!(cursor.pairwise.len(), degree);
                    assert_eq!(c.agreements, 2 * degree, "client {id}");
                }
            }
        }
    }

    /// The masking graph's degrees on both sides of every batch shape of
    /// `agree_many` (one padded batch of 3 and of 4, one full batch, a
    /// full batch and a scalar tail, three batches), each round built twice:
    /// as shipped, and with every key agreed one `agree` at a time — the
    /// channel keys through the cache-miss path `channel_key`, before
    /// `share_keys` can batch them, the pairwise keys here.
    #[test]
    fn batched_agreements_build_the_round_agree_alone_builds() {
        let complete = MaskingGraph::Complete;
        let harary = |half_degree| MaskingGraph::Harary { half_degree };
        let shapes = [
            (4u32, complete, 3usize),
            (9, harary(2), 4),
            (12, harary(4), 8),
            (10, complete, 9),
            (24, harary(10), 20),
        ];
        for (n, graph, degree) in shapes {
            assert_eq!(graph.degree(n as usize), degree);
            let p = round(n, 3, graph, 0);
            let input_for = |id: ClientId| vec![u64::from(id) + 1; 4];
            let (mut clients, mut server, mut inboxes) = staged_to_inboxes(&p, input_for);
            let (oracle, _, oracle_inboxes) = staged_to_inboxes_with(&p, input_for, |c, roster| {
                for adv in roster {
                    c.u1.insert(adv.client, (adv.c_pk, adv.s_pk));
                }
                let u1: Vec<ClientId> = c.u1.keys().copied().collect();
                for v in c.neighbors_in(&u1) {
                    c.channel_key(v);
                }
            });
            assert_eq!(inboxes, oracle_inboxes, "degree {degree}: ciphertexts");
            assert_eq!(
                inboxes.values().map(Vec::len).sum::<usize>(),
                n as usize * degree
            );

            let mut masked = Vec::new();
            for (&id, c) in clients.iter_mut() {
                let (s_kp, u1) = (c.s_kp.clone(), c.u1.clone());
                let cursor = c.begin_masked_input(inboxes.remove(&id).unwrap()).unwrap();
                let want: Vec<([u8; 32], bool)> = oracle[&id]
                    .neighbors_in(&u1.keys().copied().collect::<Vec<_>>())
                    .into_iter()
                    .map(|v| (s_kp.agree(&u1[&v].1), id > v))
                    .collect();
                assert_eq!(cursor.pairwise, want, "degree {degree}: client {id}");
                masked.push(cursor.chunk(0..4));
                assert_eq!(c.agreements, 2 * degree);
                assert_eq!(oracle[&id].agreements, degree);
            }
            server.collect_masked_chunk(0, masked).unwrap();
            let u3 = server.finalize_masked().unwrap();
            let responses = u3
                .iter()
                .map(|id| clients.get_mut(id).unwrap().unmask(&u3, None).unwrap())
                .collect();
            server.reconstruct_unmasking(responses).unwrap();
            server.unmask_chunk(0).unwrap();
            let want = u64::from(n) * (u64::from(n) + 1) / 2;
            assert_eq!(server.finish().sum, vec![want; 4], "degree {degree}");
        }
    }

    /// `neighbors_in` before the id → index map: one scan of `live`, two
    /// of `clients` per entry.
    fn neighbors_in_reference(c: &Client, live: &[ClientId]) -> Vec<ClientId> {
        let position = |id| c.params.clients.iter().position(|&x| x == id);
        let (n, me) = (c.params.clients.len(), position(c.id).unwrap());
        live.iter()
            .copied()
            .filter(|&v| {
                v != c.id && position(v).is_some_and(|vi| c.params.graph.are_neighbors(n, me, vi))
            })
            .collect()
    }

    #[test]
    fn neighbors_come_in_ascending_id_order_on_an_unsorted_cohort() {
        // Index order is not id order, so walking the graph's neighbor
        // indices yields ids out of order; share slots, the `pairwise`
        // order and with them every frame need them ascending.
        let ids: Vec<ClientId> = vec![40, 7, 19, 3, 88, 61, 12, 5, 30, 2, 77];
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        let without = |gone: &[ClientId]| -> Vec<ClientId> {
            sorted
                .iter()
                .copied()
                .filter(|v| !gone.contains(v))
                .collect()
        };
        let lives = [
            sorted.clone(),
            without(&[3, 88]),
            without(&[40, 7, 19, 61, 2]),
            vec![],
        ];
        for graph in [
            MaskingGraph::Complete,
            MaskingGraph::Harary { half_degree: 2 },
        ] {
            for &id in &ids {
                let p = RoundParams {
                    clients: ids.clone(),
                    ..round(0, 4, graph, 0)
                };
                let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(id));
                let c = Client::new(p, id, input(&[0; 4]), None, &mut rng).unwrap();
                for live in &lives {
                    let got = c.neighbors_in(live);
                    assert_eq!(
                        got,
                        neighbors_in_reference(&c, live),
                        "{graph:?}, client {id}"
                    );
                    assert!(got.windows(2).all(|w| w[0] < w[1]));
                }
                assert_eq!(c.neighbors_in(&sorted).len(), graph.degree(ids.len()));
            }
        }
    }

    #[test]
    fn masked_input_is_the_single_chunk_walk() {
        let p = round(6, 4, MaskingGraph::Complete, 0);
        let (mut clients, _, inboxes) = staged_to_inboxes(&p, |id| vec![u64::from(id); 4]);
        let c = clients.get_mut(&3).unwrap();
        let whole = c.masked_input(inboxes[&3].clone()).unwrap();
        let cursor = c.begin_masked_input(inboxes[&3].clone()).unwrap();
        assert_eq!(whole.vector, whole_vector_oracle(&cursor));
        assert_eq!(whole, cursor.chunk(0..4));
    }

    #[test]
    fn u3_message_is_order_invariant() {
        assert_eq!(u3_message(5, &[3, 1, 2]), u3_message(5, &[1, 2, 3]));
        assert_ne!(u3_message(5, &[1, 2]), u3_message(6, &[1, 2]));
    }
}
