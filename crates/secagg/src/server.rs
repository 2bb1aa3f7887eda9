//! The server-side protocol state machine.
//!
//! The server is an untrusted router plus aggregator: it never sees an
//! individual update in the clear, and the state machine is written so a
//! test can verify the crucial invariant that the server never holds both
//! `b_u` and `s^SK_u` for the same client (which would let it unmask a
//! single client's input).
//!
//! ## Chunked data plane
//!
//! The data plane is partitioned by a [`ChunkPlan`] (paper §4.1):
//! masked inputs arrive per chunk, as the wire carries them
//! ([`Server::collect_masked_packed`]: the chunk's elements bit-packed
//! at the ring width; [`Server::collect_masked_chunk`] packs decoded
//! vectors and delegates), and fold into one full-length running sum,
//! and each chunk's range of that sum is unmasked on its own
//! ([`Server::unmask_chunk`]), which expands exactly that range of
//! every mask stream to cancel. Key/share/consistency state stays
//! **round-global** — only the data-plane stages pipeline, exactly as
//! in the paper. The in-memory driver runs the same methods on the
//! single-chunk plan [`Server::new`] builds; with any plan the sum
//! equals the whole-vector computation because every mask operation is
//! coordinate-wise.
//!
//! ## Custody at ring width
//!
//! Dropout resilience makes the server hold the early chunks of every
//! incomplete stream: a client's input may enter the sum only once its
//! whole stream has arrived. Those chunks wait as their wire payloads,
//! and nothing else is held at more than the ring's width: the running
//! sum is a `u32` per element for rings of up to 32 bits (a `u64`
//! above), masks are expanded into it in that word, and
//! [`Server::finish`] widens it once into [`RoundOutcome::sum`]. No
//! chunk is ever decoded into a vector of its own.
//! [`Server::custody_bytes`] is the parked payloads plus the sum.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use dordis_crypto::ed25519::Signature;
use dordis_crypto::ka::KeyPair;
use dordis_crypto::prg::{Prg, Seed};
use dordis_crypto::shamir::{self, Share};
use dordis_crypto::x25519;

use crate::messages::{
    AdvertisedKeys, ConsistencySignature, EncryptedShares, MaskedInput, NoiseShareResponse,
    UnmaskingResponse,
};
use crate::{mask, pack, share_threshold, ChunkPlan, ClientId, RoundParams, SecAggError};

/// The result of a completed aggregation round.
#[derive(Clone, Debug)]
pub struct RoundOutcome {
    /// The unmasked sum `Σ_{u ∈ U3} Δ̃_u` in `Z_{2^b}`.
    pub sum: Vec<u64>,
    /// Clients whose inputs are in the sum (U3).
    pub survivors: Vec<ClientId>,
    /// Sampled clients missing from the sum (`U \ U3`).
    pub dropped: Vec<ClientId>,
    /// Every XNoise seed available for excessive-noise removal:
    /// `(owner ∈ U3, component k, seed g_{owner,k})`.
    pub removal_seeds: Vec<(ClientId, usize, Seed)>,
    /// Ring bit width of `sum`.
    pub bit_width: u32,
}

/// A mask stream left in the sum: the seeking constructor of its PRG
/// domain ([`mask::self_mask_prg_at`] or [`mask::pairwise_prg_at`]), its
/// seed, and the sign that cancels it.
type Cancel = (fn(&Seed, u32, usize) -> Prg, Seed, bool);

/// The running sum in the narrowest word that holds the ring, chosen
/// once per round: a `u32` halves the sum's memory and widens nothing
/// for every ring up to 32 bits.
enum RingSum {
    /// Rings of at most 32 bits.
    Narrow(Vec<u32>),
    /// Rings of 33 to 62 bits.
    Wide(Vec<u64>),
}

/// Runs `$body` with `$words` bound to the sum's word vector, whichever
/// word it is held in.
macro_rules! with_words {
    ($sum:expr, $words:ident => $body:expr) => {
        match $sum {
            RingSum::Narrow($words) => $body,
            RingSum::Wide($words) => $body,
        }
    };
}

impl RingSum {
    fn new(len: usize, bits: u32) -> RingSum {
        if bits <= u32::BITS {
            RingSum::Narrow(vec![0; len])
        } else {
            RingSum::Wide(vec![0; len])
        }
    }

    fn bytes(&self) -> usize {
        with_words!(self, words => std::mem::size_of_val(words.as_slice()))
    }

    /// `sum[range] += the packed elements (mod 2^bits)`.
    fn unpack_add(&mut self, range: Range<usize>, packed: &[u8], bits: u32) {
        with_words!(self, words => pack::unpack_add(packed, bits, &mut words[range]));
    }

    /// Adds every stream in `streams` to `sum[range]`, strip-outer and
    /// mask-inner; each stream must be positioned at `range.start`.
    fn cancel(&mut self, range: Range<usize>, streams: &mut [(Prg, bool)], bits: u32) {
        with_words!(self, words => {
            for strip in words[range].chunks_mut(mask::OUTER_STRIP) {
                for (prg, positive) in streams.iter_mut() {
                    mask::expand_and_add(prg, strip, *positive, bits);
                }
            }
        });
    }

    fn zero(&mut self, range: Range<usize>) {
        with_words!(self, words => words[range].fill(0));
    }

    fn widen(self) -> Vec<u64> {
        match self {
            RingSum::Narrow(words) => words.into_iter().map(u64::from).collect(),
            RingSum::Wide(words) => words,
        }
    }
}

/// Server state machine.
pub struct Server {
    params: RoundParams,
    /// The chunk plan the data plane is partitioned by.
    plan: ChunkPlan,
    roster: BTreeMap<ClientId, AdvertisedKeys>,
    /// Routed ciphertext edges (from, to), to know which masks were applied.
    routed: BTreeSet<(ClientId, ClientId)>,
    u2: Vec<ClientId>,
    u3: Vec<ClientId>,
    u5: Vec<ClientId>,
    /// Per-chunk masked inputs of clients whose streams are still
    /// *incomplete*: `masked[c][client]` is the client's chunk-`c`
    /// payload exactly as it came off the wire, bit-packed ([`pack`])
    /// at the ring width — chunk-lazy clients leave every stream
    /// incomplete for most of the stage, so this is most of the
    /// server's custody. The chunk that completes a stream is never
    /// parked: it is unpack-added into [`Server::sum`] with the parked
    /// ones and all are freed. Partial deliveries linger here but never
    /// reach a sum; `finalize_masked` discards them.
    masked: Vec<BTreeMap<ClientId, Vec<u8>>>,
    /// Bytes parked in `masked`.
    parked_bytes: usize,
    /// Clients whose complete masked input has been folded into
    /// [`Server::sum`]. This *is* U3 at `finalize_masked` time.
    folded: BTreeSet<ClientId>,
    /// The full-length running sum (in `Z_{2^b}`) over the folded
    /// clients, unmasked in place chunk by chunk and held in the
    /// narrowest word that holds the ring. Addition in `Z_{2^b}`
    /// commutes, so folding clients in completion order is bit-equal to
    /// summing them in sorted U3 order — while peak memory drops from
    /// the cohort's whole decoded upload (`O(clients × dim)` words) to
    /// this sum plus the in-flight streams.
    sum: RingSum,
    /// Which chunks of `sum` [`Server::unmask_chunk`] has unmasked.
    unmasked: Vec<bool>,
    /// The mask streams left in `sum` (`p_u` of every survivor, the
    /// residual `PRG(s_{u,v})` towards every mid-round dropout),
    /// recorded by `reconstruct_unmasking`; None until then.
    cancel: Option<Vec<Cancel>>,
    /// Reconstructed self-mask seeds (clients in U3).
    recon_b: BTreeSet<ClientId>,
    /// Reconstructed masking secret keys (clients in U2 \ U3).
    recon_sk: BTreeSet<ClientId>,
    /// Noise seeds revealed directly or reconstructed.
    removal_seeds: BTreeMap<(ClientId, usize), Seed>,
    /// Stage-4/5 share pools.
    sk_share_pool: BTreeMap<ClientId, Vec<Share>>,
    b_share_pool: BTreeMap<ClientId, Vec<Share>>,
    seed_share_pool: BTreeMap<(ClientId, usize), Vec<Share>>,
}

impl Server {
    /// Creates a server for one round with the single-chunk (unchunked)
    /// data plane.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn new(params: RoundParams) -> Result<Self, SecAggError> {
        params.validate()?;
        let plan = ChunkPlan::single(params.vector_len, params.bit_width)
            .map_err(|e| SecAggError::Config(e.to_string()))?;
        Server::with_chunks(params, plan)
    }

    /// Creates a server whose data plane is partitioned by `plan`.
    ///
    /// # Errors
    ///
    /// Rejects plans that disagree with the round's vector length or bit
    /// width, and propagates parameter validation failures.
    pub fn with_chunks(params: RoundParams, plan: ChunkPlan) -> Result<Self, SecAggError> {
        params.validate()?;
        if plan.vector_len() != params.vector_len || plan.bit_width() != params.bit_width {
            return Err(SecAggError::Config(format!(
                "chunk plan covers {} elements at {} bits, round has {} at {}",
                plan.vector_len(),
                plan.bit_width(),
                params.vector_len,
                params.bit_width
            )));
        }
        let m = plan.chunks();
        Ok(Server {
            sum: RingSum::new(params.vector_len, params.bit_width),
            params,
            plan,
            roster: BTreeMap::new(),
            routed: BTreeSet::new(),
            u2: Vec::new(),
            u3: Vec::new(),
            u5: Vec::new(),
            masked: vec![BTreeMap::new(); m],
            parked_bytes: 0,
            folded: BTreeSet::new(),
            unmasked: vec![false; m],
            cancel: None,
            recon_b: BTreeSet::new(),
            recon_sk: BTreeSet::new(),
            removal_seeds: BTreeMap::new(),
            sk_share_pool: BTreeMap::new(),
            b_share_pool: BTreeMap::new(),
            seed_share_pool: BTreeMap::new(),
        })
    }

    fn index_of(&self, id: ClientId) -> Option<usize> {
        self.params.clients.iter().position(|&c| c == id)
    }

    /// Stage 0: collects advertisements; returns the roster broadcast.
    pub fn collect_advertisements(
        &mut self,
        msgs: Vec<AdvertisedKeys>,
    ) -> Result<Vec<AdvertisedKeys>, SecAggError> {
        for m in msgs {
            if self.index_of(m.client).is_none() {
                return Err(SecAggError::Config(format!(
                    "advertisement from unsampled client {}",
                    m.client
                )));
            }
            self.roster.insert(m.client, m);
        }
        if self.roster.len() < self.params.threshold {
            return Err(SecAggError::BelowThreshold {
                stage: "AdvertiseKeys",
                live: self.roster.len(),
                threshold: self.params.threshold,
            });
        }
        Ok(self.roster.values().cloned().collect())
    }

    /// Stage 1: routes encrypted share bundles; returns each live
    /// client's inbox.
    pub fn route_shares(
        &mut self,
        msgs: Vec<EncryptedShares>,
    ) -> Result<BTreeMap<ClientId, Vec<EncryptedShares>>, SecAggError> {
        let mut senders = BTreeSet::new();
        let mut inboxes: BTreeMap<ClientId, Vec<EncryptedShares>> = BTreeMap::new();
        for ct in msgs {
            senders.insert(ct.from);
            self.routed.insert((ct.from, ct.to));
            inboxes.entry(ct.to).or_default().push(ct);
        }
        if senders.len() < self.params.threshold {
            return Err(SecAggError::BelowThreshold {
                stage: "ShareKeys",
                live: senders.len(),
                threshold: self.params.threshold,
            });
        }
        self.u2 = senders.into_iter().collect();
        Ok(inboxes)
    }

    /// Stage 2, chunked: records one client's chunk-`chunk` masked
    /// input as it came off the wire — `payload` is the chunk's
    /// elements bit-packed at the ring width ([`pack`], the
    /// `MaskedInput` body after the sender id). Callable per chunk in
    /// any order and interleaved with other chunks' collection — this is
    /// the entry point the pipelined coordinator drives while chunk
    /// `c+1` is still in flight.
    ///
    /// Until a client's stream is complete its chunks wait parked as
    /// they came; the moment its *last* outstanding chunk lands, that
    /// chunk and the parked ones are unpack-added into the running sum
    /// and freed — the server never holds the cohort's decoded upload,
    /// nor any decoded chunk. A frame arriving for an already-folded
    /// client (a duplicate) is discarded; a re-sent parked chunk
    /// replaces the parked one. Bits past the last element (the final
    /// byte's padding) are never read.
    ///
    /// # Errors
    ///
    /// Rejects, in this order and before reading any element, an
    /// unknown chunk index, a payload of any length other than the
    /// chunk's packed length, and a sender outside U2.
    pub fn collect_masked_packed(
        &mut self,
        chunk: usize,
        client: ClientId,
        payload: &[u8],
    ) -> Result<(), SecAggError> {
        let len = self.chunk_len(chunk)?;
        let bits = self.params.bit_width;
        if payload.len() != pack::packed_len(len, bits) {
            return Err(SecAggError::Config(format!(
                "masked input from {client} has {} bytes for chunk {chunk}, expected {}",
                payload.len(),
                pack::packed_len(len, bits)
            )));
        }
        if !self.u2.contains(&client) {
            return Err(SecAggError::Config(format!(
                "masked input from {client} outside U2"
            )));
        }
        if self.folded.contains(&client) {
            return Ok(());
        }
        let completes = self
            .masked
            .iter()
            .enumerate()
            .all(|(c, store)| c == chunk || store.contains_key(&client));
        if !completes {
            self.parked_bytes += payload.len();
            if let Some(old) = self.masked[chunk].insert(client, payload.to_vec()) {
                self.parked_bytes -= old.len();
            }
            return Ok(());
        }
        for c in 0..self.masked.len() {
            let parked = self.masked[c].remove(&client);
            if let Some(p) = &parked {
                self.parked_bytes -= p.len();
            }
            let packed = if c == chunk {
                payload
            } else {
                parked.as_deref().expect("every other chunk parked")
            };
            self.sum.unpack_add(self.plan.range(c), packed, bits);
        }
        self.folded.insert(client);
        Ok(())
    }

    /// Stage 2, chunked, decoded: [`Server::collect_masked_packed`] for
    /// each of `msgs` in turn, packing its vector at the ring width
    /// first — the entry for callers that hold chunk vectors rather
    /// than wire payloads (the in-memory driver).
    ///
    /// # Errors
    ///
    /// As [`Server::collect_masked_packed`]; a vector of the wrong
    /// length for the chunk is rejected before it is packed.
    pub fn collect_masked_chunk(
        &mut self,
        chunk: usize,
        msgs: Vec<MaskedInput>,
    ) -> Result<(), SecAggError> {
        let len = self.chunk_len(chunk)?;
        let mut packed = Vec::new();
        for m in msgs {
            if m.vector.len() != len {
                return Err(SecAggError::Config(format!(
                    "masked input from {} has wrong length for chunk {chunk}",
                    m.client
                )));
            }
            packed.clear();
            pack::pack_into(&m.vector, self.params.bit_width, &mut packed);
            self.collect_masked_packed(chunk, m.client, &packed)?;
        }
        Ok(())
    }

    /// Bytes the server holds for the data plane: the parked chunk
    /// payloads plus the running sum.
    #[must_use]
    pub fn custody_bytes(&self) -> usize {
        self.parked_bytes + self.sum.bytes()
    }

    /// Chunk `chunk`'s length, or the out-of-range error.
    fn chunk_len(&self, chunk: usize) -> Result<usize, SecAggError> {
        if chunk >= self.plan.chunks() {
            return Err(SecAggError::Config(format!(
                "chunk {chunk} out of range ({} chunks)",
                self.plan.chunks()
            )));
        }
        Ok(self.plan.chunk_len(chunk))
    }

    /// Stage 2, closing: fixes U3 as the clients that delivered **every**
    /// chunk — a partial chunk stream is a dropout, exactly like a missed
    /// single-frame masked input.
    ///
    /// # Errors
    ///
    /// Aborts below threshold.
    pub fn finalize_masked(&mut self) -> Result<Vec<ClientId>, SecAggError> {
        // Folded = delivered every chunk; the BTreeSet iterates sorted,
        // matching the sorted per-chunk map order U3 historically had.
        let u3: Vec<ClientId> = self.folded.iter().copied().collect();
        if u3.len() < self.params.threshold {
            return Err(SecAggError::BelowThreshold {
                stage: "MaskedInputCollection",
                live: u3.len(),
                threshold: self.params.threshold,
            });
        }
        // Partial streams are dropouts: their chunks never reached the
        // sum, and nothing reads them past this point.
        for store in &mut self.masked {
            store.clear();
        }
        self.parked_bytes = 0;
        self.u3 = u3;
        Ok(self.u3.clone())
    }

    /// Stage 3 (malicious): collects consistency signatures (U4).
    pub fn collect_consistency(
        &mut self,
        sigs: Vec<ConsistencySignature>,
    ) -> Result<Vec<(ClientId, Signature)>, SecAggError> {
        if sigs.len() < self.params.threshold {
            return Err(SecAggError::BelowThreshold {
                stage: "ConsistencyCheck",
                live: sigs.len(),
                threshold: self.params.threshold,
            });
        }
        Ok(sigs.into_iter().map(|s| (s.client, s.signature)).collect())
    }

    /// Stage 4, round-global: pools the share responses, reconstructs
    /// the survivors' self-mask seeds and the mid-round dropouts' masking
    /// secret keys, and records the mask streams they leave in the sum:
    /// every survivor's self mask and, through one `agree_many` per
    /// dropout, each pairwise mask a survivor applied towards it. Nothing
    /// is expanded here — [`Server::unmask_chunk`] expands each stream
    /// over one chunk's range.
    ///
    /// # Errors
    ///
    /// Aborts below threshold (response count or per-secret share
    /// count), and on a reconstructed key that contradicts the
    /// advertised public key.
    pub fn reconstruct_unmasking(
        &mut self,
        responses: Vec<UnmaskingResponse>,
    ) -> Result<(), SecAggError> {
        if responses.len() < self.params.threshold {
            return Err(SecAggError::BelowThreshold {
                stage: "Unmasking",
                live: responses.len(),
                threshold: self.params.threshold,
            });
        }
        let u3: BTreeSet<ClientId> = self.u3.iter().copied().collect();
        for r in &responses {
            self.u5.push(r.client);
            for (owner, share) in &r.sk_shares {
                if u3.contains(owner) {
                    // A share of a live client's s_sk must never reach the
                    // server; drop it defensively.
                    continue;
                }
                self.sk_share_pool
                    .entry(*owner)
                    .or_default()
                    .push(share.clone());
            }
            for (owner, share) in &r.b_shares {
                if !u3.contains(owner) {
                    continue;
                }
                self.b_share_pool
                    .entry(*owner)
                    .or_default()
                    .push(share.clone());
            }
            for (k, seed) in &r.own_seeds {
                self.removal_seeds.insert((r.client, *k), *seed);
            }
        }
        self.u5.sort_unstable();
        self.u5.dedup();

        let t_eff = share_threshold(&self.params);
        let mut cancel: Vec<Cancel> = Vec::new();

        // Remove self-masks of surviving clients.
        for &u in &self.u3 {
            let shares = self.b_share_pool.get(&u).map_or(&[][..], Vec::as_slice);
            if shares.len() < t_eff {
                return Err(SecAggError::BelowThreshold {
                    stage: "Unmasking(b-recon)",
                    live: shares.len(),
                    threshold: t_eff,
                });
            }
            let b_bytes = shamir::reconstruct(shares, t_eff)?;
            let mut b = [0u8; 32];
            b.copy_from_slice(&b_bytes);
            self.recon_b.insert(u);
            cancel.push((mask::self_mask_prg_at, b, false));
        }

        // Cancel pairwise masks of clients that dropped between ShareKeys
        // and MaskedInputCollection (v ∈ U2 \ U3).
        for &v in self.u2.iter().filter(|v| !u3.contains(v)) {
            let shares = self.sk_share_pool.get(&v).map_or(&[][..], Vec::as_slice);
            if shares.len() < t_eff {
                return Err(SecAggError::BelowThreshold {
                    stage: "Unmasking(sk-recon)",
                    live: shares.len(),
                    threshold: t_eff,
                });
            }
            let sk_bytes = shamir::reconstruct(shares, t_eff)?;
            let mut sk = [0u8; 32];
            sk.copy_from_slice(&sk_bytes);
            self.recon_sk.insert(v);
            // Sanity: the reconstructed key must match the advertised one.
            let expected_pk = self.roster[&v].s_pk;
            if x25519::public_key(&sk) != expected_pk {
                return Err(SecAggError::Crypto(
                    dordis_crypto::CryptoError::InconsistentShares("sk does not match s_pk"),
                ));
            }
            let v_kp = KeyPair {
                secret: sk,
                public: expected_pk,
            };
            // Cancel the residual γ_{u,v}·PRG(s_{u,v}) left by every
            // survivor u that had applied a mask towards v: one
            // `agree_many` under the reconstructed `s_sk`.
            let (masked_towards_v, s_pks): (Vec<ClientId>, Vec<[u8; 32]>) = self
                .u3
                .iter()
                .filter(|&&u| self.routed.contains(&(v, u)))
                .map(|&u| (u, self.roster[&u].s_pk))
                .unzip();
            for (u, s_vu) in masked_towards_v.into_iter().zip(v_kp.agree_many(&s_pks)) {
                // u added sign(u > v); cancel with sign(v > u).
                cancel.push((mask::pairwise_prg_at, s_vu, v > u));
            }
        }
        self.cancel = Some(cancel);
        Ok(())
    }

    /// Stage 4, per chunk: cancels every recorded mask stream over chunk
    /// `c`'s range of the sum, strip-outer and mask-inner as the client
    /// masks it. All operations are coordinate-wise in `Z_{2^b}` and
    /// every stream seeks, so the chunks, unmasked in any order, give
    /// the whole-vector aggregate bit for bit.
    ///
    /// # Errors
    ///
    /// Fails on an out-of-range chunk, on a chunk already unmasked, or
    /// if called before [`Server::reconstruct_unmasking`].
    pub fn unmask_chunk(&mut self, chunk: usize) -> Result<(), SecAggError> {
        self.chunk_len(chunk)?;
        let Some(cancel) = &self.cancel else {
            return Err(SecAggError::Config(
                "unmask_chunk before reconstruct_unmasking".into(),
            ));
        };
        if self.unmasked[chunk] {
            return Err(SecAggError::Config(format!(
                "chunk {chunk} already unmasked"
            )));
        }
        let bits = self.params.bit_width;
        let range = self.plan.range(chunk);
        let mut streams: Vec<(Prg, bool)> = cancel
            .iter()
            .map(|(at, seed, positive)| (at(seed, bits, range.start), *positive))
            .collect();
        self.sum.cancel(range, &mut streams, bits);
        self.unmasked[chunk] = true;
        Ok(())
    }

    /// The set U2 (clients whose encrypted shares were routed).
    #[must_use]
    pub fn u2(&self) -> &[ClientId] {
        &self.u2
    }

    /// The set U5 (responders to unmasking).
    #[must_use]
    pub fn u5(&self) -> &[ClientId] {
        &self.u5
    }

    /// Clients in `U3 \ U5` whose noise seeds still need recovery.
    #[must_use]
    pub fn pending_seed_owners(&self) -> Vec<ClientId> {
        if self.params.noise_components == 0 {
            return Vec::new();
        }
        let dropped = self.params.clients.len() - self.u3.len();
        if dropped >= self.params.noise_components {
            return Vec::new();
        }
        self.u3
            .iter()
            .copied()
            .filter(|u| !self.u5.contains(u))
            .collect()
    }

    /// Stage 5: collects seed shares and reconstructs missing noise seeds.
    pub fn collect_noise_shares(
        &mut self,
        responses: Vec<NoiseShareResponse>,
    ) -> Result<(), SecAggError> {
        if responses.len() < self.params.threshold {
            return Err(SecAggError::BelowThreshold {
                stage: "ExcessiveNoiseRemoval",
                live: responses.len(),
                threshold: self.params.threshold,
            });
        }
        let owners: BTreeSet<ClientId> = self.pending_seed_owners().into_iter().collect();
        for r in responses {
            for (owner, k, share) in r.seed_shares {
                if !owners.contains(&owner) {
                    continue;
                }
                self.seed_share_pool
                    .entry((owner, k))
                    .or_default()
                    .push(share);
            }
        }
        let t_eff = share_threshold(&self.params);
        let dropped = self.params.clients.len() - self.u3.len();
        for owner in owners {
            for k in (dropped + 1)..=self.params.noise_components {
                let shares = self
                    .seed_share_pool
                    .get(&(owner, k))
                    .cloned()
                    .unwrap_or_default();
                if shares.len() < t_eff {
                    return Err(SecAggError::BelowThreshold {
                        stage: "ExcessiveNoiseRemoval(recon)",
                        live: shares.len(),
                        threshold: t_eff,
                    });
                }
                let bytes = shamir::reconstruct(&shares, t_eff)?;
                let mut seed = [0u8; 32];
                seed.copy_from_slice(&bytes);
                self.removal_seeds.insert((owner, k), seed);
            }
        }
        Ok(())
    }

    /// Finishes the round: hands out the sum, with zeros over every chunk
    /// that was never unmasked (its range still carries the masks).
    #[must_use]
    pub fn finish(mut self) -> RoundOutcome {
        let survivors = self.u3.clone();
        let dropped: Vec<ClientId> = self
            .params
            .clients
            .iter()
            .copied()
            .filter(|c| !survivors.contains(c))
            .collect();
        for c in (0..self.plan.chunks()).filter(|&c| !self.unmasked[c]) {
            self.sum.zero(self.plan.range(c));
        }
        RoundOutcome {
            sum: self.sum.widen(),
            survivors,
            dropped,
            removal_seeds: self
                .removal_seeds
                .into_iter()
                .map(|((c, k), s)| (c, k, s))
                .collect(),
            bit_width: self.params.bit_width,
        }
    }

    /// The privacy invariant of SecAgg: the server must never hold both
    /// secrets of the same client.
    #[must_use]
    pub fn privacy_invariant_holds(&self) -> bool {
        self.recon_b.intersection(&self.recon_sk).next().is_none()
    }
}
