//! The wire codec: length-delimited binary encodings for every protocol
//! message, plus the framed [`Envelope`] that carries them.
//!
//! Layout conventions: all integers are little-endian; collections carry
//! explicit counts; Shamir shares encode as `x u8, len u8, y`. The
//! `codec_wire` tests pin every message body's encoded length as a
//! literal. A round's traffic is not computed from these layouts: the
//! coordinator counts the framed bytes each stage moves, list framing
//! and envelope headers included (`coordinator::RoundStats`).
//!
//! Two messages decode *contextually*: [`MaskedInput`] is bit-packed at
//! `b` bits per coordinate, so the decoder needs the round's
//! `(bit_width, vector_len)` — both sides know them from [`RoundParams`],
//! which is how the paper's system avoids paying a per-message header
//! for static round state.

use dordis_crypto::ed25519::Signature;
use dordis_crypto::prg::Seed;
use dordis_crypto::shamir::Share;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::messages::{
    AdvertisedKeys, ConsistencySignature, EncryptedShares, IdList, MaskedInput, NoiseShareResponse,
    UnmaskingResponse,
};
use dordis_secagg::{pack, ChunkPlan, ClientId, RoundParams, ThreatModel};

use crate::NetError;

/// Wire protocol version. A version pins everything two peers must
/// agree on for the aggregate to come out right: the frame format, the
/// mask stream layout and the noise stream layout. The last two change
/// no frame, but masks expanded under two layouts do not cancel, and
/// noise a client adds under one rule and the server removes under
/// another stays in the aggregate — silently, so the version is bumped
/// and the peer refused at its first frame instead.
/// v2: the envelope header gained a `chunk u16` field and masked inputs
/// travel as one frame per [`ChunkPlan`] chunk.
/// v3: multi-round sessions — three session-control stages
/// ([`StageTag::RoundAnnounce`], [`StageTag::Decline`],
/// [`StageTag::SessionEnd`]), Join bodies may carry a participation
/// claim after the client id, and Setup bodies carry an opaque
/// application payload (e.g. the current global model) after the chunk
/// count.
/// v4: Setup bodies carry the seated cohort size (`cohort u16`)
/// between the chunk count and the payload; clients derive their XNoise
/// plan and encoding from it. (Introduced for in-process aggregation
/// shards, since removed; the coordinator now always sends
/// `RoundParams::clients.len()`.)
/// v5: coordinator replication — three replication-control stages
/// ([`StageTag::CheckpointInstall`], [`StageTag::CheckpointAck`],
/// [`StageTag::ViewChange`]) carry round-boundary session checkpoints
/// from a primary coordinator to its backup and signal view changes
/// after a failover.
/// v6: no frame changed — the mask layout did (`dordis_crypto::prg`: one
/// `u32` keystream word per ring element up to 32 bits, was one `u64`).
/// Masks from the two layouts do not cancel and the aggregate would be
/// silently wrong, so a v5 peer is refused at its first frame instead.
/// v7: no frame changed — the noise stream layout did
/// (`dordis_dp::mechanism`: a table-regime Skellam draw reads a 16-bit
/// lane and, when undecided, a 64-bit refinement word; was one `u64`
/// per draw).
/// v8: one join path — a [`StageTag::RoundAnnounce`] body is empty (it
/// carried a claims-required flag byte) and a client joins only in
/// answer to an announce, stamped with the announced round (it sent a
/// round-0 Join at connect).
pub const WIRE_VERSION: u8 = 8;

/// Envelope header bytes: version, stage, round, chunk.
pub const HEADER_BYTES: usize = 1 + 1 + 8 + 2;

/// Maximum accepted frame size (64 MiB) — guards against garbage length
/// prefixes from misbehaving peers.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Protocol stage carried in the envelope header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum StageTag {
    /// Client → server: claim a seat in the announced round.
    Join = 0,
    /// Server → client: the round parameters.
    Setup = 1,
    /// Client → server: key advertisement (stage 0).
    AdvertiseKeys = 2,
    /// Server → client: the U1 roster broadcast.
    Roster = 3,
    /// Client → server: encrypted share bundles (stage 1).
    ShareKeys = 4,
    /// Server → client: ciphertexts routed to this client.
    Inbox = 5,
    /// Client → server: the masked input (stage 2).
    MaskedInput = 6,
    /// Server → client: the U3 survivor broadcast.
    SurvivorSet = 7,
    /// Client → server: consistency signature (stage 3, malicious).
    ConsistencySig = 8,
    /// Server → client: the {(v, ω'_v)} signature list (U4).
    SignatureList = 9,
    /// Client → server: unmasking response (stage 4).
    Unmasking = 10,
    /// Server → client: the U5 broadcast requesting noise shares.
    ReadySet = 11,
    /// Client → server: noise-seed shares (stage 5).
    NoiseShares = 12,
    /// Server → client: round complete; body is the survivor set.
    Finished = 13,
    /// Either direction: the sender is aborting, with a reason.
    Abort = 14,
    /// Server → client: a new session round is opening (empty body);
    /// answer with [`StageTag::Join`], carrying the participation claim,
    /// or [`StageTag::Decline`].
    RoundAnnounce = 15,
    /// Client → server: not participating in the announced round (e.g.
    /// the VRF said no); the connection stays open for later rounds.
    Decline = 16,
    /// Server → client: the session is over; close the connection.
    SessionEnd = 17,
    /// Primary → backup: a round-boundary session checkpoint; the body
    /// is a serialized `net::replication::SessionCheckpoint`. The
    /// envelope round is the checkpointed round id.
    CheckpointInstall = 18,
    /// Backup → primary: the checkpoint for the envelope round is
    /// durably installed; the primary may now commit the round.
    CheckpointAck = 19,
    /// Candidate → old primary (best effort): the backup's lease on the
    /// primary expired and it is taking over; the envelope round is the
    /// new view number. A primary that receives this must stand down.
    ViewChange = 20,
}

impl StageTag {
    /// Parses the tag byte.
    #[must_use]
    pub fn from_u8(b: u8) -> Option<StageTag> {
        use StageTag::*;
        Some(match b {
            0 => Join,
            1 => Setup,
            2 => AdvertiseKeys,
            3 => Roster,
            4 => ShareKeys,
            5 => Inbox,
            6 => MaskedInput,
            7 => SurvivorSet,
            8 => ConsistencySig,
            9 => SignatureList,
            10 => Unmasking,
            11 => ReadySet,
            12 => NoiseShares,
            13 => Finished,
            14 => Abort,
            15 => RoundAnnounce,
            16 => Decline,
            17 => SessionEnd,
            18 => CheckpointInstall,
            19 => CheckpointAck,
            20 => ViewChange,
            _ => return None,
        })
    }
}

/// A framed protocol message: version, stage, round id, chunk id, opaque
/// body. The chunk id is 0 for every control-plane message; data-plane
/// masked-input frames carry their [`ChunkPlan`] chunk index so stage
/// `k` of chunk `c+1` can overlap stage `k+1` of chunk `c` on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Wire version ([`WIRE_VERSION`]).
    pub version: u8,
    /// Stage discriminator for the body.
    pub stage: StageTag,
    /// Round the message belongs to (replay/mix-up protection).
    pub round: u64,
    /// Chunk the body belongs to (0 for unchunked stages).
    pub chunk: u16,
    /// Encoded message body.
    pub body: Vec<u8>,
}

/// The (stage, round, chunk) coordinates of a frame — threaded into
/// body-decode errors so a dropout report says *which* frame of *which*
/// chunk went wrong, not just how many bytes were expected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameContext {
    /// Stage tag from the envelope header.
    pub stage: StageTag,
    /// Round id from the envelope header.
    pub round: u64,
    /// Chunk id from the envelope header.
    pub chunk: u16,
}

impl core::fmt::Display for FrameContext {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "stage {:?} round {} chunk {}",
            self.stage, self.round, self.chunk
        )
    }
}

impl Envelope {
    /// Wraps a body for the current wire version (chunk 0).
    #[must_use]
    pub fn new(stage: StageTag, round: u64, body: Vec<u8>) -> Envelope {
        Envelope::chunked(stage, round, 0, body)
    }

    /// Wraps one chunk's body for the current wire version.
    #[must_use]
    pub fn chunked(stage: StageTag, round: u64, chunk: u16, body: Vec<u8>) -> Envelope {
        Envelope {
            version: WIRE_VERSION,
            stage,
            round,
            chunk,
            body,
        }
    }

    /// The frame's (stage, round, chunk) coordinates for error context.
    #[must_use]
    pub fn context(&self) -> FrameContext {
        FrameContext {
            stage: self.stage,
            round: self.round,
            chunk: self.chunk,
        }
    }

    /// Serializes header + body into one frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.body.len());
        out.push(self.version);
        out.push(self.stage as u8);
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.chunk.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Checks the frame's round id against the round a state machine is
    /// executing, through `round_gate`. `Abort` frames pass regardless
    /// (they are round-free by construction: a peer may abort with stale
    /// state).
    ///
    /// # Errors
    ///
    /// [`NetError::StaleRound`] on any mismatch, so a leftover frame
    /// from round `r` can never be parsed into round `r + 1`'s state.
    pub fn check_round(&self, expected: u64) -> Result<(), NetError> {
        match round_gate(self.stage, self.round, expected) {
            RoundGate::Abort | RoundGate::Current => Ok(()),
            RoundGate::Stale | RoundGate::Future => Err(NetError::StaleRound {
                got: self.round,
                expected,
            }),
        }
    }

    /// Parses a frame: [`EnvelopeView::decode`]'s header parse, with the
    /// body copied out.
    ///
    /// # Errors
    ///
    /// Rejects short frames, unknown stage tags, and — with the typed
    /// [`NetError::Version`] — mismatched protocol versions.
    pub fn decode(frame: &[u8]) -> Result<Envelope, NetError> {
        let view = EnvelopeView::decode(frame)?;
        Ok(Envelope {
            version: view.version,
            stage: view.stage,
            round: view.round,
            chunk: view.chunk,
            body: view.body.to_vec(),
        })
    }
}

/// Where a frame stands against the round a receiver is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RoundGate {
    /// An `Abort`: round-free, whatever id it carries.
    Abort,
    /// An older round's leftover: discard it, never parse it.
    Stale,
    /// A round not begun yet: the sender's protocol violation.
    Future,
    /// The round being executed.
    Current,
}

/// The round gate — the one place a frame's round id is compared with
/// the round being executed. Aborts first, then older = stale, newer =
/// future, else current.
pub(crate) fn round_gate(stage: StageTag, got: u64, round: u64) -> RoundGate {
    use std::cmp::Ordering;
    if stage == StageTag::Abort {
        return RoundGate::Abort;
    }
    match got.cmp(&round) {
        Ordering::Less => RoundGate::Stale,
        Ordering::Greater => RoundGate::Future,
        Ordering::Equal => RoundGate::Current,
    }
}

/// A zero-copy view of a framed message: the body *borrows* the frame
/// buffer instead of cloning it. The coordinator decodes every uplink
/// frame this way — a masked-input chunk's bit-packed payload straight
/// out of the frame at `frame[HEADER_BYTES..]` — and credits the frame
/// back to its channel's ledger once the body is decoded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnvelopeView<'a> {
    /// Wire version ([`WIRE_VERSION`]).
    pub version: u8,
    /// Stage discriminator for the body.
    pub stage: StageTag,
    /// Round the message belongs to (replay/mix-up protection).
    pub round: u64,
    /// Chunk the body belongs to (0 for unchunked stages).
    pub chunk: u16,
    /// Encoded message body, borrowed from the frame.
    pub body: &'a [u8],
}

impl<'a> EnvelopeView<'a> {
    /// Parses a frame without copying the body.
    ///
    /// # Errors
    ///
    /// Rejects short frames, unknown stage tags, and — with the typed
    /// [`NetError::Version`] — mismatched protocol versions.
    pub fn decode(frame: &'a [u8]) -> Result<EnvelopeView<'a>, NetError> {
        if frame.is_empty() {
            return Err(NetError::Codec("empty frame".into()));
        }
        // Version is checked before the length so a short v1 frame is
        // reported as the version mismatch it is.
        let version = frame[0];
        if version != WIRE_VERSION {
            return Err(NetError::Version {
                got: version,
                expected: WIRE_VERSION,
            });
        }
        if frame.len() < HEADER_BYTES {
            return Err(NetError::Codec(format!("frame too short: {}", frame.len())));
        }
        let stage = StageTag::from_u8(frame[1])
            .ok_or_else(|| NetError::Codec(format!("unknown stage tag {}", frame[1])))?;
        let round = u64::from_le_bytes(frame[2..10].try_into().expect("8 bytes"));
        let chunk = u16::from_le_bytes(frame[10..12].try_into().expect("2 bytes"));
        Ok(EnvelopeView {
            version,
            stage,
            round,
            chunk,
            body: &frame[HEADER_BYTES..],
        })
    }

    /// The frame's (stage, round, chunk) coordinates for error context.
    #[must_use]
    pub fn context(&self) -> FrameContext {
        FrameContext {
            stage: self.stage,
            round: self.round,
            chunk: self.chunk,
        }
    }
}

// ---------------------------------------------------------------------
// Cursor.
// ---------------------------------------------------------------------

/// Little-endian read cursor over a body slice: the one reader of
/// hostile bytes, which checks every length and count against what is
/// left before it takes or reserves anything.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if n > self.remaining() {
            return Err(NetError::Codec(format!(
                "truncated body: wanted {n} at offset {}, have {}",
                self.pos,
                self.bytes.len()
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn seed(&mut self) -> Result<Seed, NetError> {
        Ok(self.take(32)?.try_into().expect("32"))
    }

    fn share(&mut self) -> Result<Share, NetError> {
        let x = self.u8()?;
        let len = self.u8()? as usize;
        Ok(Share {
            x,
            y: self.take(len)?.to_vec(),
        })
    }

    pub(crate) fn finish(&self) -> Result<(), NetError> {
        if self.pos != self.bytes.len() {
            return Err(NetError::Codec(format!(
                "{} trailing bytes",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Room for `n` wire-counted items of at least `min_item` bytes each,
    /// refused when they cannot fit in the bytes left: the count is
    /// wire-controlled, so it reserves nothing before it is bounded.
    pub(crate) fn vec_for<T>(&self, n: usize, min_item: usize) -> Result<Vec<T>, NetError> {
        if n.saturating_mul(min_item) > self.remaining() {
            return Err(NetError::Codec(format!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(Vec::with_capacity(n))
    }
}

fn put_share(out: &mut Vec<u8>, s: &Share) {
    debug_assert!(s.y.len() <= u8::MAX as usize, "share too long for wire");
    out.push(s.x);
    out.push(s.y.len() as u8);
    out.extend_from_slice(&s.y);
}

// ---------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------

/// Types with a canonical body encoding.
pub trait Encode {
    /// Appends the encoded body to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// The encoded body as a fresh buffer.
    fn encoded(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

impl Encode for AdvertisedKeys {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.client.to_le_bytes());
        out.extend_from_slice(&self.c_pk);
        out.extend_from_slice(&self.s_pk);
        if let Some(sig) = &self.signature {
            out.extend_from_slice(&sig.0);
        }
    }
}

/// Decodes an [`AdvertisedKeys`] body; signature presence is determined
/// by length (68 without, 132 with), keeping the body flag-free.
///
/// # Errors
///
/// Rejects any other length.
pub fn decode_advertised_keys(body: &[u8]) -> Result<AdvertisedKeys, NetError> {
    let mut r = Reader::new(body);
    let client = r.u32()?;
    let c_pk: [u8; 32] = r.take(32)?.try_into().expect("32");
    let s_pk: [u8; 32] = r.take(32)?.try_into().expect("32");
    let signature = match r.remaining() {
        0 => None,
        64 => Some(Signature(r.take(64)?.try_into().expect("64"))),
        n => return Err(NetError::Codec(format!("bad AdvertisedKeys tail: {n}"))),
    };
    r.finish()?;
    Ok(AdvertisedKeys {
        client,
        c_pk,
        s_pk,
        signature,
    })
}

impl Encode for EncryptedShares {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.from.to_le_bytes());
        out.extend_from_slice(&self.to.to_le_bytes());
        out.extend_from_slice(&self.ciphertext);
    }
}

/// Decodes an [`EncryptedShares`] body (the ciphertext is the tail).
///
/// # Errors
///
/// Rejects bodies shorter than the 8-byte addressing header.
pub fn decode_encrypted_shares(body: &[u8]) -> Result<EncryptedShares, NetError> {
    let mut r = Reader::new(body);
    let from = r.u32()?;
    let to = r.u32()?;
    let ciphertext = r.take(r.remaining())?.to_vec();
    Ok(EncryptedShares {
        from,
        to,
        ciphertext,
    })
}

impl Encode for MaskedInput {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.client.to_le_bytes());
        // Each coordinate at `bit_width` bits, LSB first.
        pack::pack_into(&self.vector, self.bit_width, out);
    }
}

/// Decodes a bit-packed [`MaskedInput`] body. The packing parameters are
/// round state, not per-message headers, so they are passed in;
/// `vector_len` is the element count of the frame's chunk (the full
/// vector for a single-chunk plan). `ctx` is the envelope's (stage,
/// round, chunk), threaded into errors so dropout reports are
/// attributable.
///
/// # Errors
///
/// Rejects bodies whose length disagrees with `vector_len * bit_width`.
pub fn decode_masked_input(
    body: &[u8],
    bit_width: u32,
    vector_len: usize,
    ctx: FrameContext,
) -> Result<MaskedInput, NetError> {
    let (client, payload) = masked_input_payload(body).map_err(|e| with_context(e, ctx))?;
    let expect = pack::packed_len(vector_len, bit_width);
    if payload.len() != expect {
        return Err(NetError::Codec(format!(
            "MaskedInput payload {} bytes, expected {expect} ({ctx}, client {client})",
            payload.len()
        )));
    }
    Ok(MaskedInput {
        client,
        vector: pack::unpack(payload, bit_width, vector_len),
        bit_width,
    })
}

/// Splits a [`MaskedInput`] body into its sender id and its packed
/// payload, borrowed and unchecked: the payload's length and contents
/// are the round's business
/// (`dordis_secagg::server::Server::collect_masked_packed`).
///
/// # Errors
///
/// Rejects a body too short to hold the sender id.
pub fn masked_input_payload(body: &[u8]) -> Result<(ClientId, &[u8]), NetError> {
    let mut r = Reader::new(body);
    let client = r.u32()?;
    Ok((client, r.take(r.remaining())?))
}

/// Annotates a codec error with its frame coordinates.
fn with_context(e: NetError, ctx: FrameContext) -> NetError {
    match e {
        NetError::Codec(msg) => NetError::Codec(format!("{msg} ({ctx})")),
        other => other,
    }
}

// ---------------------------------------------------------------------
// Chunked masked-input framing.
// ---------------------------------------------------------------------

/// Splits a full masked input into one [`MaskedInput`] per chunk of
/// `plan`, in schedule order. Because the plan's boundaries are
/// byte-aligned for the round's bit width, each chunk's bit-packed body
/// payload is exactly the corresponding byte-slice of the single-frame
/// packing: the summed chunk payloads are byte-equal to the single-frame
/// accounting (`Σ_c payload_c == payload`), with only the repeated
/// 4-byte sender id and the envelope headers as per-chunk transport
/// overhead — the `chunk_payloads_partition_single_frame` test in this
/// crate pins that equality.
///
/// # Errors
///
/// Rejects inputs whose length or bit width disagree with the plan.
pub fn split_masked_input(
    input: &MaskedInput,
    plan: &ChunkPlan,
) -> Result<Vec<MaskedInput>, NetError> {
    if input.bit_width != plan.bit_width() {
        return Err(NetError::Codec(format!(
            "masked input bit width {} disagrees with chunk plan {}",
            input.bit_width,
            plan.bit_width()
        )));
    }
    let pieces = plan
        .split(&input.vector)
        .map_err(|e| NetError::Codec(format!("split masked input: {e}")))?;
    Ok(pieces
        .into_iter()
        .map(|piece| MaskedInput {
            client: input.client,
            vector: piece.to_vec(),
            bit_width: input.bit_width,
        })
        .collect())
}

/// Reassembles per-chunk masked inputs (in schedule order) into the full
/// vector — the inverse of [`split_masked_input`].
///
/// # Errors
///
/// Rejects mixed senders or bit widths, and piece lengths that disagree
/// with the plan.
pub fn reassemble_masked_input(
    chunks: &[MaskedInput],
    plan: &ChunkPlan,
) -> Result<MaskedInput, NetError> {
    let first = chunks
        .first()
        .ok_or_else(|| NetError::Codec("no chunks to reassemble".into()))?;
    for c in chunks {
        if c.client != first.client || c.bit_width != first.bit_width {
            return Err(NetError::Codec(format!(
                "chunk stream mixes senders/bit widths: ({}, {}) vs ({}, {})",
                c.client, c.bit_width, first.client, first.bit_width
            )));
        }
    }
    let pieces: Vec<Vec<u64>> = chunks.iter().map(|c| c.vector.clone()).collect();
    let vector = plan
        .reassemble(&pieces)
        .map_err(|e| NetError::Codec(format!("reassemble masked input: {e}")))?;
    Ok(MaskedInput {
        client: first.client,
        vector,
        bit_width: first.bit_width,
    })
}

impl Encode for ConsistencySignature {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.client.to_le_bytes());
        out.extend_from_slice(&self.signature.0);
    }
}

/// Decodes a [`ConsistencySignature`] body.
///
/// # Errors
///
/// Rejects bodies that are not exactly 68 bytes.
pub fn decode_consistency_signature(body: &[u8]) -> Result<ConsistencySignature, NetError> {
    let mut r = Reader::new(body);
    let client = r.u32()?;
    let signature = Signature(r.take(64)?.try_into().expect("64"));
    r.finish()?;
    Ok(ConsistencySignature { client, signature })
}

impl Encode for UnmaskingResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.client.to_le_bytes());
        out.extend_from_slice(&(self.sk_shares.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.b_shares.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.own_seeds.len() as u16).to_le_bytes());
        for (owner, share) in self.sk_shares.iter().chain(self.b_shares.iter()) {
            out.extend_from_slice(&owner.to_le_bytes());
            put_share(out, share);
        }
        for (k, seed) in &self.own_seeds {
            out.extend_from_slice(&(*k as u16).to_le_bytes());
            out.extend_from_slice(seed);
        }
    }
}

/// Decodes an [`UnmaskingResponse`] body.
///
/// # Errors
///
/// Rejects truncated or over-long bodies.
pub fn decode_unmasking_response(body: &[u8]) -> Result<UnmaskingResponse, NetError> {
    let mut r = Reader::new(body);
    let client = r.u32()?;
    let n_sk = r.u16()? as usize;
    let n_b = r.u16()? as usize;
    let n_seed = r.u16()? as usize;
    let mut sk_shares = r.vec_for(n_sk, 6)?;
    for _ in 0..n_sk {
        let owner = r.u32()?;
        sk_shares.push((owner, r.share()?));
    }
    let mut b_shares = r.vec_for(n_b, 6)?;
    for _ in 0..n_b {
        let owner = r.u32()?;
        b_shares.push((owner, r.share()?));
    }
    let mut own_seeds = r.vec_for(n_seed, 34)?;
    for _ in 0..n_seed {
        let k = r.u16()? as usize;
        own_seeds.push((k, r.seed()?));
    }
    r.finish()?;
    Ok(UnmaskingResponse {
        client,
        sk_shares,
        b_shares,
        own_seeds,
    })
}

impl Encode for NoiseShareResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.client.to_le_bytes());
        out.extend_from_slice(&(self.seed_shares.len() as u16).to_le_bytes());
        for (owner, k, share) in &self.seed_shares {
            out.extend_from_slice(&owner.to_le_bytes());
            out.extend_from_slice(&(*k as u16).to_le_bytes());
            put_share(out, share);
        }
    }
}

/// Decodes a [`NoiseShareResponse`] body.
///
/// # Errors
///
/// Rejects truncated or over-long bodies.
pub fn decode_noise_share_response(body: &[u8]) -> Result<NoiseShareResponse, NetError> {
    let mut r = Reader::new(body);
    let client = r.u32()?;
    let n = r.u16()? as usize;
    let mut seed_shares = r.vec_for(n, 8)?;
    for _ in 0..n {
        let owner = r.u32()?;
        let k = r.u16()? as usize;
        seed_shares.push((owner, k, r.share()?));
    }
    r.finish()?;
    Ok(NoiseShareResponse {
        client,
        seed_shares,
    })
}

impl Encode for IdList {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.0.len() as u32).to_le_bytes());
        for id in &self.0 {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

/// Decodes an [`IdList`] body.
///
/// # Errors
///
/// Rejects count/length mismatches.
pub fn decode_id_list(body: &[u8]) -> Result<IdList, NetError> {
    let mut r = Reader::new(body);
    let n = r.u32()? as usize;
    let mut ids = r.vec_for(n, 4)?;
    for _ in 0..n {
        ids.push(r.u32()?);
    }
    r.finish()?;
    Ok(IdList(ids))
}

// ---------------------------------------------------------------------
// List framing (batched bodies).
// ---------------------------------------------------------------------

/// Encodes a batch of message bodies: `count u16`, then each body with a
/// `u32` length prefix.
pub fn encode_list<T: Encode>(items: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(items.len() as u16).to_le_bytes());
    for item in items {
        let body = item.encoded();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// Decodes a batch produced by [`encode_list`].
///
/// # Errors
///
/// Propagates item decode failures; rejects framing mismatches.
pub fn decode_list<T>(
    body: &[u8],
    decode_item: impl Fn(&[u8]) -> Result<T, NetError>,
) -> Result<Vec<T>, NetError> {
    let mut r = Reader::new(body);
    let n = r.u16()? as usize;
    let mut items = r.vec_for(n, 4)?;
    for _ in 0..n {
        let len = r.u32()? as usize;
        items.push(decode_item(r.take(len)?)?);
    }
    r.finish()?;
    Ok(items)
}

// ---------------------------------------------------------------------
// Control payloads (Join / Setup / SignatureList / Abort).
// ---------------------------------------------------------------------

/// Encodes a Join (or Decline) body: the client id followed by the
/// opaque participation-claim bytes (the coordinator hands them to the
/// session's seating verifier — `dordis-net` never interprets them). A
/// claim-free join and a Decline carry an empty claim.
#[must_use]
pub fn encode_join_claim(client: ClientId, claim: &[u8]) -> Vec<u8> {
    let mut out = client.to_le_bytes().to_vec();
    out.extend_from_slice(claim);
    out
}

/// Decodes a Join (or Decline) body into the claimed id and the
/// (possibly empty) claim tail.
///
/// # Errors
///
/// Rejects bodies shorter than the 4-byte id.
pub fn decode_join_claim(body: &[u8]) -> Result<(ClientId, Vec<u8>), NetError> {
    let mut r = Reader::new(body);
    let id = r.u32()?;
    let claim = r.take(r.remaining())?.to_vec();
    Ok((id, claim))
}

/// Encodes the Setup body: the full [`RoundParams`].
#[must_use]
pub fn encode_params(p: &RoundParams) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&p.round.to_le_bytes());
    out.extend_from_slice(&(p.clients.len() as u16).to_le_bytes());
    for id in &p.clients {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(&(p.threshold as u32).to_le_bytes());
    out.push(p.bit_width as u8);
    out.extend_from_slice(&(p.vector_len as u32).to_le_bytes());
    out.extend_from_slice(&(p.noise_components as u16).to_le_bytes());
    out.push(match p.threat_model {
        ThreatModel::SemiHonest => 0,
        ThreatModel::Malicious => 1,
    });
    match p.graph {
        MaskingGraph::Complete => out.push(0),
        MaskingGraph::Harary { half_degree } => {
            out.push(1);
            out.extend_from_slice(&(half_degree as u32).to_le_bytes());
        }
    }
    out
}

/// Encodes the full Setup body: the [`RoundParams`], the round's
/// **requested** chunk count, the *union* cohort size, and an opaque
/// application payload (e.g. the session's current global model; empty
/// for plain rounds). Both sides re-derive the identical [`ChunkPlan`]
/// by calling `ChunkPlan::aligned` with this count and the round's
/// (vector_len, bit_width) — the requested count travels, not the
/// realized bounds, so alignment clamping cannot diverge between
/// coordinator and clients. The cohort size is the round's seated
/// cohort (the coordinator sends `p.clients.len()`): XNoise planning
/// and update encoding key off it.
#[must_use]
pub fn encode_setup(p: &RoundParams, chunks: u16, cohort: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = encode_params(p);
    out.extend_from_slice(&chunks.to_le_bytes());
    out.extend_from_slice(&cohort.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes a Setup body into the round parameters, the requested chunk
/// count, the union cohort size, and the application payload tail.
///
/// # Errors
///
/// Rejects malformed bodies and unknown tags.
pub fn decode_setup(body: &[u8]) -> Result<(RoundParams, u16, u16, Vec<u8>), NetError> {
    let mut r = Reader::new(body);
    let params = decode_params_fields(&mut r)?;
    let chunks = r.u16()?;
    let cohort = r.u16()?;
    let payload = r.take(r.remaining())?.to_vec();
    Ok((params, chunks, cohort, payload))
}

/// Decodes a params-only body (no chunk count; see [`decode_setup`] for
/// the Setup wire format).
///
/// # Errors
///
/// Rejects malformed bodies and unknown tags.
pub fn decode_params(body: &[u8]) -> Result<RoundParams, NetError> {
    let mut r = Reader::new(body);
    let params = decode_params_fields(&mut r)?;
    r.finish()?;
    Ok(params)
}

fn decode_params_fields(r: &mut Reader<'_>) -> Result<RoundParams, NetError> {
    let round = r.u64()?;
    let n = r.u16()? as usize;
    let mut clients = r.vec_for(n, 4)?;
    for _ in 0..n {
        clients.push(r.u32()?);
    }
    let threshold = r.u32()? as usize;
    let bit_width = u32::from(r.u8()?);
    let vector_len = r.u32()? as usize;
    let noise_components = r.u16()? as usize;
    let threat_model = match r.u8()? {
        0 => ThreatModel::SemiHonest,
        1 => ThreatModel::Malicious,
        t => return Err(NetError::Codec(format!("unknown threat model {t}"))),
    };
    let graph = match r.u8()? {
        0 => MaskingGraph::Complete,
        1 => MaskingGraph::Harary {
            half_degree: r.u32()? as usize,
        },
        t => return Err(NetError::Codec(format!("unknown graph tag {t}"))),
    };
    Ok(RoundParams {
        round,
        clients,
        threshold,
        bit_width,
        vector_len,
        noise_components,
        threat_model,
        graph,
    })
}

/// Encodes the SignatureList body: `count u16`, then `(client u32, sig)`.
#[must_use]
pub fn encode_signature_list(sigs: &[(ClientId, Signature)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(sigs.len() as u16).to_le_bytes());
    for (id, sig) in sigs {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&sig.0);
    }
    out
}

/// Decodes a SignatureList body.
///
/// # Errors
///
/// Rejects framing mismatches.
pub fn decode_signature_list(body: &[u8]) -> Result<Vec<(ClientId, Signature)>, NetError> {
    let mut r = Reader::new(body);
    let n = r.u16()? as usize;
    let mut out = r.vec_for(n, 68)?;
    for _ in 0..n {
        let id = r.u32()?;
        out.push((id, Signature(r.take(64)?.try_into().expect("64"))));
    }
    r.finish()?;
    Ok(out)
}

/// Encodes an Abort body (UTF-8 reason).
#[must_use]
pub fn encode_abort(reason: &str) -> Vec<u8> {
    reason.as_bytes().to_vec()
}

/// Decodes an Abort body.
#[must_use]
pub fn decode_abort(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}
