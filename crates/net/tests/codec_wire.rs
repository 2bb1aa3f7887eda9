//! Codec invariants: `decode(encode(m)) == m` for every message, and
//! every message type's encoded body length, pinned as a literal.

use dordis_crypto::ed25519::Signature;
use dordis_crypto::shamir::Share;
use dordis_net::codec::{
    decode_abort, decode_advertised_keys, decode_announce, decode_consistency_signature,
    decode_encrypted_shares, decode_id_list, decode_join, decode_join_claim, decode_list,
    decode_masked_input, decode_noise_share_response, decode_params, decode_setup,
    decode_signature_list, decode_unmasking_response, encode_abort, encode_announce, encode_join,
    encode_join_claim, encode_list, encode_params, encode_setup, encode_signature_list,
    masked_input_payload, reassemble_masked_input, split_masked_input, Encode, Envelope,
    EnvelopeView, FrameContext, StageTag, HEADER_BYTES, MAX_FRAME_BYTES, WIRE_VERSION,
};
use dordis_net::pool::BytePool;
use dordis_net::tcp::FrameBuffer;
use dordis_net::NetError;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::messages::{
    AdvertisedKeys, ConsistencySignature, EncryptedShares, IdList, MaskedInput, NoiseShareResponse,
    UnmaskingResponse,
};
use dordis_secagg::{ChunkPlan, RoundParams, ThreatModel};

fn share(x: u8, len: usize) -> Share {
    Share {
        x,
        y: (0..len).map(|i| (i as u8).wrapping_mul(x)).collect(),
    }
}

fn ctx() -> FrameContext {
    FrameContext {
        stage: StageTag::MaskedInput,
        round: 7,
        chunk: 0,
    }
}

#[test]
fn advertised_keys_roundtrip_and_size() {
    for (signature, len) in [(None, 68), (Some(Signature([7u8; 64])), 132)] {
        let m = AdvertisedKeys {
            client: 42,
            c_pk: [1u8; 32],
            s_pk: [2u8; 32],
            signature,
        };
        assert_eq!(m.encoded().len(), len);
        assert_eq!(decode_advertised_keys(&m.encoded()).unwrap(), m);
    }
    // Bodies of any other tail length are rejected.
    let m = AdvertisedKeys {
        client: 1,
        c_pk: [0u8; 32],
        s_pk: [0u8; 32],
        signature: None,
    };
    let mut bad = m.encoded();
    bad.push(0);
    assert!(decode_advertised_keys(&bad).is_err());
}

#[test]
fn encrypted_shares_roundtrip_and_size() {
    for (ct_len, len) in [(0, 8), (1, 9), (200, 208)] {
        let m = EncryptedShares {
            from: 3,
            to: 9,
            ciphertext: vec![0xab; ct_len],
        };
        assert_eq!(m.encoded().len(), len);
        assert_eq!(decode_encrypted_shares(&m.encoded()).unwrap(), m);
    }
}

#[test]
fn masked_input_roundtrip_and_size_across_bit_widths() {
    // Encoded lengths at 0, 1, 5, 64 and 1000 coordinates: the sender id
    // and the coordinates packed at `bits` bits each, rounded up to bytes.
    let table = [
        (1u32, [4, 5, 5, 12, 129]),
        (7, [4, 5, 9, 60, 879]),
        (8, [4, 5, 9, 68, 1004]),
        (16, [4, 6, 14, 132, 2004]),
        (20, [4, 7, 17, 164, 2504]),
        (33, [4, 9, 25, 268, 4129]),
        (62, [4, 12, 43, 500, 7754]),
    ];
    for (bits, lens) in table {
        for (len, encoded) in [0usize, 1, 5, 64, 1000].into_iter().zip(lens) {
            let mask = (1u64 << bits) - 1;
            let m = MaskedInput {
                client: 5,
                vector: (0..len as u64).map(|i| (i * 0x9e37 + 11) & mask).collect(),
                bit_width: bits,
            };
            assert_eq!(m.encoded().len(), encoded, "bits={bits} len={len}");
            let back = decode_masked_input(&m.encoded(), bits, len, ctx()).unwrap();
            assert_eq!(back, m, "bits={bits} len={len}");
        }
    }
    // Length mismatches are rejected.
    let m = MaskedInput {
        client: 0,
        vector: vec![1, 2, 3],
        bit_width: 20,
    };
    assert!(decode_masked_input(&m.encoded(), 20, 4, ctx()).is_err());
    assert!(decode_masked_input(&m.encoded(), 24, 3, ctx()).is_err());
}

#[test]
fn masked_input_errors_carry_frame_context() {
    // A bad frame must be attributable: the error names the stage, the
    // round, and the chunk the collection machine was decoding.
    let m = MaskedInput {
        client: 9,
        vector: vec![1, 2, 3],
        bit_width: 20,
    };
    let bad_ctx = FrameContext {
        stage: StageTag::MaskedInput,
        round: 42,
        chunk: 3,
    };
    let err = decode_masked_input(&m.encoded(), 20, 4, bad_ctx).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("MaskedInput"), "{msg}");
    assert!(msg.contains("round 42"), "{msg}");
    assert!(msg.contains("chunk 3"), "{msg}");
    assert!(msg.contains("client 9"), "{msg}");
}

#[test]
fn chunk_payloads_partition_single_frame() {
    // The headline wire-accounting property: per-chunk bodies are the
    // exact byte-slices of the single-frame packing — summed payloads
    // are byte-equal to the unchunked accounting, and concatenation
    // reproduces the single frame bit for bit.
    for bits in [1u32, 7, 8, 16, 20, 33, 62] {
        for (len, m) in [(96usize, 4usize), (1000, 8), (517, 5), (12, 3)] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let full = MaskedInput {
                client: 21,
                vector: (0..len as u64).map(|i| (i * 0x9e37 + 3) & mask).collect(),
                bit_width: bits,
            };
            let plan = ChunkPlan::aligned(len, m, bits).unwrap();
            let chunks = split_masked_input(&full, &plan).unwrap();
            assert_eq!(chunks.len(), plan.chunks());

            let full_body = full.encoded();
            // Payloads (bodies minus the 4-byte sender id) partition the
            // single-frame payload exactly.
            let mut concat = Vec::new();
            let mut summed = 0usize;
            for c in &chunks {
                let body = c.encoded();
                concat.extend_from_slice(&body[4..]);
                summed += body.len() - 4;
            }
            assert_eq!(summed, full_body.len() - 4, "bits={bits} len={len} m={m}");
            assert_eq!(concat, full_body[4..], "bits={bits} len={len} m={m}");

            // And each chunk body slices out of the full packing at the
            // plan's byte ranges.
            for (c, part) in chunks.iter().enumerate() {
                let body = part.encoded();
                let r = plan.byte_range(c);
                assert_eq!(&body[4..], &full_body[4 + r.start..4 + r.end]);
            }

            // Round-trip: decode each chunk, reassemble, compare.
            let decoded: Vec<MaskedInput> = chunks
                .iter()
                .enumerate()
                .map(|(c, part)| {
                    decode_masked_input(
                        &part.encoded(),
                        bits,
                        plan.chunk_len(c),
                        FrameContext {
                            stage: StageTag::MaskedInput,
                            round: 1,
                            chunk: c as u16,
                        },
                    )
                    .unwrap()
                })
                .collect();
            assert_eq!(reassemble_masked_input(&decoded, &plan).unwrap(), full);
        }
    }
}

#[test]
fn consistency_signature_roundtrip_and_size() {
    let m = ConsistencySignature {
        client: 17,
        signature: Signature([9u8; 64]),
    };
    assert_eq!(m.encoded().len(), 68);
    assert_eq!(decode_consistency_signature(&m.encoded()).unwrap(), m);
}

#[test]
fn unmasking_response_roundtrip_and_size() {
    let m = UnmaskingResponse {
        client: 7,
        sk_shares: vec![(1, share(2, 32)), (4, share(3, 32))],
        b_shares: vec![(2, share(2, 32)), (3, share(2, 32)), (7, share(9, 32))],
        own_seeds: vec![(2, [0xcd; 32]), (3, [0xee; 32])],
    };
    // Sender id, three u16 section counts, five shares of (owner u32,
    // x u8, len u8, 32-byte y), two seeds of (component u16, 32 bytes).
    assert_eq!(m.encoded().len(), 4 + 6 + 5 * 38 + 2 * 34);
    assert_eq!(decode_unmasking_response(&m.encoded()).unwrap(), m);

    // Empty sections work too.
    let empty = UnmaskingResponse {
        client: 0,
        sk_shares: vec![],
        b_shares: vec![],
        own_seeds: vec![],
    };
    assert_eq!(empty.encoded().len(), 10);
    assert_eq!(decode_unmasking_response(&empty.encoded()).unwrap(), empty);
}

#[test]
fn noise_share_response_roundtrip_and_size() {
    let m = NoiseShareResponse {
        client: 11,
        seed_shares: vec![
            (1, 1, share(5, 32)),
            (1, 2, share(5, 32)),
            (9, 2, share(6, 17)),
        ],
    };
    // Sender id, u16 entry count, entries of (owner u32, component u16,
    // x u8, len u8, y).
    assert_eq!(m.encoded().len(), 6 + 40 + 40 + 25);
    assert_eq!(decode_noise_share_response(&m.encoded()).unwrap(), m);
}

#[test]
fn id_list_roundtrip_and_size() {
    for (n, len) in [(0u32, 4), (1, 8), (100, 404)] {
        let m = IdList((0..n).collect());
        assert_eq!(m.encoded().len(), len);
        assert_eq!(decode_id_list(&m.encoded()).unwrap(), m);
    }
}

#[test]
fn truncated_bodies_are_rejected_not_panicking() {
    let m = UnmaskingResponse {
        client: 7,
        sk_shares: vec![(1, share(2, 32))],
        b_shares: vec![(2, share(2, 32))],
        own_seeds: vec![(2, [0xcd; 32])],
    };
    let enc = m.encoded();
    for keep in 0..enc.len() {
        assert!(
            decode_unmasking_response(&enc[..keep]).is_err(),
            "len {keep}"
        );
    }
    let mut extended = enc.clone();
    extended.push(0);
    assert!(decode_unmasking_response(&extended).is_err());
}

#[test]
fn list_framing_roundtrips() {
    let items: Vec<EncryptedShares> = (0..5)
        .map(|i| EncryptedShares {
            from: i,
            to: (i + 1) % 5,
            ciphertext: vec![i as u8; (i as usize + 1) * 3],
        })
        .collect();
    let body = encode_list(&items);
    let back = decode_list(&body, decode_encrypted_shares).unwrap();
    assert_eq!(back, items);
    // Empty lists too.
    let empty: Vec<EncryptedShares> = vec![];
    assert_eq!(
        decode_list(&encode_list(&empty), decode_encrypted_shares).unwrap(),
        empty
    );
}

#[test]
fn envelope_roundtrip_and_version_gate() {
    let env = Envelope::new(StageTag::MaskedInput, 0xdead_beef_0042, vec![1, 2, 3]);
    let enc = env.encode();
    assert_eq!(Envelope::decode(&enc).unwrap(), env);
    assert_eq!(enc.len(), HEADER_BYTES + 3);
    assert_eq!(env.chunk, 0);

    // Chunked envelopes carry their chunk id through the header.
    let chunked = Envelope::chunked(StageTag::MaskedInput, 9, 5, vec![7, 8]);
    assert_eq!(Envelope::decode(&chunked.encode()).unwrap(), chunked);
    assert_eq!(Envelope::decode(&chunked.encode()).unwrap().chunk, 5);

    let mut wrong_stage = enc;
    wrong_stage[1] = 200;
    assert!(Envelope::decode(&wrong_stage).is_err());
    assert!(Envelope::decode(&[]).is_err());
    assert!(Envelope::decode(&[WIRE_VERSION, 2]).is_err());
}

#[test]
fn version_mismatch_is_a_typed_error() {
    // Chunked frames changed the wire contract; a v1 peer must surface
    // as NetError::Version with both versions named, not as generic
    // codec garbage.
    let env = Envelope::new(StageTag::Join, 1, encode_join(3));
    for got in [0u8, WIRE_VERSION - 1, WIRE_VERSION + 1, 0xff] {
        let mut frame = env.encode();
        frame[0] = got;
        match Envelope::decode(&frame) {
            Err(NetError::Version { got: g, expected }) => {
                assert_eq!(g, got);
                assert_eq!(expected, WIRE_VERSION);
            }
            other => panic!("expected NetError::Version, got {other:?}"),
        }
    }
    // Even a truncated frame from an old peer reports the version first
    // (that is the actionable diagnosis).
    assert!(matches!(
        Envelope::decode(&[1u8]),
        Err(NetError::Version { got: 1, .. })
    ));
}

#[test]
fn setup_body_carries_requested_chunk_count() {
    let p = RoundParams {
        round: 3,
        clients: (0..6).collect(),
        threshold: 4,
        bit_width: 20,
        vector_len: 64,
        noise_components: 2,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    };
    for chunks in [1u16, 4, 8, 20] {
        let (back, m, cohort, payload) = decode_setup(&encode_setup(&p, chunks, 6, &[])).unwrap();
        assert_eq!(m, chunks);
        assert_eq!(cohort, 6);
        assert!(payload.is_empty());
        assert_eq!(back.vector_len, p.vector_len);
        assert_eq!(back.clients, p.clients);
    }
    // The application payload travels opaquely after the counters, and
    // the cohort field may exceed the round's own client set.
    let (_, m, cohort, payload) = decode_setup(&encode_setup(&p, 4, 128, &[9, 8, 7])).unwrap();
    assert_eq!(m, 4);
    assert_eq!(cohort, 128);
    assert_eq!(payload, vec![9, 8, 7]);
    // Truncating the trailing counters is rejected.
    let body = encode_setup(&p, 4, 6, &[]);
    assert!(decode_setup(&body[..body.len() - 1]).is_err());
}

#[test]
fn control_payloads_roundtrip() {
    assert_eq!(decode_join(&encode_join(77)).unwrap(), 77);
    assert!(decode_join(&[1, 2, 3]).is_err());

    for graph in [
        MaskingGraph::Complete,
        MaskingGraph::Harary { half_degree: 4 },
    ] {
        for threat_model in [ThreatModel::SemiHonest, ThreatModel::Malicious] {
            let p = RoundParams {
                round: 9,
                clients: (0..10).collect(),
                threshold: 6,
                bit_width: 20,
                vector_len: 128,
                noise_components: 3,
                threat_model,
                graph,
            };
            let back = decode_params(&encode_params(&p)).unwrap();
            assert_eq!(back.round, p.round);
            assert_eq!(back.clients, p.clients);
            assert_eq!(back.threshold, p.threshold);
            assert_eq!(back.bit_width, p.bit_width);
            assert_eq!(back.vector_len, p.vector_len);
            assert_eq!(back.noise_components, p.noise_components);
            assert_eq!(back.threat_model, p.threat_model);
            assert_eq!(back.graph, p.graph);
        }
    }

    // Each fixed-width Setup field round-trips at its maximum, and
    // `validate` refuses one past it instead of letting the wire
    // truncate it.
    let wide = RoundParams {
        round: 9,
        clients: (0..10).collect(),
        threshold: 6,
        bit_width: 20,
        vector_len: u32::MAX as usize,
        noise_components: usize::from(u16::MAX),
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    };
    wide.validate().expect("wire maxima are valid");
    let back = decode_params(&encode_params(&wide)).unwrap();
    assert_eq!(back.vector_len, wide.vector_len);
    assert_eq!(back.noise_components, wide.noise_components);
    for past in [
        RoundParams {
            vector_len: wide.vector_len + 1,
            ..wide.clone()
        },
        RoundParams {
            noise_components: wide.noise_components + 1,
            ..wide.clone()
        },
    ] {
        assert!(past.validate().is_err(), "{past:?}");
    }

    let sigs = vec![(1u32, Signature([3u8; 64])), (2, Signature([4u8; 64]))];
    assert_eq!(
        decode_signature_list(&encode_signature_list(&sigs)).unwrap(),
        sigs
    );

    assert_eq!(
        decode_abort(&encode_abort("below threshold")),
        "below threshold"
    );
}

mod chunked_frame_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Full wire loop for the chunked data plane over random dims,
        /// chunk counts, and bit widths: split → per-chunk envelope
        /// encode/decode → body decode → reassemble == identity.
        #[test]
        fn prop_chunked_masked_input_frames_roundtrip(
            len in 0usize..400,
            m in 1usize..10,
            bits in 1u32..63,
            round in 0u64..10_000,
        ) {
            let mask = (1u64 << bits) - 1;
            let full = MaskedInput {
                client: 7,
                vector: (0..len as u64).map(|i| i.wrapping_mul(0x517c_c1b7) & mask).collect(),
                bit_width: bits,
            };
            let plan = ChunkPlan::aligned(len, m, bits).unwrap();
            let parts = split_masked_input(&full, &plan).unwrap();
            prop_assert_eq!(parts.len(), plan.chunks());
            let mut decoded = Vec::with_capacity(parts.len());
            for (c, part) in parts.iter().enumerate() {
                let env = Envelope::chunked(StageTag::MaskedInput, round, c as u16, part.encoded());
                let back = Envelope::decode(&env.encode()).unwrap();
                prop_assert_eq!(usize::from(back.chunk), c);
                prop_assert_eq!(back.round, round);
                let mi = decode_masked_input(&back.body, bits, plan.chunk_len(c), back.context()).unwrap();
                decoded.push(mi);
            }
            prop_assert_eq!(reassemble_masked_input(&decoded, &plan).unwrap(), full);
        }

        /// The zero-copy view is byte-equal to the owning decoder on
        /// every frame the owning decoder accepts: same header fields,
        /// and `view.body` is exactly the borrowed tail of the frame
        /// that `Envelope::decode` copies out. Decoding a masked input
        /// straight from the borrowed slice yields the same chunk.
        #[test]
        fn prop_envelope_view_matches_owning_decode(
            len in 0usize..200,
            bits in 1u32..63,
            round in 0u64..10_000,
            chunk in 0u16..64,
            client in 0u32..1000,
        ) {
            let mask = (1u64 << bits) - 1;
            let part = MaskedInput {
                client,
                vector: (0..len as u64).map(|i| i.wrapping_mul(0x9e37_79b9) & mask).collect(),
                bit_width: bits,
            };
            let frame = Envelope::chunked(StageTag::MaskedInput, round, chunk, part.encoded())
                .encode();
            let owned = Envelope::decode(&frame).unwrap();
            let view = EnvelopeView::decode(&frame).unwrap();
            prop_assert_eq!(view.stage, owned.stage);
            prop_assert_eq!(view.round, owned.round);
            prop_assert_eq!(view.chunk, owned.chunk);
            prop_assert_eq!(view.body, owned.body.as_slice());
            prop_assert_eq!(view.body.as_ptr(), frame[HEADER_BYTES..].as_ptr());
            prop_assert_eq!(view.context(), owned.context());
            let from_view = decode_masked_input(view.body, bits, len, view.context()).unwrap();
            let from_owned = decode_masked_input(&owned.body, bits, len, owned.context()).unwrap();
            prop_assert_eq!(&from_view, &from_owned);
            prop_assert_eq!(from_view, part);

            // Corrupt frames are rejected identically (same typed
            // error) by both decoders.
            for cut in 1..=frame.len().min(3) {
                let truncated = &frame[..frame.len() - cut];
                let o = Envelope::decode(truncated);
                let v = EnvelopeView::decode(truncated);
                prop_assert_eq!(o.is_err(), v.is_err());
            }
        }
    }
}

/// Hostile bytes: whatever a peer puts on the wire, every decoder and
/// the stream reassembler return a value or a typed [`NetError`] — they
/// never panic, and a garbage length prefix never sizes an allocation.
/// This input check, the per-stage deadlines and the kernel's socket
/// buffers are what bound a misbehaving peer.
mod hostile_bytes {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    /// Packing parameters of the valid `MaskedInput` frame below.
    const BITS: u32 = 20;
    const LEN: usize = 24;

    /// One well-formed body of every kind the runtime or the coordinator
    /// sends.
    fn valid_bodies() -> Vec<Vec<u8>> {
        let keys = AdvertisedKeys {
            client: 3,
            c_pk: [1u8; 32],
            s_pk: [2u8; 32],
            signature: Some(Signature([7u8; 64])),
        };
        let shares = EncryptedShares {
            from: 3,
            to: 4,
            ciphertext: vec![0xab; 40],
        };
        let params = RoundParams {
            round: 3,
            clients: (0..6).collect(),
            threshold: 4,
            bit_width: BITS,
            vector_len: LEN,
            noise_components: 2,
            threat_model: ThreatModel::Malicious,
            graph: MaskingGraph::Harary { half_degree: 2 },
        };
        let masked = MaskedInput {
            client: 3,
            vector: (0..LEN as u64).map(|i| i * 0x9e37).collect(),
            bit_width: BITS,
        };
        let unmasking = UnmaskingResponse {
            client: 3,
            sk_shares: vec![(1, share(2, 32))],
            b_shares: vec![(2, share(2, 32)), (4, share(2, 32))],
            own_seeds: vec![(1, [0xcd; 32])],
        };
        let noise = NoiseShareResponse {
            client: 3,
            seed_shares: vec![(1, 1, share(5, 32)), (4, 2, share(5, 32))],
        };
        let signed = (3, Signature([9u8; 64]));
        vec![
            encode_join_claim(5, b"claim"),
            encode_setup(&params, 4, 6, &[9, 8, 7]),
            keys.encoded(),
            encode_list(&[keys.clone(), keys]),
            encode_list(&[shares.clone(), shares]),
            masked.encoded(),
            IdList((0..6).collect()).encoded(),
            ConsistencySignature {
                client: signed.0,
                signature: signed.1,
            }
            .encoded(),
            encode_signature_list(&[signed, signed]),
            unmasking.encoded(),
            noise.encoded(),
            encode_abort("below threshold"),
            encode_announce(true),
            Vec::new(),
        ]
    }

    /// A valid frame for every [`StageTag`], between them carrying every
    /// body kind.
    fn valid_frames() -> Vec<Vec<u8>> {
        let bodies = valid_bodies();
        (0..=u8::MAX)
            .filter_map(StageTag::from_u8)
            .zip(bodies.iter().cycle())
            .map(|(stage, body)| Envelope::chunked(stage, 3, 1, body.clone()).encode())
            .collect()
    }

    /// Flips the bits `flips` selects and truncates or extends the tail
    /// as `tail` says (`tail % 3`: leave, cut, append).
    fn mutate(bytes: &mut Vec<u8>, flips: &[u64], tail: u64) {
        for &f in flips {
            if !bytes.is_empty() {
                let bit = (f % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let amount = (tail >> 8) as usize;
        match tail % 3 {
            1 => bytes.truncate(amount % (bytes.len() + 1)),
            2 => bytes.extend((0..amount % 17).map(|i| (tail >> (i % 8)) as u8)),
            _ => {}
        }
    }

    /// Every public decoder over `frame`, read as a frame and — whole
    /// and past the header — as a body. Returning at all is the
    /// property: an `Err` is a typed `NetError` by signature.
    fn decode_everything(frame: &[u8]) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            Envelope::decode(frame).is_err(),
            EnvelopeView::decode(frame).is_err()
        );
        for body in [frame, frame.get(HEADER_BYTES..).unwrap_or_default()] {
            let _ = decode_advertised_keys(body);
            let _ = decode_encrypted_shares(body);
            let _ = decode_consistency_signature(body);
            let _ = decode_unmasking_response(body);
            let _ = decode_noise_share_response(body);
            let _ = decode_id_list(body);
            let _ = decode_list(body, decode_advertised_keys);
            let _ = decode_list(body, decode_encrypted_shares);
            let _ = decode_join(body);
            let _ = decode_join_claim(body);
            let _ = decode_announce(body);
            let _ = decode_setup(body);
            let _ = decode_params(body);
            let _ = decode_signature_list(body);
            let _ = decode_abort(body);
            // The round's own packing, and widths whose element count
            // is sized to the payload so the unpacker runs on it.
            let _ = decode_masked_input(body, BITS, LEN, ctx());
            let payload_bits = body.len().saturating_sub(4) * 8;
            for bits in [1u32, 8, 20, 32, 33, 62] {
                let _ = decode_masked_input(body, bits, payload_bits / bits as usize, ctx());
            }
            // The coordinator's split: the sender id, then the rest
            // borrowed as it is.
            match masked_input_payload(body) {
                Ok((_, payload)) => prop_assert_eq!(payload, &body[4..]),
                Err(_) => prop_assert!(body.len() < 4),
            }
        }
        Ok(())
    }

    /// Feeds `stream` to an accounted [`FrameBuffer`] through reads of
    /// at most the pieces `splits` cuts (then the rest at once); returns
    /// the frames delivered and whether a length prefix poisoned the
    /// stream — which must stick, and must not have taken the refused
    /// frame into custody: the account holds exactly the buffered stream
    /// bytes plus the taken frames' bytes.
    fn reassemble(stream: &[u8], splits: &[usize]) -> Result<(Vec<Vec<u8>>, bool), TestCaseError> {
        let account = BytePool::new().account();
        let mut buf = FrameBuffer::new();
        buf.attach_account(account.clone());
        let (mut taken, mut poisoned, mut rest) = (Vec::new(), false, stream);
        let mut cuts = splits.iter().copied();
        while !rest.is_empty() && !poisoned {
            let cut = cuts.next().unwrap_or(usize::MAX).min(rest.len());
            let mut piece = &rest[..cut];
            let n = buf.read_from(&mut piece).expect("in-memory reads");
            rest = &rest[n..];
            while !poisoned {
                match buf.take_frame() {
                    Ok(Some(frame)) => taken.push(frame),
                    Ok(None) => break,
                    Err(_) => poisoned = true,
                }
            }
        }
        prop_assert!(buf.take_frame().is_err() == poisoned, "poison must stick");
        let held: usize = taken.iter().map(Vec::len).sum();
        prop_assert_eq!(account.charged_ingress(), (buf.len() + held) as u64);
        Ok((taken, poisoned))
    }

    /// Hands out at most `sizes[call % len]` bytes of `stream` per read
    /// (a trickling peer) and records the largest buffer it was offered.
    struct Trickle<'a> {
        stream: &'a [u8],
        sizes: &'a [usize],
        call: usize,
        offered: usize,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, dst: &mut [u8]) -> std::io::Result<usize> {
            self.offered = self.offered.max(dst.len());
            let n = self.sizes[self.call % self.sizes.len()]
                .min(dst.len())
                .min(self.stream.len());
            self.call += 1;
            dst[..n].copy_from_slice(&self.stream[..n]);
            self.stream = &self.stream[n..];
            Ok(n)
        }
    }

    /// Feeds `stream` to a [`FrameBuffer`] through blocking reads of
    /// the sizes `sizes` cycles through; returns the frames delivered
    /// and the bytes of the unfinished frame. No read may be offered
    /// more than `max(2 × buffered, 64 KiB)` bytes, whatever length the
    /// stream's prefixes announce.
    fn trickle(stream: &[u8], sizes: &[usize]) -> Result<(Vec<Vec<u8>>, usize), TestCaseError> {
        let mut reader = Trickle {
            stream,
            sizes,
            call: 0,
            offered: 0,
        };
        let mut buf = FrameBuffer::new();
        let mut taken = Vec::new();
        loop {
            while let Some(frame) = buf.take_frame().expect("frames within the cap") {
                taken.push(frame);
            }
            let bound = (2 * buf.len()).max(64 * 1024);
            reader.offered = 0;
            if buf.read_from(&mut reader).expect("in-memory reads") == 0 {
                return Ok((taken, buf.len()));
            }
            prop_assert!(
                reader.offered <= bound,
                "offered {} of {bound}",
                reader.offered
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn trickled_frames_never_size_the_reader_from_the_prefix(
            body in collection::vec(any::<u8>(), 0..300),
            sizes in collection::vec(1usize..200, 1..40),
        ) {
            // Every stage's valid frame, then a prefix announcing the
            // largest legal frame and a body that never completes it.
            let frames = valid_frames();
            let mut stream = Vec::new();
            for frame in &frames {
                stream.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                stream.extend_from_slice(frame);
            }
            stream.extend_from_slice(&(MAX_FRAME_BYTES as u32).to_le_bytes());
            stream.extend_from_slice(&body);
            prop_assert_eq!(trickle(&stream, &sizes)?, (frames.clone(), 4 + body.len()));
            prop_assert_eq!(trickle(&stream, &[1])?, (frames, 4 + body.len()));
        }

        #[test]
        fn hostile_bytes_yield_typed_errors_never_panics(
            arbitrary in collection::vec(any::<u8>(), 0..300),
            flips in collection::vec(any::<u64>(), 1..9),
            tail in any::<u64>(),
            splits in collection::vec(1usize..200, 0..40),
            oversize in (MAX_FRAME_BYTES as u64 + 1)..(1u64 << 32),
        ) {
            // What comes out of a stream never depends on how it was cut.
            decode_everything(&arbitrary)?;
            prop_assert_eq!(reassemble(&arbitrary, &splits)?, reassemble(&arbitrary, &[])?);

            // Every stage's valid frame, damaged.
            let frames = valid_frames();
            let mut stream = Vec::new();
            for frame in &frames {
                prop_assert!(Envelope::decode(frame).is_ok());
                stream.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                stream.extend_from_slice(frame);
                let mut damaged = frame.clone();
                mutate(&mut damaged, &flips, tail);
                decode_everything(&damaged)?;
            }
            // The same frames as one stream, then a prefix past the
            // frame cap: they are delivered, then the stream is poisoned.
            let mut capped = stream.clone();
            capped.extend_from_slice(&(oversize as u32).to_le_bytes());
            capped.extend_from_slice(&arbitrary);
            prop_assert_eq!(reassemble(&capped, &splits)?, (frames, true));
            // And that stream damaged anywhere.
            mutate(&mut stream, &flips, tail);
            prop_assert_eq!(reassemble(&stream, &splits)?, reassemble(&stream, &[])?);
        }
    }
}
