//! The server's custody of incomplete chunk streams: a chunk that does
//! not complete its sender's stream waits bit-packed, the chunk that
//! completes it folds the whole stream, and none of that is visible in
//! the outcome — which must equal the in-memory driver's round with the
//! same survivors bit for bit, whatever order the chunks are unmasked
//! in. A chunk is unmasked once: a second call is refused, and a chunk
//! never unmasked reads as zeros.

use std::collections::BTreeMap;

use dordis_pipeline::ChunkPlan;
use dordis_secagg::client::{Client, ClientInput};
use dordis_secagg::driver::{
    client_rng, run_round, share_keys_rng, DropStage, DropoutSchedule, RoundSpec,
};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::messages::{MaskedInput, UnmaskingResponse};
use dordis_secagg::server::Server;
use dordis_secagg::{ClientId, RoundParams, SecAggError, ThreatModel};

const SEED: u64 = 0xc0_57_0d;
const BITS: u32 = 20;
const DIM: usize = 64;
const CHUNKS: usize = 4;
/// Sends chunk 0 and nothing else.
const PARTIAL: ClientId = 2;
/// Re-sends a parked chunk, and one more after its stream folded.
const RESENDER: ClientId = 0;

fn params() -> RoundParams {
    RoundParams {
        round: 3,
        clients: (0..6).collect(),
        threshold: 4,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

fn inputs() -> BTreeMap<ClientId, ClientInput> {
    params()
        .clients
        .iter()
        .map(|&id| {
            let vector = (0..DIM as u64)
                .map(|i| (u64::from(id) * 1009 + i * 31 + 7) & ((1 << BITS) - 1))
                .collect();
            (
                id,
                ClientInput {
                    vector,
                    noise_seeds: vec![],
                },
            )
        })
        .collect()
}

fn plan() -> ChunkPlan {
    ChunkPlan::aligned(DIM, CHUNKS, BITS).unwrap()
}

/// Runs the round's custody script up to the unmasking responses:
/// seeded throughout, so every call builds the same server state.
fn custody_round() -> (Server, Vec<UnmaskingResponse>) {
    let params = params();
    let plan = plan();
    assert_eq!(plan.chunks(), CHUNKS);
    let mut server = Server::with_chunks(params.clone(), plan.clone()).unwrap();
    let mut clients: BTreeMap<ClientId, Client> = inputs()
        .into_iter()
        .map(|(id, input)| {
            let c = Client::new(params.clone(), id, input, None, &mut client_rng(SEED, id));
            (id, c.unwrap())
        })
        .collect();
    let advs = clients
        .values_mut()
        .map(|c| c.advertise_keys().unwrap())
        .collect();
    let roster = server.collect_advertisements(advs).unwrap();
    let mut cts = Vec::new();
    for (&id, c) in clients.iter_mut() {
        cts.extend(
            c.share_keys(&roster, &mut share_keys_rng(SEED, id))
                .unwrap(),
        );
    }
    let mut inboxes = server.route_shares(cts).unwrap();

    let garbage = |id: ClientId, c: usize| MaskedInput {
        client: id,
        vector: vec![0xf_ffff; plan.chunk_len(c)],
        bit_width: BITS,
    };
    for (&id, c) in clients.iter_mut() {
        let cursor = c.begin_masked_input(inboxes.remove(&id).unwrap()).unwrap();
        let part = |c: usize| cursor.chunk(plan.range(c));
        match id {
            PARTIAL => server.collect_masked_chunk(0, vec![part(0)]).unwrap(),
            RESENDER => {
                // A parked chunk is replaced by its re-send…
                server
                    .collect_masked_chunk(1, vec![garbage(id, 1)])
                    .unwrap();
                for c in [1, 0, 2, 3] {
                    server.collect_masked_chunk(c, vec![part(c)]).unwrap();
                }
                // …and a frame for a folded stream is discarded.
                server
                    .collect_masked_chunk(0, vec![garbage(id, 0)])
                    .unwrap();
            }
            // Everyone else streams back to front.
            _ => {
                for c in (0..CHUNKS).rev() {
                    server.collect_masked_chunk(c, vec![part(c)]).unwrap();
                }
            }
        }
    }
    // The rejections custody must not have loosened.
    let short = MaskedInput {
        client: 1,
        vector: vec![0; plan.chunk_len(0) - 1],
        bit_width: BITS,
    };
    for bad in [
        server.collect_masked_chunk(0, vec![short]),
        server.collect_masked_chunk(0, vec![garbage(99, 0)]),
        server.collect_masked_chunk(CHUNKS, vec![garbage(1, 0)]),
    ] {
        assert!(matches!(bad, Err(SecAggError::Config(_))), "{bad:?}");
    }

    let u3 = server.finalize_masked().unwrap();
    assert_eq!(u3, vec![0, 1, 3, 4, 5], "the partial stream is a dropout");
    let responses = u3
        .iter()
        .map(|id| clients.get_mut(id).unwrap().unmask(&u3, None).unwrap())
        .collect();
    (server, responses)
}

#[test]
fn parked_chunks_fold_only_when_their_stream_completes() {
    let (mut server, responses) = custody_round();
    server.reconstruct_unmasking(responses).unwrap();
    for c in [2, 0, 3, 1] {
        server.unmask_chunk(c).unwrap();
    }
    let again = server.unmask_chunk(2);
    assert!(matches!(again, Err(SecAggError::Config(_))), "{again:?}");
    assert!(server.privacy_invariant_holds());
    let outcome = server.finish();

    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(PARTIAL, DropStage::BeforeMaskedInput);
    let (reference, _) = run_round(RoundSpec {
        params: params(),
        inputs: inputs(),
        dropout,
        rng_seed: SEED,
    })
    .unwrap();
    assert_eq!(outcome.sum, reference.sum);
    assert_eq!(outcome.survivors, reference.survivors);
    assert_eq!(outcome.dropped, vec![PARTIAL]);
    let mut plain = vec![0u64; DIM];
    for id in &outcome.survivors {
        for (s, v) in plain.iter_mut().zip(&inputs()[id].vector) {
            *s = (*s + v) & ((1 << BITS) - 1);
        }
    }
    assert_eq!(outcome.sum, plain);

    // The same round with chunk 1 never unmasked: its range reads zeros,
    // every other chunk is unchanged.
    let (mut copy, responses) = custody_round();
    copy.reconstruct_unmasking(responses).unwrap();
    for c in [2, 0, 3] {
        copy.unmask_chunk(c).unwrap();
    }
    let partial = copy.finish();
    let skipped = plan().range(1);
    assert_eq!(partial.sum.len(), DIM);
    for (i, (&got, &want)) in partial.sum.iter().zip(&outcome.sum).enumerate() {
        let want = if skipped.contains(&i) { 0 } else { want };
        assert_eq!(got, want, "element {i}");
    }
}
