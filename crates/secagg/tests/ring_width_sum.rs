//! The server's ring-width running sum and its packed entry, checked
//! against code that does not use [`Server`].
//!
//! - Differentially: at every ring width on both sides of the 32-bit
//!   word, for 1–8 chunks, random arrival order, partial streams,
//!   re-sent chunks, through either entry and with the payloads'
//!   padding bits set,
//!   `finish().sum` equals the survivors' plain sum (`secagg::plain`)
//!   and the in-memory driver's round with the same dropouts, and the
//!   server's custody is the sum at ring width plus exactly the parked
//!   payloads.
//! - On hostile payloads: a payload of the wrong length, from outside
//!   U2 or for a chunk outside the plan is refused before any element
//!   is read, and leaves custody as it was.

use std::collections::{BTreeMap, BTreeSet};

use dordis_pipeline::ChunkPlan;
use dordis_secagg::client::{Client, ClientInput};
use dordis_secagg::driver::{
    client_rng, run_round, share_keys_rng, DropStage, DropoutSchedule, RoundSpec,
};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::messages::{AdvertisedKeys, EncryptedShares, MaskedInput};
use dordis_secagg::server::Server;
use dordis_secagg::{mask, pack, plain, ClientId, RoundParams, SecAggError, ThreatModel};
use proptest::prelude::*;

const SEED: u64 = 0x51_6e_a1;
const THRESHOLD: usize = 2;

fn params(n: u32, bits: u32, dim: usize) -> RoundParams {
    RoundParams {
        round: 5,
        clients: (0..n).collect(),
        threshold: THRESHOLD,
        bit_width: bits,
        vector_len: dim,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

/// Inputs spread over the whole ring, so the top bit of every width is
/// exercised.
fn inputs(p: &RoundParams) -> BTreeMap<ClientId, ClientInput> {
    let ring = mask::ring_mask(p.bit_width);
    p.clients
        .iter()
        .map(|&id| {
            let mut x = u64::from(id + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let vector = (0..p.vector_len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x & ring
                })
                .collect();
            let input = ClientInput {
                vector,
                noise_seeds: vec![],
            };
            (id, input)
        })
        .collect()
}

/// A small deterministic generator for the arrival schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Sets the padding bits of a packed payload's last byte (the bits past
/// its last element), if it has any.
fn set_padding(payload: &mut [u8], len: usize, bits: u32) {
    let pad = payload.len() * 8 - len * bits as usize;
    if let (Some(last), 1..=7) = (payload.last_mut(), pad) {
        *last |= 0xffu8 << (8 - pad);
    }
}

/// Bytes of the running sum at ring width.
fn sum_bytes(bits: u32, dim: usize) -> usize {
    dim * if bits <= 32 { 4 } else { 8 }
}

/// One event of the masked-input stage: `client` delivers `chunk`.
#[derive(Clone, Copy, Debug)]
struct Delivery {
    client: ClientId,
    chunk: usize,
}

#[allow(clippy::too_many_arguments)]
fn differential_round(
    n: u32,
    bits: u32,
    dim: usize,
    chunks: usize,
    partial_picks: u8,
    schedule_seed: u64,
    resends: usize,
    padded: bool,
) {
    let p = params(n, bits, dim);
    let ins = inputs(&p);
    let plan = ChunkPlan::aligned(dim, chunks, bits).unwrap();
    let m = plan.chunks();
    let mut rng = Rng(schedule_seed | 1);

    // Up to n − threshold clients stop partway: each delivers a strict,
    // possibly empty, subset of its chunks.
    let partial: BTreeSet<ClientId> = (0..n)
        .filter(|&id| partial_picks >> id & 1 == 1)
        .take(n as usize - THRESHOLD)
        .collect();
    let mut deliveries = Vec::new();
    for id in 0..n {
        let mut mine: Vec<usize> = (0..m).collect();
        if partial.contains(&id) {
            rng.shuffle(&mut mine);
            mine.truncate(rng.below(m));
        }
        deliveries.extend(mine.into_iter().map(|chunk| Delivery { client: id, chunk }));
    }
    // Re-sends repeat a delivered chunk: before the stream folds they
    // replace the parked copy, after it they are discarded.
    for _ in 0..resends {
        if !deliveries.is_empty() {
            let again = deliveries[rng.below(deliveries.len())];
            deliveries.push(again);
        }
    }
    rng.shuffle(&mut deliveries);

    let mut server = Server::with_chunks(p.clone(), plan.clone()).unwrap();
    let mut clients: BTreeMap<ClientId, Client> = ins
        .iter()
        .map(|(&id, input)| {
            let c = Client::new(
                p.clone(),
                id,
                input.clone(),
                None,
                &mut client_rng(SEED, id),
            );
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
    // Every client's chunk payloads, as the wire carries them.
    let mut payloads: BTreeMap<ClientId, Vec<Vec<u8>>> = BTreeMap::new();
    for (&id, c) in clients.iter_mut() {
        let cursor = c.begin_masked_input(inboxes.remove(&id).unwrap()).unwrap();
        let chunks = (0..m)
            .map(|c| {
                let mut packed = Vec::new();
                pack::pack_into(&cursor.chunk(plan.range(c)).vector, bits, &mut packed);
                packed
            })
            .collect();
        payloads.insert(id, chunks);
    }

    // The custody model: what the server must hold parked.
    let mut parked: BTreeMap<(ClientId, usize), usize> = BTreeMap::new();
    let mut folded = BTreeSet::new();
    for d in deliveries {
        let mut payload = payloads[&d.client][d.chunk].clone();
        // Padded cases send every payload through the packed entry with
        // its padding bits set; the others send half of them through
        // the decoded adapter.
        if padded || rng.next() & 1 == 0 {
            if padded {
                set_padding(&mut payload, plan.chunk_len(d.chunk), bits);
            }
            server
                .collect_masked_packed(d.chunk, d.client, &payload)
                .unwrap();
        } else {
            let vector = pack::unpack(&payload, bits, plan.chunk_len(d.chunk));
            let msg = MaskedInput {
                client: d.client,
                vector,
                bit_width: bits,
            };
            server.collect_masked_chunk(d.chunk, vec![msg]).unwrap();
        }
        if !folded.contains(&d.client) {
            parked.insert((d.client, d.chunk), payload.len());
            if (0..m).all(|c| parked.contains_key(&(d.client, c))) {
                parked.retain(|&(id, _), _| id != d.client);
                folded.insert(d.client);
            }
        }
        assert_eq!(
            server.custody_bytes(),
            sum_bytes(bits, dim) + parked.values().sum::<usize>(),
            "custody after {d:?}"
        );
    }
    // Garbage for a folded stream is discarded.
    for &id in &folded {
        let junk = vec![0xff; pack::packed_len(plan.chunk_len(0), bits)];
        server.collect_masked_packed(0, id, &junk).unwrap();
    }

    let survivors: Vec<ClientId> = (0..n).filter(|id| !partial.contains(id)).collect();
    let u3 = server.finalize_masked().unwrap();
    assert_eq!(u3, survivors);
    assert_eq!(server.custody_bytes(), sum_bytes(bits, dim));
    let responses = u3
        .iter()
        .map(|id| clients.get_mut(id).unwrap().unmask(&u3, None).unwrap())
        .collect();
    server.reconstruct_unmasking(responses).unwrap();
    let mut order: Vec<usize> = (0..m).collect();
    rng.shuffle(&mut order);
    for c in order {
        server.unmask_chunk(c).unwrap();
    }
    let outcome = server.finish();

    let survivor_inputs = survivors
        .iter()
        .map(|id| (*id, ins[id].vector.clone()))
        .collect();
    let plain = plain::aggregate(&survivor_inputs, bits).unwrap();
    assert_eq!(outcome.sum, plain, "against the plain sum");

    let mut dropout = DropoutSchedule::none();
    for &id in &partial {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let (driver, _) = run_round(RoundSpec {
        params: p,
        inputs: ins,
        dropout,
        rng_seed: SEED,
    })
    .unwrap();
    assert_eq!(outcome.sum, driver.sum, "against the driver");
    assert_eq!(outcome.survivors, driver.survivors);
}

/// A server at the masked-input stage whose U2 is clients `0..u2`, the
/// roster built from stand-in keys (the data plane never reads them).
fn server_at_masked_input(n: u32, u2: u32, plan: ChunkPlan) -> Server {
    let p = params(n, plan.bit_width(), plan.vector_len());
    let mut server = Server::with_chunks(p, plan).unwrap();
    let advs = (0..n)
        .map(|client| AdvertisedKeys {
            client,
            c_pk: [1; 32],
            s_pk: [2; 32],
            signature: None,
        })
        .collect();
    server.collect_advertisements(advs).unwrap();
    let cts = (0..u2)
        .map(|from| EncryptedShares {
            from,
            to: (from + 1) % n,
            ciphertext: vec![],
        })
        .collect();
    server.route_shares(cts).unwrap();
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ring_width_sum_equals_the_plain_sum_and_the_driver(
        n in 3u32..6,
        bits in 1u32..63,
        dim in 1usize..161,
        chunks in 1usize..9,
        partial_picks in any::<u8>(),
        schedule_seed in any::<u64>(),
        resends in 0usize..6,
        padded in any::<bool>(),
    ) {
        differential_round(n, bits, dim, chunks, partial_picks, schedule_seed, resends, padded);
    }

    #[test]
    fn packed_entry_refuses_hostile_payloads_before_reading_them(
        // Half the cases at the named widths, half anywhere in 1..=62.
        pick in 0usize..12,
        any_bits in 1u32..63,
        dim in 1usize..101,
        chunks in 1usize..5,
        chunk in 0usize..6,
        client in 0u32..6,
        len_delta in -3i64..4,
        fill in any::<u8>(),
    ) {
        let bits = [1u32, 8, 20, 32, 33, 62].get(pick).copied().unwrap_or(any_bits);
        const N: u32 = 4;
        const U2: u32 = 3;
        let plan = ChunkPlan::aligned(dim, chunks, bits).unwrap();
        let mut server = server_at_masked_input(N, U2, plan.clone());
        let expect = (chunk < plan.chunks()).then(|| pack::packed_len(plan.chunk_len(chunk), bits));
        let len = (expect.unwrap_or(3) as i64 + len_delta).max(0) as usize;
        let payload = vec![fill; len];
        let before = server.custody_bytes();
        let res = server.collect_masked_packed(chunk, client, &payload);
        let valid = expect == Some(len) && client < U2;
        prop_assert!(res.is_ok() == valid, "valid {valid}: {res:?}");
        if let Err(e) = res {
            prop_assert!(matches!(e, SecAggError::Config(_)));
            prop_assert_eq!(server.custody_bytes(), before);
        }
    }
}

#[test]
fn padding_bits_never_reach_the_sum() {
    // 45 elements end mid-byte at each of these widths: every payload
    // goes through the packed entry with its padding bits set, and the
    // sum is still the survivors' plain sum.
    for bits in [1u32, 20, 33, 62] {
        differential_round(4, bits, 45, 3, 0b0100, 7, 2, true);
    }
}
