//! Malicious-server tests: drive the client state machines by hand while
//! playing an adversarial server, and check that every attack from the
//! paper's threat model (§2.1, §3.3, Theorem 2) is either detected by
//! honest clients (abort) or yields nothing useful (a still-masked sum).

use std::collections::BTreeMap;
use std::sync::Arc;

use dordis_crypto::ed25519::SigningKey;
use dordis_secagg::client::{Client, ClientInput, Identity};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::messages::{AdvertisedKeys, EncryptedShares};
use dordis_secagg::server::Server;
use dordis_secagg::{ClientId, RoundParams, SecAggError, ThreatModel};
use rand::SeedableRng;

const BITS: u32 = 16;
const DIM: usize = 4;

fn params(n: u32, t: usize) -> RoundParams {
    RoundParams {
        round: 3,
        clients: (0..n).collect(),
        threshold: t,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 2,
        threat_model: ThreatModel::Malicious,
        graph: MaskingGraph::Complete,
    }
}

struct TestBed {
    clients: BTreeMap<ClientId, Client>,
    params: RoundParams,
}

fn signing_key(id: ClientId) -> SigningKey {
    let mut s = [id as u8; 32];
    s[31] = 0x7a;
    SigningKey::from_seed(&s)
}

fn setup(n: u32, t: usize) -> TestBed {
    let params = params(n, t);
    let mut registry = BTreeMap::new();
    for id in 0..n {
        registry.insert(id, signing_key(id).verifying_key());
    }
    let registry = Arc::new(registry);
    let mut clients = BTreeMap::new();
    for id in 0..n {
        let input = ClientInput {
            vector: vec![u64::from(id) + 1; DIM],
            noise_seeds: vec![[id as u8 + 1; 32]; 3],
        };
        let identity = Identity {
            signing: signing_key(id),
            registry: Arc::clone(&registry),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(id) + 77);
        clients.insert(
            id,
            Client::new(params.clone(), id, input, Some(identity), &mut rng).unwrap(),
        );
    }
    TestBed { clients, params }
}

fn rng(salt: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(salt)
}

/// Runs stages 0-1 honestly; returns (roster, all ciphertexts).
fn honest_setup(bed: &mut TestBed) -> (Vec<AdvertisedKeys>, Vec<EncryptedShares>) {
    let roster: Vec<AdvertisedKeys> = bed
        .clients
        .values_mut()
        .map(|c| c.advertise_keys().unwrap())
        .collect();
    let mut cts = Vec::new();
    for (i, c) in bed.clients.values_mut().enumerate() {
        cts.extend(c.share_keys(&roster, &mut rng(1000 + i as u64)).unwrap());
    }
    (roster, cts)
}

fn route(cts: &[EncryptedShares], to: ClientId) -> Vec<EncryptedShares> {
    cts.iter().filter(|c| c.to == to).cloned().collect()
}

#[test]
fn forged_roster_key_is_detected() {
    // The server substitutes its own key pair for client 1's
    // advertisement; client 0 must refuse (bad signature).
    let mut bed = setup(5, 3);
    let mut roster: Vec<AdvertisedKeys> = bed
        .clients
        .values_mut()
        .map(|c| c.advertise_keys().unwrap())
        .collect();
    roster[1].c_pk = [0xAB; 32];
    let err = bed
        .clients
        .get_mut(&0)
        .unwrap()
        .share_keys(&roster, &mut rng(1))
        .unwrap_err();
    assert!(matches!(err, SecAggError::ClientAbort { client: 0, .. }));
}

#[test]
fn tampered_ciphertext_is_detected() {
    let mut bed = setup(5, 3);
    let (_, mut cts) = honest_setup(&mut bed);
    // Flip one byte in a ciphertext destined for client 2.
    let victim = cts.iter_mut().find(|c| c.to == 2).unwrap();
    let len = victim.ciphertext.len();
    victim.ciphertext[len / 2] ^= 0x01;
    let inbox = route(&cts, 2);
    let c2 = bed.clients.get_mut(&2).unwrap();
    // Masked input still succeeds (decryption is deferred to unmasking)...
    let _y = c2.masked_input(inbox).unwrap();
    // ...but unmasking detects the tamper and aborts.
    let u3: Vec<ClientId> = (0..5).collect();
    let sig = c2.consistency_check(&u3).unwrap();
    let sigs: Vec<_> = {
        // Gather signatures from everyone honestly for the check itself.
        let mut v = vec![(2, sig.signature)];
        for id in [0u32, 1, 3, 4] {
            let c = bed.clients.get_mut(&id).unwrap();
            let inbox = route(&cts, id);
            let _ = c.masked_input(inbox).unwrap();
            v.push((id, c.consistency_check(&u3).unwrap().signature));
        }
        v
    };
    let err = bed
        .clients
        .get_mut(&2)
        .unwrap()
        .unmask(&u3, Some(&sigs))
        .unwrap_err();
    assert!(
        matches!(err, SecAggError::ClientAbort { client: 2, ref reason } if reason.contains("AEAD")),
        "unexpected: {err:?}"
    );
}

#[test]
fn inconsistent_u3_views_are_detected() {
    // The server tells client 0 that U3 = {0,1,2,3} and everyone else
    // that U3 = {0,1,2,3,4}; signatures cannot satisfy both.
    let mut bed = setup(5, 3);
    let (_, cts) = honest_setup(&mut bed);
    for id in 0..5u32 {
        let inbox = route(&cts, id);
        bed.clients
            .get_mut(&id)
            .unwrap()
            .masked_input(inbox)
            .unwrap();
    }
    let u3_small: Vec<ClientId> = vec![0, 1, 2, 3];
    let u3_full: Vec<ClientId> = vec![0, 1, 2, 3, 4];
    let sig0 = bed
        .clients
        .get_mut(&0)
        .unwrap()
        .consistency_check(&u3_small)
        .unwrap();
    let mut sigs = vec![(0, sig0.signature)];
    for id in 1..5u32 {
        let s = bed
            .clients
            .get_mut(&id)
            .unwrap()
            .consistency_check(&u3_full)
            .unwrap();
        sigs.push((id, s.signature));
    }
    // Client 0 signed the small set; the server now claims the full set.
    let err = bed
        .clients
        .get_mut(&0)
        .unwrap()
        .unmask(&u3_full, Some(&sigs))
        .unwrap_err();
    assert!(matches!(err, SecAggError::ClientAbort { client: 0, .. }));
    // Client 1 signed the full set, but client 0's signature is over the
    // small set — verification of the signature list fails.
    let err = bed
        .clients
        .get_mut(&1)
        .unwrap()
        .unmask(&u3_full, Some(&sigs))
        .unwrap_err();
    assert!(matches!(err, SecAggError::ClientAbort { client: 1, .. }));
}

#[test]
fn understating_dropout_yields_garbage_aggregate() {
    // Client 4 drops before sending its masked input. A malicious server
    // hides this (claims U3 = everyone) hoping survivors reveal more
    // noise seeds. All honest clients sign the same (inflated) U3, so no
    // abort — but the sum it can compute remains masked by client 4's
    // pairwise masks, so the attack gains nothing (Theorem 2's intuition).
    let n = 5u32;
    let mut bed = setup(n, 3);
    let (roster, cts) = honest_setup(&mut bed);
    let mut masked = Vec::new();
    for id in 0..4u32 {
        let inbox = route(&cts, id);
        masked.push(
            bed.clients
                .get_mut(&id)
                .unwrap()
                .masked_input(inbox)
                .unwrap(),
        );
    }
    // (Client 4 never sends its masked input.)
    let u3_lie: Vec<ClientId> = (0..n).collect();
    let mut sigs = Vec::new();
    for id in 0..4u32 {
        let s = bed
            .clients
            .get_mut(&id)
            .unwrap()
            .consistency_check(&u3_lie)
            .unwrap();
        sigs.push((id, s.signature));
    }
    // Honest clients respond to unmasking; because U3 was inflated they
    // return *more* of their own seeds (k >= 1 instead of k >= 2) and
    // they return b-shares for client 4 rather than sk-shares.
    let mut responses = Vec::new();
    for id in 0..4u32 {
        let r = bed
            .clients
            .get_mut(&id)
            .unwrap()
            .unmask(&u3_lie, Some(&sigs))
            .unwrap();
        // The inflation indeed leaks an extra seed component per client...
        assert_eq!(
            r.own_seeds.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // ...and denies the server client 4's sk shares.
        assert!(r.sk_shares.is_empty());
        responses.push(r);
    }
    // The server unmasks pretending everyone survived.
    let mut server = Server::new(bed.params.clone()).unwrap();
    server.collect_advertisements(roster).unwrap();
    server.route_shares(cts).unwrap();
    server.collect_masked_chunk(0, masked).unwrap();
    server.finalize_masked().unwrap();
    // Server lies to itself consistently: mark client 4 as alive by
    // injecting a fake masked input of zeros.
    // (Collection only accepted 4 inputs; the "lie" manifests as the
    // server trying to unmask a sum missing client 4's mask cancellation.)
    server.reconstruct_unmasking(responses).unwrap_err();
    // Reconstruction fails: without sk-shares for client 4 the
    // pairwise masks cannot be reconstructed. The aggregate stays hidden.
}

#[test]
fn replayed_ciphertext_from_other_round_fails() {
    // Record a ciphertext in round 3, replay it in round 4: the AAD binds
    // the round number, so decryption fails and the client aborts.
    let mut bed3 = setup(5, 3);
    let (_, cts3) = honest_setup(&mut bed3);

    let mut p4 = params(5, 3);
    p4.round = 4;
    let mut registry = BTreeMap::new();
    for id in 0..5 {
        registry.insert(id, signing_key(id).verifying_key());
    }
    let registry = Arc::new(registry);
    let mut clients4 = BTreeMap::new();
    for id in 0..5u32 {
        let input = ClientInput {
            vector: vec![1; DIM],
            noise_seeds: vec![[1; 32]; 3],
        };
        let identity = Identity {
            signing: signing_key(id),
            registry: Arc::clone(&registry),
        };
        clients4.insert(
            id,
            Client::new(
                p4.clone(),
                id,
                input,
                Some(identity),
                &mut rng(u64::from(id)),
            )
            .unwrap(),
        );
    }
    let roster4: Vec<AdvertisedKeys> = clients4
        .values_mut()
        .map(|c| c.advertise_keys().unwrap())
        .collect();
    let mut cts4 = Vec::new();
    for (i, c) in clients4.values_mut().enumerate() {
        cts4.extend(c.share_keys(&roster4, &mut rng(2000 + i as u64)).unwrap());
    }
    // Replace one of round 4's ciphertexts to client 2 with a round-3 one
    // from the same sender pair.
    let mut inbox4 = route(&cts4, 2);
    let replay = cts3.iter().find(|c| c.to == 2).unwrap().clone();
    inbox4[0] = replay;
    let c2 = clients4.get_mut(&2).unwrap();
    let _ = c2.masked_input(inbox4).unwrap();
    let u3: Vec<ClientId> = (0..5).collect();
    let sig2 = c2.consistency_check(&u3).unwrap();
    // All other clients sign honestly.
    let mut sigs = vec![(2u32, sig2.signature)];
    for id in [0u32, 1, 3, 4] {
        let c = clients4.get_mut(&id).unwrap();
        let _ = c.masked_input(route(&cts4, id)).unwrap();
        sigs.push((id, c.consistency_check(&u3).unwrap().signature));
    }
    let err = clients4
        .get_mut(&2)
        .unwrap()
        .unmask(&u3, Some(&sigs))
        .unwrap_err();
    assert!(matches!(err, SecAggError::ClientAbort { client: 2, .. }));
}

#[test]
fn server_never_holds_both_secrets() {
    // Semi-honest run with a mid-protocol dropout; the server's view must
    // keep {b_u} and {s_sk_v} disjoint.
    use dordis_secagg::driver::{run_round, DropStage, DropoutSchedule, RoundSpec};
    let mut p = params(6, 4);
    p.threat_model = ThreatModel::SemiHonest;
    let inputs: BTreeMap<ClientId, ClientInput> = (0..6)
        .map(|id| {
            (
                id,
                ClientInput {
                    vector: vec![u64::from(id); DIM],
                    noise_seeds: vec![[id as u8; 32]; 3],
                },
            )
        })
        .collect();
    let mut dropout = DropoutSchedule::none();
    dropout.drop_at(1, DropStage::BeforeMaskedInput);
    let spec = RoundSpec {
        params: p,
        inputs,
        dropout,
        rng_seed: 55,
    };
    // run_round debug-asserts the invariant internally; also sanity-check
    // the outcome here.
    let (outcome, _) = run_round(spec).unwrap();
    assert_eq!(outcome.dropped, vec![1]);
}

#[test]
fn too_few_consistency_signatures_abort() {
    let mut bed = setup(5, 4);
    let (_, cts) = honest_setup(&mut bed);
    for id in 0..5u32 {
        let inbox = route(&cts, id);
        bed.clients
            .get_mut(&id)
            .unwrap()
            .masked_input(inbox)
            .unwrap();
    }
    let u3: Vec<ClientId> = (0..5).collect();
    let sig0 = bed
        .clients
        .get_mut(&0)
        .unwrap()
        .consistency_check(&u3)
        .unwrap();
    let sig1 = bed
        .clients
        .get_mut(&1)
        .unwrap()
        .consistency_check(&u3)
        .unwrap();
    // Only 2 < t = 4 signatures provided.
    let sigs = vec![(0, sig0.signature), (1, sig1.signature)];
    let err = bed
        .clients
        .get_mut(&0)
        .unwrap()
        .unmask(&u3, Some(&sigs))
        .unwrap_err();
    assert!(matches!(err, SecAggError::ClientAbort { client: 0, .. }));
}

#[test]
fn ciphertext_from_outside_the_roster_aborts_instead_of_panicking() {
    // Everyone shared keys under the full roster, but the server hands
    // a fresh copy of client 0 a roster without client 4 and still
    // routes it 4's ciphertext: U1 holds no keys of 4, so client 0 must
    // abort cleanly.
    let mut bed = setup(5, 3);
    let (roster, cts) = honest_setup(&mut bed);
    let short: Vec<AdvertisedKeys> = roster.into_iter().filter(|a| a.client != 4).collect();
    let mut fresh = setup(5, 3);
    let c0 = fresh.clients.get_mut(&0).unwrap();
    c0.share_keys(&short, &mut rng(1000)).unwrap();
    let inbox = route(&cts, 0);
    assert!(inbox.iter().any(|ct| ct.from == 4));
    let err = c0.masked_input(inbox).unwrap_err();
    assert!(
        matches!(err, SecAggError::ClientAbort { client: 0, ref reason } if reason.contains('4')),
        "unexpected: {err:?}"
    );
    // The abort sticks: unmasking refuses instead of reading the inbox.
    let u3: Vec<ClientId> = (0..4).collect();
    assert!(matches!(
        c0.unmask(&u3, None),
        Err(SecAggError::ClientAbort { client: 0, .. })
    ));
}
