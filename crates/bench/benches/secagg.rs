//! Full-protocol benchmarks: complete SecAgg / SecAgg+ rounds in memory,
//! with and without dropout. These measure this repository's Rust
//! implementation (the `rust_native` cost regime), complementing the
//! simulated paper-testbed figures.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dordis_pipeline::ChunkPlan;
use dordis_secagg::client::{Client, ClientInput};
use dordis_secagg::driver::{
    client_rng, run_round, share_keys_rng, DropStage, DropoutSchedule, RoundSpec,
};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::mask::add_pairwise_mask_assign;
use dordis_secagg::{pack, ClientId, RoundParams, ThreatModel};

const DIM: usize = 256;

fn spec(n: u32, graph: MaskingGraph, drop: usize) -> RoundSpec {
    let inputs: BTreeMap<ClientId, ClientInput> = (0..n)
        .map(|id| {
            (
                id,
                ClientInput {
                    vector: vec![u64::from(id) % (1 << 16); DIM],
                    noise_seeds: vec![[id as u8; 32]; 3],
                },
            )
        })
        .collect();
    let mut dropout = DropoutSchedule::none();
    for id in 0..drop as u32 {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    RoundSpec {
        params: RoundParams {
            round: 1,
            clients: (0..n).collect(),
            threshold: (n as usize * 2).div_ceil(3),
            bit_width: 16,
            vector_len: DIM,
            noise_components: 2,
            threat_model: ThreatModel::SemiHonest,
            graph,
        },
        inputs,
        dropout,
        rng_seed: 5,
    }
}

fn bench_secagg_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("secagg_round");
    g.sample_size(10);
    for n in [8u32, 16, 24] {
        g.bench_with_input(BenchmarkId::new("complete", n), &n, |b, &n| {
            b.iter(|| run_round(spec(n, MaskingGraph::Complete, 0)).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("harary", n), &n, |b, &n| {
            b.iter(|| run_round(spec(n, MaskingGraph::harary_for(n as usize), 0)).unwrap());
        });
    }
    g.finish();
}

fn bench_secagg_with_dropout(c: &mut Criterion) {
    let mut g = c.benchmark_group("secagg_round_dropout");
    g.sample_size(10);
    for drop in [0usize, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(drop), &drop, |b, &d| {
            b.iter(|| run_round(spec(16, MaskingGraph::Complete, d)).unwrap());
        });
    }
    g.finish();
}

/// One client's share of a `tcp_cohort256`-shaped round (256 sampled,
/// Harary degree 20, dim 1024): ShareKeys + MaskedInputCollection +
/// Unmasking, i.e. the three stages that pay per masking neighbor.
/// Only client 0 and its 20 neighbors are built: no other roster entry
/// reaches client 0's stages.
fn bench_client_round(c: &mut Criterion) {
    const SAMPLES: usize = 10;
    const SEED: u64 = 5;
    let n = 256usize;
    let params = RoundParams {
        round: 1,
        clients: (0..n as u32).collect(),
        threshold: 11,
        bit_width: 20,
        vector_len: 1024,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::harary_for(n),
    };
    assert_eq!(params.graph.degree(n), 20);
    let fresh = |id: ClientId| {
        let input = ClientInput {
            vector: vec![u64::from(id) + 1; params.vector_len],
            noise_seeds: vec![],
        };
        Client::new(params.clone(), id, input, None, &mut client_rng(SEED, id)).unwrap()
    };
    let ids: Vec<ClientId> = params
        .graph
        .holders(n, 0)
        .into_iter()
        .map(|i| i as ClientId)
        .collect();
    let mut holders: Vec<Client> = ids.iter().map(|&id| fresh(id)).collect();
    let roster: Vec<_> = holders
        .iter_mut()
        .map(|h| h.advertise_keys().unwrap())
        .collect();
    let inbox: Vec<_> = holders
        .iter_mut()
        .skip(1)
        .flat_map(|h| {
            h.share_keys(&roster, &mut share_keys_rng(SEED, h.id()))
                .unwrap()
        })
        .filter(|ct| ct.to == 0)
        .collect();
    assert_eq!(inbox.len(), 20);
    // A client is spent by its round, and the client rng is a function
    // of (seed, id), so every fresh client 0 advertises the same keys:
    // one per sample plus one for the warm-up pass.
    let mut pool: Vec<Client> = (0..=SAMPLES).map(|_| fresh(0)).collect();
    let mut g = c.benchmark_group("client_round");
    g.sample_size(SAMPLES);
    g.bench_function("deg20_dim1024", |b| {
        b.iter(|| {
            let mut me = pool.pop().expect("one fresh client per pass");
            let sent = me
                .share_keys(&roster, &mut share_keys_rng(SEED, 0))
                .unwrap();
            let masked = me.masked_input(inbox.clone()).unwrap();
            let response = me.unmask(&ids, None).unwrap();
            (sent, masked, response)
        });
    });
    g.finish();
}

/// Fused expand-and-accumulate of one pairwise mask, on both sides of
/// the PRG's 32-bit lane boundary.
fn bench_expand_and_add(c: &mut Criterion) {
    const ELEMS: usize = 100_000;
    let mut acc = vec![0u64; ELEMS];
    let mut g = c.benchmark_group("mask/expand_and_add");
    g.throughput(Throughput::Elements(ELEMS as u64));
    for bits in [20u32, 33] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            b.iter(|| {
                add_pairwise_mask_assign(&mut acc, &[7u8; 32], 0, true, bits);
                acc[0]
            });
        });
    }
    g.finish();
}

/// MaskedInputCollection for one client of a `tcp_vector1m`-shaped
/// round (16 clients, complete graph, 20 bits) at dim 2^18: the whole
/// vector in one call against the same vector walked as 2 and 8 chunks.
/// Every pass pays the 15 key agreements of `begin_masked_input`.
fn bench_masked_input(c: &mut Criterion) {
    const SEED: u64 = 5;
    const DIM: usize = 1 << 18;
    let params = RoundParams {
        round: 1,
        clients: (0..16).collect(),
        threshold: 9,
        bit_width: 20,
        vector_len: DIM,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    };
    let mut clients: Vec<Client> = (0..16u32)
        .map(|id| {
            let input = ClientInput {
                vector: vec![u64::from(id) + 1; DIM],
                noise_seeds: vec![],
            };
            Client::new(params.clone(), id, input, None, &mut client_rng(SEED, id)).unwrap()
        })
        .collect();
    let roster: Vec<_> = clients
        .iter_mut()
        .map(|c| c.advertise_keys().unwrap())
        .collect();
    let inbox: Vec<_> = clients
        .iter_mut()
        .flat_map(|c| {
            c.share_keys(&roster, &mut share_keys_rng(SEED, c.id()))
                .unwrap()
        })
        .filter(|ct| ct.to == 0)
        .collect();
    let me = &mut clients[0];
    let mut g = c.benchmark_group("masked_input");
    g.sample_size(10);
    g.throughput(Throughput::Elements(DIM as u64));
    g.bench_function("whole", |b| {
        b.iter(|| me.masked_input(inbox.clone()).unwrap());
    });
    for m in [2usize, 8] {
        let plan = ChunkPlan::aligned(DIM, m, params.bit_width).unwrap();
        g.bench_function(format!("cursor_m{m}"), |b| {
            b.iter(|| {
                let cursor = me.begin_masked_input(inbox.clone()).unwrap();
                (0..plan.chunks())
                    .map(|c| cursor.chunk(plan.range(c)).vector[0])
                    .sum::<u64>()
            });
        });
    }
    g.finish();
}

/// The masked-input pack kernel at 20 bits: the encode and decode the
/// codec runs per chunk frame, and the fused unpack-accumulate the
/// server folds a parked chunk with.
fn bench_pack(c: &mut Criterion) {
    const ELEMS: usize = 1 << 18;
    const BITS: u32 = 20;
    let values: Vec<u64> = (0..ELEMS as u64)
        .map(|i| (i * 2_654_435_761) & 0xf_ffff)
        .collect();
    let mut packed = Vec::new();
    pack::pack_into(&values, BITS, &mut packed);
    let mut acc = vec![0u64; ELEMS];
    let mut g = c.benchmark_group("pack");
    g.throughput(Throughput::Elements(ELEMS as u64));
    g.bench_function("encode", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            pack::pack_into(&values, BITS, &mut out);
            out[0]
        });
    });
    g.bench_function("decode", |b| {
        b.iter(|| pack::unpack(&packed, BITS, ELEMS));
    });
    g.bench_function("unpack_add", |b| {
        b.iter(|| {
            pack::unpack_add(&packed, BITS, &mut acc);
            acc[0]
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_expand_and_add,
    bench_masked_input,
    bench_pack,
    bench_secagg_round,
    bench_secagg_with_dropout,
    bench_client_round
);
criterion_main!(benches);
