//! The stepper is only worth tracing if it computes what the system
//! computes: its outcome must be bit-equal to the in-memory driver's on
//! the same round, with and without chunking, dropouts and XNoise seeds.

use std::collections::{BTreeMap, BTreeSet};

use dordis_benchmark::stepper::{step_round, RoundScript};
use dordis_benchmark::trace::Recorder;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const N: u32 = 8;
const DIM: usize = 64;
const BITS: u32 = 20;

fn params(noise_components: usize, graph: MaskingGraph) -> RoundParams {
    RoundParams {
        round: 3,
        clients: (0..N).collect(),
        threshold: 5,
        bit_width: BITS,
        vector_len: DIM,
        noise_components,
        threat_model: ThreatModel::SemiHonest,
        graph,
    }
}

fn inputs(noise_components: usize) -> BTreeMap<ClientId, ClientInput> {
    (0..N)
        .map(|id| {
            let vector = (0..DIM)
                .map(|i| (u64::from(id) * 7919 + i as u64 * 13) & ((1 << BITS) - 1))
                .collect();
            let noise_seeds = if noise_components == 0 {
                Vec::new()
            } else {
                (0..=noise_components)
                    .map(|k| [(id as u8) ^ (k as u8).wrapping_mul(31); 32])
                    .collect()
            };
            (
                id,
                ClientInput {
                    vector,
                    noise_seeds,
                },
            )
        })
        .collect()
}

fn assert_equivalent(
    chunks: usize,
    noise_components: usize,
    graph: MaskingGraph,
    mid_stream: &[ClientId],
    before_unmasking: &[ClientId],
) {
    let mut dropout = DropoutSchedule::none();
    for &id in mid_stream {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    for &id in before_unmasking {
        dropout.drop_at(id, DropStage::BeforeUnmasking);
    }
    let (want, _) = run_round(RoundSpec {
        params: params(noise_components, graph),
        inputs: inputs(noise_components),
        dropout,
        rng_seed: 0xbe11c,
    })
    .expect("driver round");

    let script = RoundScript {
        params: params(noise_components, graph),
        requested_chunks: chunks,
        rng_seed: 0xbe11c,
        setup_payload: Vec::new(),
        // With one chunk a mid-stream dropper sends nothing at all.
        mid_stream: mid_stream
            .iter()
            .map(|&id| (id, (chunks - 1).min(1) as u16))
            .collect(),
        before_unmasking: before_unmasking.iter().copied().collect::<BTreeSet<_>>(),
    };
    let mut rec = Recorder::new();
    let mut inputs = inputs(noise_components);
    let got = rec
        .span("round", |rec| {
            step_round(
                &script,
                |id, _, _| inputs.remove(&id).ok_or_else(|| "no input".to_string()),
                rec,
            )
        })
        .expect("stepper round");

    assert_eq!(got.sum, want.sum, "aggregate");
    assert_eq!(got.survivors, want.survivors, "survivors");
    assert_eq!(got.dropped, want.dropped, "dropped");
    assert_eq!(got.removal_seeds, want.removal_seeds, "removal seeds");
    assert_eq!(got.bit_width, want.bit_width);
    assert!(rec.counter("net.codec.bytes") > 0);
    assert_eq!(rec.counter("pipeline.planner.chunks"), chunks as u64);
}

#[test]
fn clean_round_matches_driver() {
    for chunks in [1, 4] {
        assert_equivalent(chunks, 0, MaskingGraph::Complete, &[], &[]);
    }
}

#[test]
fn dropouts_match_driver() {
    for chunks in [1, 4] {
        assert_equivalent(chunks, 0, MaskingGraph::Complete, &[2, 5], &[6]);
    }
}

#[test]
fn noise_components_match_driver() {
    for chunks in [1, 4] {
        // Nobody drops: every survivor reveals its own removable seeds.
        assert_equivalent(chunks, 3, MaskingGraph::Complete, &[], &[]);
        // One mid-stream dropper and one U3 \ U5 client: the
        // ExcessiveNoiseRemoval stage reconstructs the latter's seeds.
        assert_equivalent(chunks, 3, MaskingGraph::Complete, &[1], &[4]);
    }
}

#[test]
fn sparse_graph_matches_driver() {
    let graph = MaskingGraph::Harary { half_degree: 3 };
    assert_equivalent(4, 3, graph, &[0], &[5]);
}
