//! Pipelining correctness: Dordis splits the model into `m` chunks and
//! runs an independent aggregation task per chunk (§4.1). Aggregation is
//! coordinate-wise, so the concatenation of per-chunk results must equal
//! the whole-vector result — this is the property that makes the pipeline
//! architecture *correct*, complementing the timing model that makes it
//! *fast*.

use std::collections::BTreeMap;

use dordis_core::protocol::{run_protocol_round, ProtocolRoundConfig};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::ThreatModel;

const BITS: u32 = 16;
const DIM: usize = 24;
const N: u32 = 6;

fn updates() -> BTreeMap<u32, Vec<u64>> {
    (0..N)
        .map(|id| {
            (
                id,
                (0..DIM)
                    .map(|i| ((u64::from(id) + 3) * 41 + i as u64 * 7) % (1 << BITS))
                    .collect(),
            )
        })
        .collect()
}

fn config(round: u64) -> ProtocolRoundConfig {
    ProtocolRoundConfig {
        round,
        threshold: 4,
        bit_width: BITS,
        graph: MaskingGraph::Complete,
        threat_model: ThreatModel::SemiHonest,
        xnoise: None,
        seed: 11,
    }
}

#[test]
fn chunked_rounds_concatenate_to_the_whole() {
    let ups = updates();
    // Whole-vector aggregation.
    let whole = run_protocol_round(&config(1), &ups, &[]).unwrap();

    // Chunked: m = 3 chunks of 8 coordinates, each its own protocol round
    // (distinct round ids, like Dordis's chunk-aggregation tasks).
    let m = 3;
    let chunk_len = DIM / m;
    let mut reassembled = Vec::with_capacity(DIM);
    for c in 0..m {
        let chunk_updates: BTreeMap<u32, Vec<u64>> = ups
            .iter()
            .map(|(&id, v)| (id, v[c * chunk_len..(c + 1) * chunk_len].to_vec()))
            .collect();
        let out = run_protocol_round(&config(100 + c as u64), &chunk_updates, &[]).unwrap();
        assert_eq!(out.survivors.len(), N as usize);
        reassembled.extend(out.sum);
    }
    assert_eq!(reassembled, whole.sum);
}

#[test]
fn chunked_rounds_with_dropout_stay_consistent() {
    // The same clients drop in every chunk task (in the real system a
    // dropped client misses all of its chunk uploads).
    let ups = updates();
    let dropped = [2u32, 5];
    let whole = run_protocol_round(&config(2), &ups, &dropped).unwrap();
    let m = 4;
    let chunk_len = DIM / m;
    let mut reassembled = Vec::with_capacity(DIM);
    for c in 0..m {
        let chunk_updates: BTreeMap<u32, Vec<u64>> = ups
            .iter()
            .map(|(&id, v)| (id, v[c * chunk_len..(c + 1) * chunk_len].to_vec()))
            .collect();
        let out = run_protocol_round(&config(200 + c as u64), &chunk_updates, &dropped).unwrap();
        assert_eq!(out.dropped, dropped.to_vec());
        reassembled.extend(out.sum);
    }
    assert_eq!(reassembled, whole.sum);
}

#[test]
fn uneven_final_chunk_is_fine() {
    // DIM = 24 split as 10 + 10 + 4.
    let ups = updates();
    let whole = run_protocol_round(&config(3), &ups, &[]).unwrap();
    let bounds = [(0usize, 10usize), (10, 20), (20, 24)];
    let mut reassembled = Vec::with_capacity(DIM);
    for (i, (lo, hi)) in bounds.iter().enumerate() {
        let chunk_updates: BTreeMap<u32, Vec<u64>> = ups
            .iter()
            .map(|(&id, v)| (id, v[*lo..*hi].to_vec()))
            .collect();
        let out = run_protocol_round(&config(300 + i as u64), &chunk_updates, &[]).unwrap();
        reassembled.extend(out.sum);
    }
    assert_eq!(reassembled, whole.sum);
}
