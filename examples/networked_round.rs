//! A networked SecAgg+ round through `dordis-net`: a real coordinator,
//! client runtimes on threads, the wire codec in between, and a dropout
//! *detected* by the per-stage deadline rather than scripted — then the
//! same round through the in-memory driver, to show the two paths agree
//! bit for bit.
//!
//! ```sh
//! cargo run --release --example networked_round
//! ```
//!
//! For the true multi-process version over TCP, see the `dordis serve` /
//! `dordis join` subcommands (README quickstart).

use std::collections::BTreeMap;

use dordis_core::protocol::{
    run_protocol_round, run_protocol_round_networked, ProtocolRoundConfig,
};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::ThreatModel;
use dordis_xnoise::decomposition::XNoisePlan;

const BITS: u32 = 16;
const DIM: usize = 8;

fn main() {
    let n = 10u32;
    let updates: BTreeMap<u32, Vec<u64>> = (0..n)
        .map(|id| (id, vec![u64::from(id) + 1; DIM]))
        .collect();

    // XNoise enabled: noise is added before masking and the excess is
    // removed after unmasking, with seed recovery over the wire.
    let plan = XNoisePlan::new(25.0, n as usize, 4, 0, 6).unwrap();
    let cfg = ProtocolRoundConfig {
        round: 1,
        threshold: 6,
        bit_width: BITS,
        graph: MaskingGraph::harary_for(n as usize),
        threat_model: ThreatModel::SemiHonest,
        xnoise: Some(plan),
        chunks: Some(4),
        seed: 7,
    };
    let dropouts = [3u32, 8];

    println!("== networked path (TCP on 127.0.0.1, detected dropout) ==");
    let net = run_protocol_round_networked(&cfg, &updates, &dropouts).unwrap();
    println!("survivors: {:?}", net.survivors);
    println!("dropped:   {:?}", net.dropped);
    println!("sum:       {:?}", net.sum);
    println!(
        "traffic:   {} bytes on the wire across {} stages",
        net.stats.total_bytes(),
        net.stats.stages.len()
    );

    println!("\n== in-memory driver path (scripted dropout) ==");
    let mem = run_protocol_round(&cfg, &updates, &dropouts).unwrap();
    println!("survivors: {:?}", mem.survivors);
    println!("sum:       {:?}", mem.sum);

    assert_eq!(net.sum, mem.sum, "paths must agree bit for bit");
    assert_eq!(net.survivors, mem.survivors);
    println!("\nnetworked and in-memory rounds agree bit for bit ✓");
}
