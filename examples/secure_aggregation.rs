//! Secure aggregation end to end: run the full SecAgg protocol (Figure 5,
//! including the XNoise stages) against the malicious threat model, with
//! clients dropping mid-protocol, and verify the server learns exactly
//! the noised sum — nothing more.
//!
//! ```sh
//! cargo run --release --example secure_aggregation
//! ```

use std::collections::BTreeMap;

use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{round_rng_seed, run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{RoundParams, ThreatModel};
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{center, derive_component_seeds, perturb, remove_excess};

const BITS: u32 = 16;
const DIM: usize = 8;

fn main() {
    let n = 10u32;
    // XNoise plan: target central variance 25 (σ = 5), tolerance T = 4.
    let plan = XNoisePlan::new(25.0, n as usize, 4, 0, 6).unwrap();

    // Client i's vector is [i+1, i+1, ...] so the expected sum is easy to
    // eyeball; each client perturbs it with its T + 1 noise components
    // and backs the component seeds up through the protocol.
    let inputs: BTreeMap<u32, ClientInput> = (0..n)
        .map(|id| {
            let mut vector = vec![u64::from(id) + 1; DIM];
            let noise_seeds = derive_component_seeds(&[id as u8 + 1; 32], plan.dropout_tolerance);
            perturb(&mut vector, &noise_seeds, &plan, BITS).unwrap();
            (
                id,
                ClientInput {
                    vector,
                    noise_seeds,
                },
            )
        })
        .collect();

    // Clients 3 and 7 vanish after key sharing, before uploading.
    let mut dropout = DropoutSchedule::none();
    dropout
        .drop_at(3, DropStage::BeforeMaskedInput)
        .drop_at(7, DropStage::BeforeMaskedInput);
    let params = RoundParams {
        round: 1,
        clients: (0..n).collect(),
        threshold: 6,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: plan.dropout_tolerance,
        threat_model: ThreatModel::Malicious,
        graph: MaskingGraph::Complete,
    };
    let (mut outcome, _) = run_round(RoundSpec {
        params,
        inputs,
        dropout,
        rng_seed: round_rng_seed(2024, 1),
    })
    .expect("round should complete");
    // The server strips the components that the two dropouts leave in
    // excess, using the seeds the round recovered.
    let (seeds, survivors) = (&outcome.removal_seeds, &outcome.survivors);
    remove_excess(&mut outcome.sum, seeds, survivors, &plan, BITS).expect("within tolerance");

    let expected: u64 = outcome.survivors.iter().map(|&id| u64::from(id) + 1).sum();
    println!("survivors: {:?}", outcome.survivors);
    println!("dropped:   {:?}", outcome.dropped);
    println!("\ncoordinate-wise: true sum = {expected}, server decoded:");
    for (i, &v) in outcome.sum.iter().enumerate() {
        let centered = center(v, BITS);
        let residual = centered - expected as i64;
        println!("  coord {i}: {centered} (residual noise {residual:+})");
    }
    println!("\nresidual noise has variance σ²∗ = 25 exactly (Theorem 1),");
    println!("despite 2 of 10 clients dropping mid-protocol.");
    println!("\n(this round ran in memory; `dordis serve` prints the bytes a");
    println!("networked round measured on the wire as its `traffic:` line.)");
}
