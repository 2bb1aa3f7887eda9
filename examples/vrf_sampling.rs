//! Verifiable client sampling (paper §7): clients self-select with a VRF
//! so a malicious server cannot cherry-pick colluding participants.
//!
//! ```sh
//! cargo run --release --example vrf_sampling
//! ```

use dordis_core::sampling::{seat_claims, self_select, SamplingConfig};
use dordis_crypto::vrf::{VrfPublicKey, VrfSecretKey};

fn key_for(id: u32) -> VrfSecretKey {
    let mut seed = [0u8; 32];
    seed[..4].copy_from_slice(&id.to_le_bytes());
    seed[31] = 0x5a;
    VrfSecretKey::from_seed(&seed)
}

fn main() {
    let population = 60u32;
    let cfg = SamplingConfig {
        target_sample: 8,
        population: population as usize,
        over_selection: 1.5,
    };
    let registry =
        |id: u32| -> Option<VrfPublicKey> { (id < population).then(|| key_for(id).public_key()) };

    for round in 1..=3u64 {
        // Every client evaluates its VRF locally and self-selects.
        let claims: Vec<_> = (0..population)
            .filter_map(|id| self_select(&key_for(id), id, round, &cfg))
            .collect();
        // The server (or any peer) verifies all proofs and trims to the
        // target sample by the claimants' own randomness.
        let cohort = seat_claims(&claims, &registry, round, &cfg);
        assert!(cohort.rejected.is_empty(), "honest claims verify");
        println!(
            "round {round}: {} self-selected, sampled after trim: {:?}",
            claims.len(),
            cohort.seated
        );
    }

    // A server cannot forge participation for an unselected client: it
    // would need a valid VRF proof under that client's key.
    let round = 9u64;
    let mut claims: Vec<_> = (0..population)
        .filter_map(|id| self_select(&key_for(id), id, round, &cfg))
        .collect();
    let outsider = (0..population)
        .find(|&id| self_select(&key_for(id), id, round, &cfg).is_none())
        .expect("someone was not selected");
    let mut forged = claims[0].clone();
    forged.client = outsider;
    claims.push(forged);
    let cohort = seat_claims(&claims, &registry, round, &cfg);
    assert!(!cohort.seated.contains(&outsider), "forgery must not seat");
    for (id, why) in &cohort.rejected {
        println!("\nforged participation for client {id} rejected: {why}");
    }
}
