//! Quickstart: train a small federated task under dropout-resilient
//! distributed DP and print the privacy/utility report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dordis_core::config::{TaskSpec, Variant};
use dordis_core::dropout::DropoutModel;
use dordis_core::trainer::train;

fn main() {
    // A CIFAR-10-like task in the paper's configuration: 100 clients,
    // 16 sampled per round, global budget (ε = 6, δ = 0.01), XNoise with
    // dropout tolerance T = |U|/2.
    let mut spec = TaskSpec::cifar10_like(7);
    spec.rounds = 40; // Shortened for a quick demo.
    spec.variant = Variant::XNoise {
        tolerance_frac: 0.5,
        collusion_frac: 0.0,
    };
    // 20% of sampled clients vanish every round.
    spec.dropout = DropoutModel::Bernoulli { rate: 0.2 };

    println!(
        "training `{}` for {} rounds with XNoise...",
        spec.name, spec.rounds
    );
    let report = train(&spec).expect("training should succeed");

    println!("\nround  dropped  epsilon   accuracy");
    for r in &report.records {
        if let Some(acc) = r.accuracy {
            println!(
                "{:>5}  {:>7}  {:>7.3}   {:>6.1}%",
                r.round,
                r.dropped,
                r.epsilon,
                acc * 100.0
            );
        }
    }
    println!(
        "\nfinal accuracy: {:.1}%  |  privacy spent: ε = {:.2} of {:.2} (δ = {})",
        report.final_accuracy * 100.0,
        report.epsilon_consumed,
        spec.privacy.epsilon,
        spec.privacy.delta,
    );
    assert!(report.epsilon_consumed <= spec.privacy.epsilon + 1e-9);
    println!("budget held despite 20% dropout — that is the point of XNoise.");
}
