//! Pipeline acceleration: how Dordis splits aggregation into chunks and
//! overlaps client compute, communication, and server compute (§4).
//!
//! Prints the chunk-count sweep for one scenario (the Appendix C
//! optimization) and the plain-vs-pipelined round times across model
//! sizes (the Figure 10 trend: larger models gain more).
//!
//! ```sh
//! cargo run --release --example pipeline_speedup
//! ```

use dordis_pipeline::cost::{CostModel, Protocol, UnitCosts};
use dordis_pipeline::planner::{plan_from_cost_model, simulate_pipelined};
use dordis_pipeline::timing::{cost_input, estimate, paper_hetero, TimingScenario};

fn scenario(name: &str, params: usize) -> TimingScenario {
    TimingScenario {
        name: name.into(),
        model_params: params,
        clients: 100,
        protocol: Protocol::SecAgg,
        dp: true,
        xnoise: true,
        dropout_rate: 0.1,
        other_secs: 60.0,
        bit_width: 20,
    }
}

fn main() {
    let units = UnitCosts::paper_testbed();
    let cost = CostModel::new(units);

    // Part 1: the chunk-count sweep for an 11M-parameter model.
    let s = scenario("resnet18-like", 11_000_000);
    let input = cost_input(&s, &paper_hetero(1));
    let plan = plan_from_cost_model(&cost, &input, 20, 1);
    println!("chunk-count sweep (11M parameters, 100 clients, SecAgg + XNoise):");
    println!("{:>3}  {:>10}  {:>8}", "m", "makespan", "speedup");
    for (i, makespan) in plan.sweep.iter().enumerate() {
        let marker = if i + 1 == plan.chunks {
            "  ← chosen"
        } else {
            ""
        };
        println!(
            "{:>3}  {:>9.1}s  {:>7.2}x{}",
            i + 1,
            makespan,
            plan.sweep[0] / makespan,
            marker
        );
    }

    // Part 2: speedup across model sizes (Figure 10's trend).
    println!("\nplain vs pipelined round time across model sizes:");
    println!(
        "{:<16} {:>10} {:>10} {:>8} {:>7}",
        "model", "plain", "pipelined", "speedup", "chunks"
    );
    for (name, params) in [
        ("cnn-1M", 1_000_000usize),
        ("resnet18-11M", 11_000_000),
        ("vgg19-20M", 20_000_000),
    ] {
        let rt = estimate(&scenario(name, params), &units, 2);
        println!(
            "{:<16} {:>9.1}s {:>9.1}s {:>7.2}x {:>7}",
            name,
            rt.plain_total(),
            rt.piped_total(),
            rt.speedup(),
            rt.chunks
        );
    }
    println!("\nexpected shape (paper §6.4): speedup grows with model size,");
    println!("topping out around 2.4x — Amdahl over the three resources.");

    // Part 3: ground truth vs planned m.
    let truth_best_m = (1..=20)
        .min_by(|&a, &b| {
            simulate_pipelined(&cost, &input, a)
                .partial_cmp(&simulate_pipelined(&cost, &input, b))
                .unwrap()
        })
        .unwrap();
    println!(
        "\nplanner chose m = {} (ground-truth optimum m = {truth_best_m})",
        plan.chunks
    );
}
