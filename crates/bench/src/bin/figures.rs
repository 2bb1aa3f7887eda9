//! Regenerates every table and figure of the Dordis paper's evaluation.
//!
//! ```sh
//! cargo run -p dordis-bench --bin figures --release -- all --quick
//! cargo run -p dordis-bench --bin figures --release -- fig8
//! ```
//!
//! Subcommands: `fig1a fig1bc fig1d fig2 fig8 fig9 table2 table3 fig10
//! chunks collusion all`. Absolute numbers come from the simulated
//! testbed (`dordis-sim`'s cost model and `dordis-fl`'s synthetic
//! datasets stand in for the paper's EC2 cluster and real datasets); the
//! shapes are the reproduction targets.

use dordis_bench::{eval_tasks, fig10_scenarios, fig2_scenarios, with_variant, Scale, Table};
use dordis_core::config::{TaskSpec, Variant};
use dordis_core::timing::estimate;
use dordis_core::trainer::train;
use dordis_dp::accountant::Mechanism;
use dordis_dp::ledger::PrivacyLedger;
use dordis_dp::planner::{plan, PlannerConfig};
use dordis_pipeline::planner::plan_from_cost_model;
use dordis_sim::cost::{CostModel, UnitCosts};
use dordis_sim::dropout::{DropoutModel, Trace, TraceConfig};
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::footprint::{default_tolerance, table3_row, FootprintScenario, WireSizes};

const XNOISE: Variant = Variant::XNoise {
    tolerance_frac: 0.5,
    collusion_frac: 0.0,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    let run = |name: &str| which == name || which == "all";
    if run("fig1a") {
        fig1a();
    }
    if run("fig1bc") {
        fig1bc(scale);
    }
    if run("fig1d") {
        fig1d();
    }
    if run("fig2") {
        fig2();
    }
    if run("fig8") {
        fig8();
    }
    if run("fig9") {
        fig9(scale);
    }
    if run("table2") {
        table2(scale);
    }
    if run("table3") {
        table3();
    }
    if run("fig10") {
        fig10();
    }
    if run("chunks") {
        chunks();
    }
    if run("collusion") {
        collusion();
    }
}

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

/// Figure 1a: distribution of per-round dropout rates from the
/// (synthetic) user-behaviour trace.
fn fig1a() {
    banner("Figure 1a: client dynamics (per-round dropout rate histogram)");
    let trace = Trace::generate(&TraceConfig::default(), 150, 1);
    let rates = trace.round_dropout_rates(16, 2);
    let mut buckets = [0usize; 10];
    for &r in &rates {
        let b = ((r * 10.0) as usize).min(9);
        buckets[b] += 1;
    }
    let mut t = Table::new(&["dropout rate", "% of rounds"]);
    for (i, &count) in buckets.iter().enumerate() {
        t.row(vec![
            format!("{:.1}-{:.1}", i as f64 / 10.0, (i + 1) as f64 / 10.0),
            format!("{:.0}%", 100.0 * count as f64 / rates.len() as f64),
        ]);
    }
    println!("{}", t.render());
    println!("paper: rates spread over the whole [0,1] range (great dynamics).");
}

/// Figure 1b/1c: privacy cost vs accuracy for the naive baselines under
/// trace-driven dropout.
fn fig1bc(scale: Scale) {
    banner("Figure 1b/1c: privacy vs utility of naive fixes (trace dropout)");
    let variants: [(&str, Variant); 6] = [
        ("Orig", Variant::Orig),
        ("Early", Variant::Early),
        ("Con8", Variant::Conservative { est_dropout: 0.8 }),
        ("Con5", Variant::Conservative { est_dropout: 0.5 }),
        ("Con2", Variant::Conservative { est_dropout: 0.2 }),
        // XNoise with a tolerance covering the trace's worst rounds.
        (
            "XNoise",
            Variant::XNoise {
                tolerance_frac: 0.8,
                collusion_frac: 0.0,
            },
        ),
    ];
    // Trace with moderate diurnal swing, matching the dropout severity
    // implied by the paper's Figure 1b privacy costs (rates mostly in
    // [0.2, 0.8]).
    let trace = TraceConfig {
        diurnal_amplitude: 0.3,
        ..TraceConfig::default()
    };
    for (task_name, mut base) in [
        ("CIFAR-10-like (150 rounds)", TaskSpec::cifar10_like(5)),
        ("CIFAR-100-like proxy (300 rounds)", {
            let mut t = TaskSpec::cifar10_like(5);
            t.name = "cifar100-like".into();
            // A 20-class proxy: the paper's 100-class task needs an
            // 11M-parameter model to be trainable under DP noise; at this
            // repo's model scale 100 classes sit at chance for every
            // variant, which would hide the *relative* utility ordering
            // the figure is about.
            t.dataset = dordis_fl::data::SyntheticConfig {
                samples: 6000,
                dim: 32,
                classes: 20,
                noise: 0.8,
                seed: 5,
            };
            t.rounds = 300;
            t
        }),
    ] {
        base.rounds = scale.rounds(base.rounds);
        base.dropout = DropoutModel::Trace(trace);
        println!("\n{task_name}, budget ε = {}", base.privacy.epsilon);
        let mut t = Table::new(&["variant", "privacy cost ε", "accuracy", "rounds"]);
        for &(name, variant) in &variants {
            let report = train(&with_variant(base.clone(), variant)).expect("train");
            t.row(vec![
                name.into(),
                format!("{:.2}", report.epsilon_consumed),
                format!("{:.1}%", report.final_accuracy * 100.0),
                format!("{}", report.rounds_completed),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper shape: Orig overruns (8.6/7.9); Early on budget but low accuracy;");
    println!("Con8 wastes budget (ε 2.3) at an accuracy cost; Con2 overruns; XNoise tight.");
}

/// Figure 1d: privacy cost vs dropout rate for several budgets
/// (ledger-only computation, matching the paper's CIFAR-10 testbed).
fn fig1d() {
    banner("Figure 1d: privacy cost under various dropout rates (Orig)");
    let mut t = Table::new(&["dropout", "budget ε=3", "budget ε=6", "budget ε=9"]);
    let rounds = 150u32;
    let q = 0.16;
    let mech = Mechanism::Gaussian;
    for rate_pc in (0..=40).step_by(10) {
        let rate = rate_pc as f64 / 100.0;
        let mut cells = vec![format!("{rate_pc}%")];
        for budget in [3.0, 6.0, 9.0] {
            let z = plan(&PlannerConfig {
                epsilon: budget,
                delta: 1e-2,
                rounds,
                sample_rate: q,
                mechanism: mech,
            })
            .expect("plan")
            .noise_multiplier;
            let mut ledger = PrivacyLedger::new(mech, budget, 1e-2).expect("ledger");
            for round in 1..=u64::from(rounds) {
                ledger
                    .record_round_at(round, q, z * (1.0 - rate).sqrt())
                    .expect("fresh round");
            }
            cells.push(format!("{:.1}", ledger.realized_epsilon()));
        }
        t.row(cells);
    }
    println!("{}", t.render());
    println!("paper shape: realized ε grows with dropout for every budget");
    println!("(ε=6 reaches ~11.8 and ε=9 ~19.3 at 40% in the paper's testbed).");
}

/// Figure 2: round-time breakdown for SecAgg/SecAgg+ at 32/48/64 clients.
fn fig2() {
    banner("Figure 2: secure aggregation dominates training time");
    let units = UnitCosts::paper_testbed();
    let mut t = Table::new(&["scenario", "round time", "agg share"]);
    for s in fig2_scenarios() {
        let rt = estimate(&s, &units, 7);
        t.row(vec![
            s.name.clone(),
            format!("{:.2} h", rt.plain_total() / 3600.0),
            format!("{:.0}%", rt.agg_fraction() * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!("paper shape: aggregation 86-97% of round time, growing with client");
    println!("count; DP adds a little; SecAgg+ cheaper than SecAgg but still dominant.");
}

/// Figure 8: realized ε vs dropout rate, Orig vs XNoise, three tasks.
fn fig8() {
    banner("Figure 8: privacy budget consumption vs dropout rate");
    let tasks: [(&str, u32, f64, f64); 3] = [
        ("FEMNIST (δ=1e-3)", 50, 0.1, 1e-3),
        ("CIFAR-10 (δ=1e-2)", 150, 0.16, 1e-2),
        ("Reddit (δ=5e-3)", 50, 0.16, 5e-3),
    ];
    let mech = Mechanism::Gaussian;
    for (name, rounds, q, delta) in tasks {
        println!("\n{name}: budget ε = 6");
        let mut t = Table::new(&["dropout", "Orig ε", "XNoise ε"]);
        let z = plan(&PlannerConfig {
            epsilon: 6.0,
            delta,
            rounds,
            sample_rate: q,
            mechanism: mech,
        })
        .expect("plan")
        .noise_multiplier;
        for rate_pc in (0..=40).step_by(10) {
            let rate = rate_pc as f64 / 100.0;
            let orig = {
                let mut ledger = PrivacyLedger::new(mech, 6.0, delta).expect("ledger");
                for round in 1..=u64::from(rounds) {
                    ledger
                        .record_round_at(round, q, z * (1.0 - rate).sqrt())
                        .expect("fresh round");
                }
                ledger.realized_epsilon()
            };
            let xnoise = {
                let mut ledger = PrivacyLedger::new(mech, 6.0, delta).expect("ledger");
                for round in 1..=u64::from(rounds) {
                    ledger.record_round_at(round, q, z).expect("fresh round"); // Enforced exactly.
                }
                ledger.realized_epsilon()
            };
            t.row(vec![
                format!("{rate_pc}%"),
                format!("{orig:.2}"),
                format!("{xnoise:.2}"),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper shape: XNoise flat at ε = 6; Orig climbs to ~8.2-8.7 at 40%.");
}

/// Figure 9: round-to-accuracy curves at 20% dropout.
fn fig9(scale: Scale) {
    banner("Figure 9: round-to-accuracy at 20% dropout (Orig vs XNoise)");
    for mut task in eval_tasks(scale, 9) {
        task.dropout = DropoutModel::Bernoulli { rate: 0.2 };
        task.eval_every = (task.rounds / 10).max(1);
        println!("\n{}:", task.name);
        let orig = train(&with_variant(task.clone(), Variant::Orig)).expect("train");
        let xnoise = train(&with_variant(task.clone(), XNOISE)).expect("train");
        let mut t = Table::new(&["round", "Orig acc", "XNoise acc"]);
        for (ro, rx) in orig.records.iter().zip(xnoise.records.iter()) {
            if let (Some(a), Some(b)) = (ro.accuracy, rx.accuracy) {
                t.row(vec![
                    format!("{}", ro.round + 1),
                    format!("{:.1}%", a * 100.0),
                    format!("{:.1}%", b * 100.0),
                ]);
            }
        }
        println!("{}", t.render());
    }
    println!("paper shape: the two curves coincide — XNoise costs no convergence.");
    println!("note: absolute accuracies here sit at a few multiples of chance — the");
    println!("synthetic models are small and DP noise at ε=6 dominates; compare the");
    println!("two columns, not the magnitudes.");
}

/// Table 2: final accuracy across dropout rates.
fn table2(scale: Scale) {
    banner("Table 2: final accuracy/perplexity, Orig vs XNoise, by dropout rate");
    for task in eval_tasks(scale, 13) {
        println!("\n{}:", task.name);
        let lm = task.name.contains("reddit");
        let mut t = Table::new(&["dropout", "Orig", "XNoise"]);
        for rate_pc in (0..=40).step_by(10) {
            let rate = rate_pc as f64 / 100.0;
            let mut spec = task.clone();
            spec.dropout = DropoutModel::Bernoulli { rate };
            let orig = train(&with_variant(spec.clone(), Variant::Orig)).expect("train");
            let xnoise = train(&with_variant(spec, XNOISE)).expect("train");
            let fmt = |r: &dordis_core::trainer::TrainingReport| {
                if lm {
                    format!("ppl {:.1}", r.final_perplexity)
                } else {
                    format!("{:.1}%", r.final_accuracy * 100.0)
                }
            };
            t.row(vec![format!("{rate_pc}%"), fmt(&orig), fmt(&xnoise)]);
        }
        println!("{}", t.render());
    }
    println!("paper shape: XNoise within ±1% of Orig everywhere (it enforces the");
    println!("budget with the *minimum* extra noise), sometimes slightly better.");
    println!("note: column-to-column comparison is the target; absolute accuracy of");
    println!("the small synthetic models under ε=6 noise is a few multiples of chance.");
}

/// Table 3: per-client extra network bytes — rebasing vs XNoise.
fn table3() {
    banner("Table 3: additional network footprint (MB), rebasing (r) vs XNoise (X)");
    let w = WireSizes::default();
    let mut t = Table::new(&[
        "dropout",
        "n sampled",
        "5M r",
        "5M X",
        "50M r",
        "50M X",
        "500M r",
        "500M X",
    ]);
    for rate_pc in [0usize, 10, 20, 30] {
        for sampled in [100usize, 200, 300] {
            let mut cells = vec![format!("{rate_pc}%"), format!("{sampled}")];
            for params_m in [5u64, 50, 500] {
                let s = FootprintScenario {
                    model_params: params_m * 1_000_000,
                    sampled,
                    dropout_rate: rate_pc as f64 / 100.0,
                    tolerance: default_tolerance(sampled),
                };
                let (r, x) = table3_row(&s, &w);
                cells.push(format!("{r:.1}"));
                cells.push(format!("{x:.1}"));
            }
            t.row(cells);
        }
    }
    println!("{}", t.render());
    println!("paper shape: XNoise constant in model size (0.6/2.4/5.5 MB by n);");
    println!("rebasing scales linearly with model size (11.9 → 1192 MB).");
}

/// Figure 10: plain vs pipelined round times for every task/protocol/
/// variant/dropout combination.
fn fig10() {
    banner("Figure 10: round time, plain vs pipelined (minutes)");
    let units = UnitCosts::paper_testbed();
    for rate_pc in [0usize, 10, 20, 30] {
        println!("\nper-round dropout rate d = {rate_pc}%:");
        let mut t = Table::new(&["scenario", "plain", "agg%", "piped", "speedup", "m*"]);
        for s in fig10_scenarios(rate_pc as f64 / 100.0) {
            let rt = estimate(&s, &units, 17);
            t.row(vec![
                s.name.clone(),
                format!("{:.1} min", rt.plain_total() / 60.0),
                format!("{:.0}%", rt.agg_fraction() * 100.0),
                format!("{:.1} min", rt.piped_total() / 60.0),
                format!("{:.2}x", rt.speedup()),
                format!("{}", rt.chunks),
            ]);
        }
        println!("{}", t.render());
    }
    println!("paper shape: XNoise ≤34% slower than Orig (shrinking with dropout);");
    println!("pipelining speeds rounds up to ~2.4x, more for larger models and");
    println!("more clients; SecAgg+ uniformly cheaper than SecAgg.");
}

/// §4.2 / Appendix C ablation: makespan vs chunk count.
fn chunks() {
    banner("Appendix C ablation: makespan vs chunk count m");
    let units = UnitCosts::paper_testbed();
    let cost = CostModel::new(units);
    let mut t = Table::new(&["model", "m=1", "m=2", "m=4", "m=8", "m=16", "m*"]);
    for (name, params) in [
        ("cnn-1M", 1_000_000usize),
        ("resnet18-11M", 11_000_000),
        ("vgg19-20M", 20_000_000),
    ] {
        let scen = dordis_core::timing::TimingScenario {
            name: name.into(),
            model_params: params,
            clients: 100,
            protocol: dordis_sim::cost::Protocol::SecAgg,
            dp: true,
            xnoise: true,
            dropout_rate: 0.1,
            other_secs: 0.0,
            bit_width: 20,
        };
        let input = dordis_core::timing::cost_input(&scen, &dordis_core::timing::paper_hetero(3));
        let plan = plan_from_cost_model(&cost, &input, 20, 3);
        let at = |m: usize| format!("{:.0}s", plan.sweep[m - 1]);
        t.row(vec![
            name.into(),
            at(1),
            at(2),
            at(4),
            at(8),
            at(16),
            format!("{}", plan.chunks),
        ]);
    }
    println!("{}", t.render());
    println!("shape: U-curve — work shrinks with m, intervention (β₂·m) grows;");
    println!("the optimum sits at a small m and grows with model size.");
}

/// §3.3 ablation: the collusion noise-inflation factor.
fn collusion() {
    banner("§3.3 ablation: noise inflation t/(t-T_C) under collusion tolerance");
    let n = 100;
    let t_secagg = 67; // 2t > n + |C∩U| comfortably.
    let mut table = Table::new(&["T_C (clients)", "inflation", "residual var (σ²∗=1)"]);
    for tc in [0usize, 1, 2, 5, 10, 20] {
        let plan = XNoisePlan::new(1.0, n, 40, tc, t_secagg).expect("plan");
        table.row(vec![
            format!("{tc}"),
            format!("{:.3}x", plan.inflation()),
            format!("{:.3}", plan.residual_variance(10).expect("residual")),
        ]);
    }
    println!("{}", table.render());
    println!("shape: inflation 1.0 at T_C=0 and only slightly above 1 for mild");
    println!("collusion (e.g. 1% of clients), as §3.3 argues.");
}
