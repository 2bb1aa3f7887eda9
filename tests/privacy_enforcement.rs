//! Integration tests of the paper's headline privacy claim (Figures 1
//! and 8): across the full training stack, XNoise pins the realized ε to
//! the budget under any dropout rate, while every baseline either
//! overruns or wastes the budget.

use dordis_bench::{eval_tasks, with_variant, Scale};
use dordis_core::config::{TaskSpec, Variant};
use dordis_core::dropout::DropoutModel;
use dordis_core::trainer::train;

const XNOISE: Variant = Variant::XNoise {
    tolerance_frac: 0.5,
    collusion_frac: 0.0,
};

fn tiny(seed: u64, rate: f64, variant: Variant) -> TaskSpec {
    let mut spec = TaskSpec::tiny_for_tests(seed);
    spec.rounds = 25;
    spec.variant = variant;
    spec.dropout = DropoutModel::FixedRate { rate };
    spec
}

#[test]
fn figure8_shape_epsilon_vs_dropout() {
    // Orig's realized ε must be monotone in the dropout rate and exceed
    // the budget for any positive rate; XNoise stays pinned at ε_G.
    let budget = 6.0;
    let mut prev_orig = 0.0;
    for rate in [0.0, 0.2, 0.4] {
        let orig = train(&tiny(21, rate, Variant::Orig)).unwrap();
        let xnoise = train(&tiny(21, rate, XNOISE)).unwrap();
        assert!(
            orig.epsilon_consumed >= prev_orig - 1e-9,
            "Orig ε must grow with dropout"
        );
        prev_orig = orig.epsilon_consumed;
        assert!(
            xnoise.epsilon_consumed <= budget + 1e-9,
            "XNoise ε {} at rate {rate}",
            xnoise.epsilon_consumed
        );
        if rate > 0.0 {
            assert!(
                orig.epsilon_consumed > budget,
                "Orig should overrun at rate {rate}: ε = {}",
                orig.epsilon_consumed
            );
        }
    }
}

#[test]
fn figure1_shape_naive_baselines() {
    // Under 25% dropout: Early stops early; Con8 underspends; Con2
    // overruns; XNoise lands within the budget while training the full
    // horizon.
    let rate = 0.25;
    let budget = 6.0;

    let early = train(&tiny(22, rate, Variant::Early)).unwrap();
    assert!(early.stopped_early || early.rounds_completed < 25);

    let con8 = train(&tiny(22, rate, Variant::Conservative { est_dropout: 0.8 })).unwrap();
    assert!(
        con8.epsilon_consumed < 0.75 * budget,
        "Con8 should waste budget: ε = {}",
        con8.epsilon_consumed
    );

    let con1 = train(&tiny(22, rate, Variant::Conservative { est_dropout: 0.1 })).unwrap();
    assert!(
        con1.epsilon_consumed > budget,
        "Con1 (underestimate) should overrun: ε = {}",
        con1.epsilon_consumed
    );

    let xnoise = train(&tiny(22, rate, XNOISE)).unwrap();
    assert_eq!(xnoise.rounds_completed, 25);
    assert!(xnoise.epsilon_consumed <= budget + 1e-9);
}

#[test]
fn table2_shape_xnoise_matches_orig_utility() {
    // XNoise must not cost accuracy relative to Orig: at zero dropout
    // both carry residual noise of exactly σ²∗ (verified separately by a
    // variance probe in the trainer tests); here we check that *training
    // outcomes* agree on average. DP training on small models is noisy,
    // so compare means over several seeds.
    let seeds = [5u64, 42, 123, 314];
    let mut orig_sum = 0.0;
    let mut xnoise_sum = 0.0;
    for &seed in &seeds {
        let mut task = eval_tasks(Scale::Quick, seed).remove(1); // cifar10-like
        task.rounds = 25;
        task.seed = seed;
        task.dropout = DropoutModel::FixedRate { rate: 0.2 };
        orig_sum += train(&with_variant(task.clone(), Variant::Orig))
            .unwrap()
            .final_accuracy;
        xnoise_sum += train(&with_variant(task, XNOISE)).unwrap().final_accuracy;
    }
    let k = seeds.len() as f64;
    let (orig, xnoise) = (orig_sum / k, xnoise_sum / k);
    let diff = (orig - xnoise).abs();
    assert!(
        diff < 0.12,
        "mean accuracy gap {diff} too large: orig {orig} vs xnoise {xnoise}"
    );
}

#[test]
fn beyond_tolerance_dropout_degrades_gracefully() {
    // With tolerance T = 25% but dropout 50%, XNoise cannot fully enforce
    // the level (noise stays insufficient) — but it must still do no
    // worse than Orig at the same rate.
    let mut spec = tiny(
        24,
        0.5,
        Variant::XNoise {
            tolerance_frac: 0.25,
            collusion_frac: 0.0,
        },
    );
    spec.rounds = 20;
    let xnoise = train(&spec).unwrap();
    let mut orig_spec = tiny(24, 0.5, Variant::Orig);
    orig_spec.rounds = 20;
    let orig = train(&orig_spec).unwrap();
    assert!(
        xnoise.epsilon_consumed <= orig.epsilon_consumed + 1e-9,
        "xnoise {} vs orig {}",
        xnoise.epsilon_consumed,
        orig.epsilon_consumed
    );
}

#[test]
fn collusion_tolerance_costs_only_inflation() {
    // With T_C > 0 the budget is still respected (noise is inflated, so
    // realized ε is *below* the target), and training still clears chance
    // accuracy on average (4 classes => chance 0.25).
    let mut acc = 0.0;
    for seed in [25u64, 77, 204] {
        let mut spec = tiny(
            seed,
            0.2,
            Variant::XNoise {
                tolerance_frac: 0.5,
                collusion_frac: 0.2,
            },
        );
        spec.rounds = 20;
        let report = train(&spec).unwrap();
        assert!(report.epsilon_consumed < 6.0);
        acc += report.final_accuracy;
    }
    let mean = acc / 3.0;
    assert!(mean > 0.3, "mean acc {mean}");
}
