//! Shape assertions for every system-performance result the paper
//! reports: these tests pin the *qualitative* claims (who wins, what
//! grows, where crossovers sit), so a regression in any model or
//! calibration that would silently change a figure fails loudly.

use dordis_bench::{fig10_scenarios, fig2_scenarios};
use dordis_pipeline::cost::UnitCosts;
use dordis_pipeline::timing::estimate;
use dordis_xnoise::footprint::{
    default_tolerance, rebasing_extra_bytes, xnoise_extra_bytes, FootprintScenario, WireSizes,
};

#[test]
fn fig2_shape_aggregation_dominates_and_grows() {
    let units = UnitCosts::paper_testbed();
    let mut prev_secagg = 0.0;
    for s in fig2_scenarios() {
        let rt = estimate(&s, &units, 3);
        assert!(
            rt.agg_fraction() > 0.80,
            "{}: agg fraction {}",
            s.name,
            rt.agg_fraction()
        );
        // Round time grows with client count within each protocol.
        if s.name.starts_with("secagg/") && s.dp {
            assert!(rt.plain_total() > prev_secagg, "{} should grow", s.name);
            prev_secagg = rt.plain_total();
        }
    }
}

#[test]
fn fig2_shape_dp_adds_modest_cost() {
    let units = UnitCosts::paper_testbed();
    let scenarios = fig2_scenarios();
    for pair in scenarios.chunks(2) {
        let (nodp, dp) = (&pair[0], &pair[1]);
        assert!(!nodp.dp && dp.dp);
        let t_nodp = estimate(nodp, &units, 4).plain_total();
        let t_dp = estimate(dp, &units, 4).plain_total();
        assert!(t_dp > t_nodp, "{}: DP must cost something", dp.name);
        assert!(
            t_dp < 1.6 * t_nodp,
            "{}: DP overhead implausibly large",
            dp.name
        );
    }
}

#[test]
fn fig10_shape_pipeline_speedups() {
    let units = UnitCosts::paper_testbed();
    for rate in [0.0, 0.1, 0.2, 0.3] {
        for s in fig10_scenarios(rate) {
            let rt = estimate(&s, &units, 5);
            let speedup = rt.speedup();
            assert!(
                (1.0..=2.6).contains(&speedup),
                "{} at d={rate}: speedup {speedup}",
                s.name
            );
            // FEMNIST (100 clients) with the 11M model must gain
            // substantially (the paper's 1.7-2.0x regime; our calibration
            // spans ~1.3x at d=0 up to ~2.3x once dropout adds server
            // reconstruction work).
            if s.name.contains("femnist/resnet18") && s.name.contains("/secagg/") {
                assert!(speedup > 1.25, "{}: speedup {speedup}", s.name);
            }
        }
    }
}

#[test]
fn fig10_shape_xnoise_overhead_bounded_and_shrinking() {
    let units = UnitCosts::paper_testbed();
    for (base_name, xnoise_name) in [
        ("femnist/cnn-1M/secagg/orig", "femnist/cnn-1M/secagg/xnoise"),
        (
            "cifar10/resnet18-11M/secagg/orig",
            "cifar10/resnet18-11M/secagg/xnoise",
        ),
    ] {
        let overhead_at = |rate: f64| {
            let scenarios = fig10_scenarios(rate);
            let base = scenarios.iter().find(|s| s.name == base_name).unwrap();
            let with = scenarios.iter().find(|s| s.name == xnoise_name).unwrap();
            let t_base = estimate(base, &units, 6).plain_total();
            let t_with = estimate(with, &units, 6).plain_total();
            (t_with - t_base) / t_base
        };
        let o0 = overhead_at(0.0);
        let o30 = overhead_at(0.3);
        assert!(o0 > 0.0 && o0 < 0.45, "{base_name}: overhead {o0}");
        assert!(
            o30 < o0,
            "{base_name}: overhead should shrink ({o0} -> {o30})"
        );
    }
}

#[test]
fn fig10_shape_larger_models_gain_more() {
    let units = UnitCosts::paper_testbed();
    let scenarios = fig10_scenarios(0.1);
    let speedup_of = |name: &str| {
        let s = scenarios.iter().find(|s| s.name == name).unwrap();
        estimate(s, &units, 7).speedup()
    };
    let cnn = speedup_of("femnist/cnn-1M/secagg/orig");
    let resnet = speedup_of("femnist/resnet18-11M/secagg/orig");
    assert!(
        resnet > cnn * 0.95,
        "11M model should gain at least as much as 1M: {resnet} vs {cnn}"
    );
    let cifar_resnet = speedup_of("cifar10/resnet18-11M/secagg/orig");
    let cifar_vgg = speedup_of("cifar10/vgg19-20M/secagg/orig");
    assert!(
        cifar_vgg > cifar_resnet * 0.95,
        "20M model should gain at least as much as 11M: {cifar_vgg} vs {cifar_resnet}"
    );
}

#[test]
fn fig10_shape_secagg_plus_cheaper() {
    let units = UnitCosts::paper_testbed();
    let scenarios = fig10_scenarios(0.1);
    for s in &scenarios {
        if !s.name.contains("/secagg/") {
            continue;
        }
        let plus_name = s.name.replace("/secagg/", "/secagg+/");
        let plus = scenarios.iter().find(|x| x.name == plus_name).unwrap();
        let t_full = estimate(s, &units, 8).plain_total();
        let t_plus = estimate(plus, &units, 8).plain_total();
        assert!(t_plus < t_full, "{}: {t_plus} !< {t_full}", plus.name);
    }
}

#[test]
fn table3_shape_full_grid() {
    // XNoise: flat in model size, quadratic-ish in client count, mildly
    // decreasing in dropout. Rebasing: linear in model size.
    let w = WireSizes::default();
    for &n in &[100usize, 200, 300] {
        for &rate in &[0.0, 0.1, 0.2, 0.3] {
            let base = FootprintScenario {
                model_params: 5_000_000,
                sampled: n,
                dropout_rate: rate,
                tolerance: default_tolerance(n),
            };
            let x5 = xnoise_extra_bytes(&base, &w);
            let x500 = xnoise_extra_bytes(
                &FootprintScenario {
                    model_params: 500_000_000,
                    ..base
                },
                &w,
            );
            assert!((x5 - x500).abs() < 1e4, "xnoise must be size-invariant");
            let r5 = rebasing_extra_bytes(&base, &w);
            let r500 = rebasing_extra_bytes(
                &FootprintScenario {
                    model_params: 500_000_000,
                    ..base
                },
                &w,
            );
            assert!((r500 / r5 - 100.0).abs() < 1.0, "rebasing must scale x100");
            assert!(x5 < r5, "xnoise must beat rebasing at n={n} rate={rate}");
        }
    }
}
