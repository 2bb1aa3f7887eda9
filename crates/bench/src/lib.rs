//! Shared scenario builders and table formatting for the Dordis
//! benchmark harness.
//!
//! The `figures` binary (`cargo run -p dordis-bench --bin figures --release`)
//! regenerates every table and figure of the paper's evaluation; this
//! library holds the scenario definitions so tests can pin them down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dordis_core::config::{ModelSpec, TaskSpec, Variant};
use dordis_pipeline::cost::Protocol;
use dordis_pipeline::timing::TimingScenario;

/// Scale factor for training-based experiments: `quick` shrinks rounds
/// so the whole figure suite completes in a couple of minutes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-shaped round counts (150/300/50).
    Full,
    /// Reduced rounds for smoke runs.
    Quick,
}

impl Scale {
    /// Scales a round count.
    #[must_use]
    pub fn rounds(&self, full: u32) -> u32 {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 5).max(10),
        }
    }
}

/// The three evaluation tasks of §6.1, sized for the semantic trainer.
///
/// Sizing note: with distributed DP, the per-round signal-to-noise ratio
/// scales as `n_survivors / (z · √params)`. The paper's tasks sit in a
/// trainable regime thanks to heavy over-parameterization and long
/// horizons; these synthetic stand-ins reach the same regime by sampling
/// more clients relative to their (small) model sizes.
#[must_use]
pub fn eval_tasks(scale: Scale, seed: u64) -> Vec<TaskSpec> {
    let mut femnist = TaskSpec::femnist_like(seed);
    femnist.rounds = scale.rounds(50);
    // Keep the semantic run affordable: fewer parallel clients sampled
    // but the same sampling *rate* so accounting matches the paper.
    femnist.population = 250;
    femnist.sampled_per_round = 50;
    femnist.dataset.samples = 5000;
    femnist.dataset.dim = 24;
    femnist.dataset.noise = 0.5;

    let mut cifar = TaskSpec::cifar10_like(seed);
    cifar.rounds = scale.rounds(150);
    cifar.model = ModelSpec::Linear;
    cifar.dataset.noise = 0.6;

    let mut reddit = TaskSpec::reddit_like(seed);
    reddit.rounds = scale.rounds(50);
    reddit.model = ModelSpec::Linear;

    vec![femnist, cifar, reddit]
}

/// Applies a variant to a task spec (builder-style).
#[must_use]
pub fn with_variant(mut spec: TaskSpec, variant: Variant) -> TaskSpec {
    spec.variant = variant;
    spec
}

/// The Figure 10 scenario grid: task × protocol × variant.
///
/// Models match the paper: CNN 1M, ResNet-18 11M, VGG-19 20M; client
/// counts 100 (FEMNIST) and 16 (CIFAR-10); `other` seconds estimated
/// from the paper's plain-other bars.
#[must_use]
pub fn fig10_scenarios(dropout_rate: f64) -> Vec<TimingScenario> {
    let mut out = Vec::new();
    let tasks: [(&str, usize, usize, f64); 4] = [
        ("femnist/cnn-1M", 1_000_000, 100, 25.0),
        ("femnist/resnet18-11M", 11_000_000, 100, 60.0),
        ("cifar10/resnet18-11M", 11_000_000, 16, 70.0),
        ("cifar10/vgg19-20M", 20_000_000, 16, 110.0),
    ];
    for (task, params, clients, other) in tasks {
        for (proto_name, protocol) in [
            ("secagg", Protocol::SecAgg),
            ("secagg+", Protocol::SecAggPlus),
        ] {
            for (var_name, xnoise) in [("orig", false), ("xnoise", true)] {
                out.push(TimingScenario {
                    name: format!("{task}/{proto_name}/{var_name}"),
                    model_params: params,
                    clients,
                    protocol,
                    dp: true,
                    xnoise,
                    dropout_rate,
                    other_secs: other,
                    bit_width: 20,
                });
            }
        }
    }
    out
}

/// The Figure 2 scenario grid: SecAgg/SecAgg+ × client counts × DP.
#[must_use]
pub fn fig2_scenarios() -> Vec<TimingScenario> {
    let mut out = Vec::new();
    for (proto_name, protocol) in [
        ("secagg", Protocol::SecAgg),
        ("secagg+", Protocol::SecAggPlus),
    ] {
        for clients in [32usize, 48, 64] {
            for dp in [false, true] {
                out.push(TimingScenario {
                    name: format!(
                        "{proto_name}/n={clients}/{}",
                        if dp { "dp" } else { "nodp" }
                    ),
                    model_params: 11_000_000,
                    clients,
                    protocol,
                    dp,
                    xnoise: false,
                    dropout_rate: 0.1,
                    other_secs: 70.0,
                    bit_width: 20,
                });
            }
        }
    }
    out
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_grids_have_expected_sizes() {
        assert_eq!(fig10_scenarios(0.1).len(), 16);
        assert_eq!(fig2_scenarios().len(), 12);
        assert_eq!(eval_tasks(Scale::Quick, 1).len(), 3);
    }

    #[test]
    fn tasks_validate() {
        for t in eval_tasks(Scale::Full, 2) {
            t.validate().unwrap();
        }
    }

    #[test]
    fn quick_scale_shrinks() {
        assert_eq!(Scale::Quick.rounds(150), 30);
        assert_eq!(Scale::Full.rounds(150), 150);
        assert_eq!(Scale::Quick.rounds(20), 10);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "20000".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
