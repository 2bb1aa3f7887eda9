//! Per-stage cost model for distributed-DP rounds.
//!
//! Computes the duration of each of Table 1's five stages from protocol
//! op counts (masks expanded, secrets shared, seeds regenerated, bytes
//! moved) times calibrated unit costs. One calibration ships,
//! [`UnitCosts::paper_testbed`]: scaled to reproduce the magnitudes of
//! the paper's Python/PyTorch prototype on throttled EC2 instances
//! (Figures 2 and 10 of the paper live in this regime — per-element
//! costs two orders of magnitude above native Rust).
//!
//! The *shape* of the results (SecAgg dominance, XNoise
//! overhead shrinking with dropout, pipeline speedups growing with model
//! size) is calibration-independent; `tests/reproduction_shapes.rs` at
//! the workspace root pins those shapes.

use crate::hetero::ClientProfile;
use crate::Resource;

/// One stage's resource and duration.
#[derive(Clone, Debug)]
pub(crate) struct StageCost {
    /// Dominant resource.
    pub resource: Resource,
    /// Duration in seconds.
    pub secs: f64,
}

/// Calibrated unit costs (reference client; the straggler's
/// `compute_factor` scales client-side work).
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    /// PRG expansion, ns per output byte (mask generation).
    pub prg_byte_ns: f64,
    /// Skellam noise sampling / regeneration, ns per element.
    pub skellam_elem_ns: f64,
    /// DP encode (clip + rotate + round), ns per element.
    pub encode_elem_ns: f64,
    /// DP decode, ns per element.
    pub decode_elem_ns: f64,
    /// Ring addition, ns per element.
    pub add_elem_ns: f64,
    /// x25519 keypair generation, µs.
    pub ka_keygen_us: f64,
    /// x25519 agreement, µs.
    pub ka_agree_us: f64,
    /// Shamir share generation, µs per (secret, recipient) pair.
    pub shamir_share_us: f64,
    /// Shamir reconstruction, µs per secret.
    pub shamir_recon_us: f64,
    /// AEAD, ns per byte.
    pub aead_byte_ns: f64,
    /// Signature sign/verify, µs each.
    pub sig_us: f64,
    /// Per-message round-trip latency floor, seconds.
    pub rtt_secs: f64,
    /// How much faster the server is than the reference client.
    pub server_speedup: f64,
    /// Effective server NIC throughput in Mbps (shared across all
    /// clients; the bottleneck when many clients upload simultaneously).
    pub server_bandwidth_mbps: f64,
    /// Pipelining intervention cost per extra in-flight chunk, seconds
    /// (the paper's β₂ term: client resources are not isolated).
    pub intervention_secs: f64,
}

impl UnitCosts {
    /// Costs scaled to the paper's Python prototype on c5.xlarge clients
    /// (matching the Figure 2/10 magnitudes).
    #[must_use]
    pub fn paper_testbed() -> Self {
        UnitCosts {
            prg_byte_ns: 45.0,
            skellam_elem_ns: 30.0,
            encode_elem_ns: 200.0,
            decode_elem_ns: 150.0,
            add_elem_ns: 15.0,
            ka_keygen_us: 500.0,
            ka_agree_us: 500.0,
            shamir_share_us: 60.0,
            shamir_recon_us: 400.0,
            aead_byte_ns: 40.0,
            sig_us: 800.0,
            rtt_secs: 0.1,
            server_speedup: 2.5,
            server_bandwidth_mbps: 45.0,
            intervention_secs: 1.0,
        }
    }
}

/// Which aggregation protocol a round runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// No masking at all (baseline).
    Plain,
    /// Bonawitz et al. (complete masking graph).
    SecAgg,
    /// Bell et al. (k-regular masking graph of `O(log n)` degree).
    SecAggPlus,
}

impl Protocol {
    /// Masking-graph degree for `n` clients.
    #[must_use]
    pub(crate) fn degree(&self, n: usize) -> usize {
        match self {
            Protocol::Plain => 0,
            Protocol::SecAgg => n.saturating_sub(1),
            Protocol::SecAggPlus => {
                let lg = (usize::BITS - n.max(2).leading_zeros()) as usize;
                (2 * (lg + 1)).min(n.saturating_sub(1))
            }
        }
    }
}

/// Inputs describing one aggregation round for costing.
#[derive(Clone, Copy, Debug)]
pub struct RoundCostInput {
    /// Sampled clients `n`.
    pub clients: usize,
    /// Vector (model or chunk) length `d`.
    pub vector_len: usize,
    /// Aggregation protocol.
    pub protocol: Protocol,
    /// Per-round dropout rate in `[0, 1)`.
    pub dropout_rate: f64,
    /// Distributed DP enabled (encode/decode/noise costs).
    pub dp_enabled: bool,
    /// XNoise components `T` (0 = `Orig`-style noise, no removal work).
    pub xnoise_components: usize,
    /// Ring bit width.
    pub bit_width: u32,
    /// The cohort straggler (synchronous rounds wait for it).
    pub straggler: ClientProfile,
    /// Non-aggregation time per round (local training and model I/O).
    pub other_secs: f64,
}

impl RoundCostInput {
    fn survivors(&self) -> f64 {
        (self.clients as f64) * (1.0 - self.dropout_rate)
    }

    fn dropped(&self) -> f64 {
        (self.clients as f64) * self.dropout_rate
    }
}

/// The cost model: unit costs plus the stage formulas.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Unit costs in effect.
    pub units: UnitCosts,
}

impl CostModel {
    /// Creates a model from unit costs.
    #[must_use]
    pub fn new(units: UnitCosts) -> Self {
        CostModel { units }
    }

    /// The five Table 1 stage durations for one aggregation task over a
    /// vector of `inp.vector_len` elements.
    #[must_use]
    pub(crate) fn stage_costs(&self, inp: &RoundCostInput) -> Vec<StageCost> {
        let u = &self.units;
        let d = inp.vector_len as f64;
        let deg = inp.protocol.degree(inp.clients) as f64;
        let t_noise = inp.xnoise_components as f64;
        let cf = inp.straggler.compute_factor;
        let ns = 1e-9;
        let us = 1e-6;

        // Stage 1 (c-comp): encode, keys, shared secrets, noise, masking.
        let mut s1 = 0.0;
        if inp.dp_enabled {
            s1 += d * u.encode_elem_ns * ns; // Encode.
            let components = if inp.xnoise_components > 0 {
                t_noise + 1.0
            } else {
                1.0
            };
            s1 += components * d * u.skellam_elem_ns * ns; // Noise addition.
        }
        if inp.protocol != Protocol::Plain {
            s1 += 2.0 * u.ka_keygen_us * us; // Key generation.
            s1 += deg * u.ka_agree_us * us; // Shared secrets.
                                            // Pairwise masks with each neighbor plus the self mask.
            s1 += (deg + 1.0) * d * 8.0 * u.prg_byte_ns * ns;
            // Shamir shares: s_sk, b, and T seeds — evaluated only at
            // the `deg + 1` neighborhood x-coordinates (the owner's
            // share-holder set), not the whole roster.
            s1 += (2.0 + t_noise) * (deg + 1.0) * u.shamir_share_us * us;
            // AEAD over the share bundles.
            let bundle_bytes = 8.0 + 34.0 * (2.0 + t_noise) + 44.0;
            s1 += deg * bundle_bytes * u.aead_byte_ns * ns;
        }
        let s1 = s1 * cf;

        // Stage 2 (comm): upload masked input (+ ciphertext bundles).
        let vector_bytes = d * f64::from(inp.bit_width) / 8.0;
        let mut up_bytes = vector_bytes;
        if inp.protocol != Protocol::Plain {
            let bundle_bytes = 8.0 + 34.0 * (2.0 + t_noise) + 44.0;
            up_bytes += deg * bundle_bytes + 2.0 * 32.0;
        }
        // The server's shared NIC serves every live uploader at once.
        let live = inp.survivors();
        let server_up = live * up_bytes * 8.0 / (u.server_bandwidth_mbps * 1e6);
        let s2 = inp.straggler.transfer_secs(up_bytes).max(server_up) + u.rtt_secs;

        // Stage 3 (s-comp): aggregate, reconstruct, unmask, denoise.
        let mut s3 = inp.survivors() * d * u.add_elem_ns * ns; // Summation.
        if inp.protocol != Protocol::Plain {
            // Self-mask regeneration for survivors.
            s3 += inp.survivors() * d * 8.0 * u.prg_byte_ns * ns;
            // Pairwise-mask regeneration for dropped clients.
            let deg_alive = deg * (1.0 - inp.dropout_rate);
            s3 += inp.dropped() * (u.shamir_recon_us * us + deg_alive * u.ka_agree_us * us);
            s3 += inp.dropped() * deg_alive * d * 8.0 * u.prg_byte_ns * ns;
            s3 += inp.survivors() * u.shamir_recon_us * us; // b_u recon.
        }
        if inp.dp_enabled && inp.xnoise_components > 0 {
            // Excess-noise removal: regenerate (T - |D|) components per
            // survivor — the dominant XNoise cost, shrinking with dropout.
            let to_remove = (t_noise - inp.dropped()).max(0.0);
            s3 += inp.survivors() * to_remove * d * u.skellam_elem_ns * ns;
        }
        let s3 = s3 / u.server_speedup;

        // Stage 4 (comm): broadcast the aggregate through the same NIC.
        let server_down = live * vector_bytes * 8.0 / (u.server_bandwidth_mbps * 1e6);
        let s4 = inp.straggler.transfer_secs(vector_bytes).max(server_down) + u.rtt_secs;

        // Stage 5 (c-comp): decode and apply.
        let mut s5 = d * u.add_elem_ns * ns;
        if inp.dp_enabled {
            s5 += d * u.decode_elem_ns * ns;
        }
        let s5 = s5 * cf;

        vec![
            StageCost {
                resource: Resource::CComp,
                secs: s1,
            },
            StageCost {
                resource: Resource::Comm,
                secs: s2,
            },
            StageCost {
                resource: Resource::SComp,
                secs: s3,
            },
            StageCost {
                resource: Resource::Comm,
                secs: s4,
            },
            StageCost {
                resource: Resource::CComp,
                secs: s5,
            },
        ]
    }

    /// Plain (unpipelined) execution: stages run back to back.
    /// Returns `(aggregation seconds, other seconds)`.
    #[must_use]
    pub(crate) fn plain_round(&self, inp: &RoundCostInput) -> (f64, f64) {
        let agg: f64 = self.stage_costs(inp).iter().map(|s| s.secs).sum();
        (agg, inp.other_secs)
    }

    /// Stage durations when the round is split into `m` chunks: work
    /// scales down by `m`, the per-stage constant (RTT) stays, and the
    /// intervention penalty grows with pipeline depth (the paper's
    /// `β₁ d/m + β₂ m + β₃` model).
    #[must_use]
    pub(crate) fn chunked_stage_costs(&self, inp: &RoundCostInput, m: usize) -> Vec<StageCost> {
        assert!(m >= 1);
        let mut chunk_inp = *inp;
        chunk_inp.vector_len = inp.vector_len.div_ceil(m);
        let mut costs = self.stage_costs(&chunk_inp);
        // Per-chunk protocol constants (key setup, shares) do not shrink
        // with m, and each extra in-flight chunk steals cycles.
        let intervention = self.units.intervention_secs * (m as f64 - 1.0) / m as f64;
        for c in costs.iter_mut() {
            c.secs += intervention;
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straggler() -> ClientProfile {
        ClientProfile {
            compute_factor: 8.0,
            bandwidth_mbps: 21.0,
        }
    }

    fn input(d: usize, n: usize, protocol: Protocol) -> RoundCostInput {
        RoundCostInput {
            clients: n,
            vector_len: d,
            protocol,
            dropout_rate: 0.1,
            dp_enabled: true,
            xnoise_components: n / 2,
            bit_width: 20,
            straggler: straggler(),
            other_secs: 20.0,
        }
    }

    #[test]
    fn five_stages_with_alternating_resources() {
        let m = CostModel::new(UnitCosts::paper_testbed());
        let stages = m.stage_costs(&input(1_000_000, 100, Protocol::SecAgg));
        assert_eq!(stages.len(), 5);
        let resources: Vec<Resource> = stages.iter().map(|s| s.resource).collect();
        assert_eq!(
            resources,
            vec![
                Resource::CComp,
                Resource::Comm,
                Resource::SComp,
                Resource::Comm,
                Resource::CComp
            ]
        );
        // Adjacent stages use different resources (pipelining precondition).
        for w in resources.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn aggregation_dominates_round_time() {
        // The paper's §2.3.2 observation: SecAgg is 86-97% of the round.
        let m = CostModel::new(UnitCosts::paper_testbed());
        let (agg, other) = m.plain_round(&input(11_000_000, 16, Protocol::SecAgg));
        let frac = agg / (agg + other);
        assert!(frac > 0.85, "aggregation fraction {frac}");
    }

    #[test]
    fn secagg_plus_is_cheaper_than_secagg() {
        let m = CostModel::new(UnitCosts::paper_testbed());
        let (agg_full, _) = m.plain_round(&input(1_000_000, 100, Protocol::SecAgg));
        let (agg_plus, _) = m.plain_round(&input(1_000_000, 100, Protocol::SecAggPlus));
        assert!(agg_plus < agg_full, "{agg_plus} !< {agg_full}");
    }

    #[test]
    fn plain_is_cheapest() {
        let m = CostModel::new(UnitCosts::paper_testbed());
        let (plain, _) = m.plain_round(&input(1_000_000, 64, Protocol::Plain));
        let (secagg, _) = m.plain_round(&input(1_000_000, 64, Protocol::SecAgg));
        assert!(plain < secagg);
    }

    #[test]
    fn cost_grows_with_clients_and_model() {
        let m = CostModel::new(UnitCosts::paper_testbed());
        let (a, _) = m.plain_round(&input(1_000_000, 32, Protocol::SecAgg));
        let (b, _) = m.plain_round(&input(1_000_000, 64, Protocol::SecAgg));
        assert!(b > a, "clients: {b} !> {a}");
        let (c, _) = m.plain_round(&input(11_000_000, 32, Protocol::SecAgg));
        assert!(c > a, "model: {c} !> {a}");
    }

    #[test]
    fn xnoise_overhead_shrinks_with_dropout() {
        // §6.3: more dropout = less noise to remove = lower overhead.
        let m = CostModel::new(UnitCosts::paper_testbed());
        let base = input(1_000_000, 100, Protocol::SecAgg);
        let overhead_at = |rate: f64| {
            let with = {
                let mut i = base;
                i.dropout_rate = rate;
                m.plain_round(&i).0
            };
            let without = {
                let mut i = base;
                i.dropout_rate = rate;
                i.xnoise_components = 0;
                m.plain_round(&i).0
            };
            (with - without) / without
        };
        let o0 = overhead_at(0.0);
        let o30 = overhead_at(0.3);
        assert!(o0 > o30, "overhead {o0} should exceed {o30}");
        assert!(o0 < 0.6, "overhead at 0% dropout is {o0}, implausibly high");
    }

    #[test]
    fn chunking_reduces_per_stage_cost_but_adds_overhead() {
        let m = CostModel::new(UnitCosts::paper_testbed());
        let inp = input(11_000_000, 16, Protocol::SecAgg);
        let whole: f64 = m.stage_costs(&inp).iter().map(|s| s.secs).sum();
        let per_chunk: f64 = m.chunked_stage_costs(&inp, 4).iter().map(|s| s.secs).sum();
        assert!(per_chunk < whole, "{per_chunk} !< {whole}");
        // But m chunks in sequence cost more than the whole (overheads),
        // which is why pipelining (overlap), not chunking, is the win.
        assert!(per_chunk * 4.0 > whole);
    }

    #[test]
    fn straggler_bandwidth_drives_comm() {
        // A server NIC that is not the bottleneck, so the straggler's
        // uplink is.
        let m = CostModel::new(UnitCosts {
            server_bandwidth_mbps: 10_000.0,
            ..UnitCosts::paper_testbed()
        });
        let mut inp = input(11_000_000, 16, Protocol::SecAgg);
        let slow = m.stage_costs(&inp)[1].secs;
        inp.straggler.bandwidth_mbps = 210.0;
        let fast = m.stage_costs(&inp)[1].secs;
        assert!(slow > 5.0 * fast, "{slow} vs {fast}");
    }
}
