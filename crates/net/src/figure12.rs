//! The shared Figure 12 experiment harness: a 127.0.0.1 round with
//! injected per-stage latency (bandwidth-throttled client uplinks +
//! emulated per-chunk server compute), plus the analytic stage models
//! that let the §4.2 planner choose the chunk count for exactly the
//! costs being injected.
//!
//! Both the `pipeline_overlap` regression test and the `chunked_round`
//! bench drive this one definition, so the experiment they describe —
//! and its constants — cannot drift apart.

use std::time::{Duration, Instant};

use dordis_pipeline::perfmodel::StageModel;
use dordis_pipeline::planner::plan;
use dordis_pipeline::Resource;
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{RoundParams, ThreatModel};

use crate::coordinator::NetRoundReport;
use crate::runtime::{run_session_client, SessionClientOptions};
use crate::session::{Seating, Session, SessionConfig};
use crate::tcp::{TcpAcceptor, TcpChannel};
use crate::transport::{Acceptor as _, ThrottledChannel};

/// One injected-latency overlap experiment: its round shape and its
/// per-stage costs.
#[derive(Clone, Copy, Debug)]
pub struct OverlapScenario {
    /// Model dimension `d`.
    pub dim: usize,
    /// Sampled client count.
    pub clients: u32,
    /// SecAgg threshold.
    pub threshold: usize,
    /// Ring bit width.
    pub bit_width: u32,
    /// Simulated uplink bandwidth per client (the comm stage).
    pub uplink_bytes_per_sec: u64,
    /// Emulated whole-vector server aggregation cost (the s-comp
    /// stage), injected per chunk proportionally to chunk size.
    pub compute: Duration,
    /// Per-chunk intervention overhead `β₂` fed to the planner
    /// (framing + poll granularity), seconds per chunk of depth.
    pub per_chunk_overhead: f64,
}

impl OverlapScenario {
    /// The default in-process experiment: upload ≈ compute ≈ 200 ms, so
    /// pipelining can overlap most of one of them.
    #[must_use]
    pub fn default_loopback() -> OverlapScenario {
        OverlapScenario {
            dim: 50_000,
            clients: 4,
            threshold: 3,
            bit_width: 16,
            uplink_bytes_per_sec: 500_000,
            compute: Duration::from_millis(200),
            per_chunk_overhead: 0.004,
        }
    }

    fn params(&self) -> RoundParams {
        RoundParams {
            round: 1,
            clients: (0..self.clients).collect(),
            threshold: self.threshold,
            bit_width: self.bit_width,
            vector_len: self.dim,
            noise_components: 0,
            threat_model: ThreatModel::SemiHonest,
            graph: MaskingGraph::Complete,
        }
    }

    /// Analytic per-stage models of the injected costs — what the
    /// paper's offline profiler would fit: comm `τ(m) = upload/m + β₂m`,
    /// s-comp `τ(m) = compute/m + β₂m`.
    #[must_use]
    pub fn models(&self) -> (Vec<StageModel>, Vec<Resource>) {
        let masked_bytes = 4.0 + (self.dim as f64 * f64::from(self.bit_width) / 8.0);
        let upload_secs = masked_bytes / self.uplink_bytes_per_sec as f64;
        let comm = StageModel {
            beta1: upload_secs / self.dim as f64,
            beta2: self.per_chunk_overhead,
            beta3: 0.0,
            d: self.dim as f64,
        };
        let scomp = StageModel {
            beta1: self.compute.as_secs_f64() / self.dim as f64,
            beta2: self.per_chunk_overhead,
            beta3: 0.0,
            d: self.dim as f64,
        };
        (vec![comm, scomp], vec![Resource::Comm, Resource::SComp])
    }

    /// The §4.2 planner's chunk count for this scenario's costs.
    #[must_use]
    pub fn planner_chunks(&self) -> usize {
        let (models, resources) = self.models();
        plan(&models, &resources, 20).chunks
    }

    /// Runs one full round at the given chunk count over 127.0.0.1 with the scenario's latency injected; returns the
    /// report and the coordinator's wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics on any coordinator/client failure (harness, not
    /// production).
    #[must_use]
    pub fn timed_round(&self, chunks: usize) -> (NetRoundReport, Duration) {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
        let mut handles = Vec::new();
        for id in 0..self.clients {
            let addr = acceptor.local_addr();
            let scenario = *self;
            handles.push(std::thread::spawn(move || {
                let inner = TcpChannel::connect(addr.as_str()).expect("connect");
                let mut chan = ThrottledChannel::new(
                    Box::new(inner),
                    scenario.uplink_bytes_per_sec,
                    Duration::ZERO,
                );
                let opts = SessionClientOptions {
                    id,
                    rng_seed: 5,
                    recv_timeout: Duration::from_secs(30),
                    silent_linger: Duration::from_secs(1),
                };
                let mask = (1u64 << scenario.bit_width) - 1;
                let input = ClientInput {
                    vector: (0..scenario.dim)
                        .map(|i| (u64::from(id) * 31 + i as u64) & mask)
                        .collect(),
                    noise_seeds: Vec::new(),
                };
                run_session_client(
                    &mut chan,
                    &opts,
                    |_| None,
                    |_| None,
                    |_, _, _, _| Ok(input.clone()),
                    |_| None,
                )
            }));
        }
        let params = self.params();
        let cfg = SessionConfig {
            chunks,
            chunk_compute: Some(self.compute),
            ..SessionConfig::new(1, Seating::Roster, Box::new(move |_, _| params.clone()))
        };
        let mut session = Session::new(&mut acceptor, cfg).expect("session");
        let start = Instant::now();
        let report = session.run_round(&[]).expect("coordinator");
        let elapsed = start.elapsed();
        session.finish();
        for h in handles {
            h.join().expect("client thread").expect("client run");
        }
        (report, elapsed)
    }
}
