//! Figure 12 realized on 127.0.0.1: with per-stage latency
//! injected (bandwidth-throttled client uplinks + emulated server-side
//! per-chunk aggregation compute), the planner-chosen chunk count must
//! beat m = 1 wall-clock — chunk `c+1`'s upload overlaps chunk `c`'s
//! aggregation, which a single monolithic frame cannot do.
//!
//! The chunk count is chosen the way deployed Dordis chooses it (§4.2):
//! fit stage models of the injected costs, run the Appendix C makespan
//! planner, take the argmin.

use std::time::{Duration, Instant};

use dordis_net::coordinator::NetRoundReport;
use dordis_net::local;
use dordis_net::session::{Session, SessionConfig};
use dordis_net::transport::ThrottledChannel;
use dordis_pipeline::perfmodel::StageModel;
use dordis_pipeline::planner::plan;
use dordis_pipeline::Resource;
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{RoundParams, ThreatModel};

/// One injected-latency overlap experiment: its round shape and its
/// per-stage costs.
#[derive(Clone, Copy, Debug)]
struct OverlapScenario {
    dim: usize,
    clients: u32,
    threshold: usize,
    bit_width: u32,
    /// Simulated uplink bandwidth per client (the comm stage).
    uplink_bytes_per_sec: u64,
    /// Emulated whole-vector server aggregation cost (the s-comp
    /// stage), injected per chunk proportionally to chunk size.
    compute: Duration,
    /// Per-chunk intervention overhead `β₂` fed to the planner
    /// (framing + poll granularity), seconds per chunk of depth.
    per_chunk_overhead: f64,
}

/// Upload ≈ compute ≈ 200 ms, so pipelining can overlap most of one of
/// them.
const SCENARIO: OverlapScenario = OverlapScenario {
    dim: 50_000,
    clients: 4,
    threshold: 3,
    bit_width: 16,
    uplink_bytes_per_sec: 500_000,
    compute: Duration::from_millis(200),
    per_chunk_overhead: 0.004,
};

impl OverlapScenario {
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

    /// The §4.2 planner's chunk count for analytic models of the
    /// injected costs — what the paper's offline profiler would fit:
    /// comm `τ(m) = upload/m + β₂m`, s-comp `τ(m) = compute/m + β₂m`.
    fn planner_chunks(&self) -> usize {
        let masked_bytes = 4.0 + (self.dim as f64 * f64::from(self.bit_width) / 8.0);
        let upload_secs = masked_bytes / self.uplink_bytes_per_sec as f64;
        let stage = |secs: f64| StageModel {
            beta1: secs / self.dim as f64,
            beta2: self.per_chunk_overhead,
            beta3: 0.0,
            d: self.dim as f64,
        };
        let models = [stage(upload_secs), stage(self.compute.as_secs_f64())];
        plan(&models, &[Resource::Comm, Resource::SComp], 20).chunks
    }

    /// One full round at `chunks` with the scenario's latency injected:
    /// the report and the coordinator's wall-clock time.
    fn timed_round(&self, chunks: usize) -> (NetRoundReport, Duration) {
        let (mut acceptor, addr) = local::listen();
        let scenario = *self;
        let cohort = local::spawn(0..self.clients, move |id| {
            let mut chan = ThrottledChannel::new(
                Box::new(local::dial(&addr)),
                scenario.uplink_bytes_per_sec,
                Duration::ZERO,
            );
            let mask = (1u64 << scenario.bit_width) - 1;
            let input = ClientInput {
                vector: (0..scenario.dim)
                    .map(|i| (u64::from(id) * 31 + i as u64) & mask)
                    .collect(),
                noise_seeds: Vec::new(),
            };
            local::roster_client(&mut chan, id, 5, |_| None, |_| input.clone(), None)
                .expect("client run");
        });
        let cfg = SessionConfig {
            chunks,
            chunk_compute: Some(self.compute),
            ..local::one_round(self.params())
        };
        let mut session = Session::new(&mut acceptor, cfg).expect("session");
        let start = Instant::now();
        let report = session.run_round(&[]).expect("coordinator");
        let elapsed = start.elapsed();
        session.finish();
        cohort.reap().expect("client thread");
        (report, elapsed)
    }
}

#[test]
fn planner_chosen_chunks_beat_single_chunk_wall_clock() {
    let scenario = SCENARIO;
    let chosen = scenario.planner_chunks();
    assert!(
        chosen > 1,
        "planner must choose to pipeline (got m={chosen})"
    );

    // Wall-clock comparisons on shared CI runners are noisy; the win is
    // large (upload ≈ compute ≈ 200 ms, overlap saves most of one), so
    // require it within three attempts rather than flaking on one
    // descheduled run.
    let mut last = None;
    for attempt in 0..3 {
        let (report_1, t_1) = scenario.timed_round(1);
        let (report_m, t_m) = scenario.timed_round(chosen);

        // Same round, same bits — chunking changed only the wall-clock.
        assert_eq!(report_1.outcome.sum, report_m.outcome.sum);
        assert_eq!(report_1.outcome.survivors, report_m.outcome.survivors);
        assert_eq!(report_1.chunks, 1);
        assert!(report_m.chunks > 1);

        if t_m.as_secs_f64() < t_1.as_secs_f64() * 0.9 {
            return;
        }
        eprintln!("attempt {attempt}: m={chosen} {t_m:?} vs m=1 {t_1:?}, retrying");
        last = Some((t_1, t_m));
    }
    let (t_1, t_m) = last.expect("three attempts ran");
    panic!("pipelined round (m={chosen}) never beat single-chunk: {t_m:?} vs {t_1:?}");
}
