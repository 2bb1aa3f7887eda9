//! The Appendix C pipeline schedule.
//!
//! Given `a` stages with durations `τ_s` (per chunk) and resource tags,
//! and `m` chunks, compute begin/finish times under three constraints:
//!
//! 1. chunk `c` passes through stages in order (`b_{s,c} ≥ f_{s-1,c}`),
//! 2. a stage processes chunks in order (`b_{s,c} ≥ f_{s,c-1}`),
//! 3. FIFO resource exclusivity: stage `s` cannot start its first chunk
//!    until the *previous* stage on the same resource has finished its
//!    last chunk (`b_{s,0} ≥ f_{q,m-1}` with
//!    `q = max{i < s : resource_i = resource_s}`).
//!
//! The makespan is `f_{a-1,m-1}`.

use crate::Resource;

/// A full pipeline schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// `begin[s][c]`: start time of stage `s` for chunk `c`.
    pub begin: Vec<Vec<f64>>,
    /// `finish[s][c]`.
    pub finish: Vec<Vec<f64>>,
    /// Total makespan.
    pub makespan: f64,
}

/// Computes the schedule for per-chunk stage durations `tau` (length =
/// stage count), resource tags `resources`, and `m` chunks.
///
/// # Examples
///
/// Three unit-time stages on distinct resources, two chunks: the second
/// chunk trails one step behind the first (classic pipeline overlap).
///
/// ```
/// use dordis_pipeline::schedule::schedule;
/// use dordis_pipeline::Resource::{CComp, Comm, SComp};
///
/// let s = schedule(&[1.0, 1.0, 1.0], &[CComp, Comm, SComp], 2);
/// assert!((s.makespan - 4.0).abs() < 1e-12); // vs 6.0 serially.
/// ```
///
/// # Panics
///
/// Panics if `tau`/`resources` lengths differ, are empty, or `m == 0`.
#[must_use]
pub fn schedule(tau: &[f64], resources: &[Resource], m: usize) -> Schedule {
    assert_eq!(tau.len(), resources.len());
    assert!(!tau.is_empty() && m >= 1);
    let a = tau.len();
    let mut begin = vec![vec![0.0f64; m]; a];
    let mut finish = vec![vec![0.0f64; m]; a];
    for s in 0..a {
        // Previous stage on the same resource, if any.
        let q = (0..s).rev().find(|&i| resources[i] == resources[s]);
        for c in 0..m {
            let o = if s == 0 { 0.0 } else { finish[s - 1][c] };
            let r = if c > 0 {
                finish[s][c - 1]
            } else if let Some(q) = q {
                finish[q][m - 1]
            } else {
                0.0
            };
            begin[s][c] = o.max(r);
            finish[s][c] = begin[s][c] + tau[s];
        }
    }
    let makespan = finish[a - 1][m - 1];
    Schedule {
        begin,
        finish,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Resource::{CComp, Comm, SComp};

    const FIVE: [Resource; 5] = [CComp, Comm, SComp, Comm, CComp];

    /// Serial (no-pipeline) execution time of `m` chunks: every chunk runs
    /// all stages before the next chunk starts... which for chunked-but-
    /// unpipelined execution equals `m · Σ τ_s`. With `m = 1` this is the
    /// plain execution time.
    fn serial_makespan(tau: &[f64], m: usize) -> f64 {
        tau.iter().sum::<f64>() * m as f64
    }

    #[test]
    fn single_chunk_is_serial() {
        let tau = [1.0, 2.0, 3.0, 2.0, 1.0];
        let s = schedule(&tau, &FIVE, 1);
        assert!((s.makespan - 9.0).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_two_chunks() {
        // Stages (c, m, s) with τ = 1 each, resources all distinct.
        let tau = [1.0, 1.0, 1.0];
        let res = [CComp, Comm, SComp];
        let s = schedule(&tau, &res, 2);
        // Chunk 0: 0-1, 1-2, 2-3. Chunk 1: 1-2, 2-3, 3-4.
        assert!((s.makespan - 4.0).abs() < 1e-12);
        assert_eq!(s.begin[0][1], 1.0);
        assert_eq!(s.begin[2][1], 3.0);
    }

    #[test]
    fn resource_reuse_serializes_stages() {
        // Two stages on the SAME resource cannot overlap across chunks:
        // stage 1 chunk 0 must wait for stage 0 chunk m-1.
        let tau = [1.0, 1.0];
        let res = [CComp, CComp];
        let s = schedule(&tau, &res, 3);
        // Stage 0 finishes chunk 2 at t=3; stage 1 runs 3,4,5 → makespan 6.
        assert!((s.makespan - 6.0).abs() < 1e-12);
        assert_eq!(s.begin[1][0], 3.0);
    }

    #[test]
    fn five_stage_pipeline_overlaps() {
        // The paper's 5-stage layout: stages 1/5 share c-comp, 2/4 share
        // comm. With 3 chunks and equal durations the pipeline must beat
        // serial chunked execution.
        let tau = [1.0; 5];
        let s3 = schedule(&tau, &FIVE, 3);
        assert!(s3.makespan < serial_makespan(&tau, 3));
        // And must respect the FIFO constraint: stage 4 (c-comp) cannot
        // start until stage 0 (c-comp) finished all chunks (t = 3).
        assert!(s3.begin[4][0] >= 3.0);
    }

    #[test]
    fn pipeline_never_loses_to_serial() {
        let tau = [2.0, 5.0, 1.0, 4.0, 2.0];
        for m in 1..=10 {
            let s = schedule(&tau, &FIVE, m);
            assert!(
                s.makespan <= serial_makespan(&tau, m) + 1e-9,
                "m={m}: {} > serial {}",
                s.makespan,
                serial_makespan(&tau, m)
            );
        }
    }

    #[test]
    fn makespan_lower_bound_is_bottleneck_resource() {
        // The busiest resource's total work lower-bounds the makespan.
        let tau = [2.0, 5.0, 1.0, 4.0, 2.0];
        let m = 6;
        let s = schedule(&tau, &FIVE, m);
        let comm_work = (tau[1] + tau[3]) * m as f64;
        let ccomp_work = (tau[0] + tau[4]) * m as f64;
        let scomp_work = tau[2] * m as f64;
        let bound = comm_work.max(ccomp_work).max(scomp_work);
        assert!(s.makespan >= bound - 1e-9);
    }

    #[test]
    fn begins_are_monotone_per_stage() {
        let tau = [1.5, 0.5, 2.0, 0.5, 1.5];
        let s = schedule(&tau, &FIVE, 5);
        for st in 0..5 {
            for c in 1..5 {
                assert!(s.begin[st][c] >= s.finish[st][c - 1] - 1e-12);
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_chunks_panics() {
        let _ = schedule(&[1.0], &[CComp], 0);
    }
}

#[cfg(test)]
mod cross_check_tests {
    use super::*;
    use crate::event::simulate;
    use proptest::prelude::*;
    use Resource::{CComp, Comm, SComp};

    const FIVE: [Resource; 5] = [CComp, Comm, SComp, Comm, CComp];

    #[test]
    fn recurrence_matches_event_simulation_on_fixed_cases() {
        for (tau, m) in [
            (vec![1.0, 2.0, 3.0, 2.0, 1.0], 1usize),
            (vec![1.0; 5], 3),
            (vec![2.0, 5.0, 1.0, 4.0, 2.0], 6),
            (vec![0.5, 0.1, 9.0, 0.1, 0.5], 8),
        ] {
            let rec = schedule(&tau, &FIVE, m).makespan;
            let sim = simulate(&tau, &FIVE, m).makespan;
            assert!(
                (rec - sim).abs() < 1e-9,
                "m={m} tau={tau:?}: recurrence {rec} vs event-sim {sim}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The closed-form Appendix-C recurrence and the event-driven
        /// simulator are independent implementations of the same policy;
        /// they must agree on every workload.
        #[test]
        fn prop_recurrence_matches_event_simulation(
            tau in proptest::collection::vec(0.01f64..10.0, 5),
            m in 1usize..10,
        ) {
            let rec = schedule(&tau, &FIVE, m).makespan;
            let sim = simulate(&tau, &FIVE, m).makespan;
            prop_assert!((rec - sim).abs() < 1e-9, "rec {rec} vs sim {sim}");
        }
    }
}
