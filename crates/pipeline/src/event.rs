//! Discrete-event simulation of pipelined stage execution.
//!
//! The pipeline planner computes makespans with the closed-form
//! Appendix-C recurrence; this module executes the same workload as an
//! event-driven simulation — tasks queue on exclusive resources, a
//! virtual clock advances event by event — providing an *independent*
//! implementation to cross-check the recurrence (they must agree exactly;
//! see the tests and `schedule::cross_check_tests`).

use crate::Resource;

/// One executable unit: stage `stage` of chunk `chunk`, occupying
/// `resource`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Task {
    /// Stage index (0-based).
    pub stage: usize,
    /// Chunk index (0-based).
    pub chunk: usize,
    /// Resource the task occupies exclusively.
    pub resource: Resource,
}

/// A completed task instance with its realized schedule.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Completed {
    /// The task.
    pub task: Task,
    /// Start time.
    pub start: f64,
    /// Finish time.
    pub finish: f64,
}

/// Result of an event-driven run.
#[derive(Clone, Debug)]
pub(crate) struct SimOutcome {
    /// Every executed task with realized times.
    pub completed: Vec<Completed>,
    /// Total makespan.
    pub makespan: f64,
}

/// Executes a pipelined round as a discrete-event simulation.
///
/// Scheduling policy (matching Dordis's execution model and the
/// Appendix-C constraints):
///
/// 1. a chunk's stages run in order;
/// 2. a stage processes chunks in order;
/// 3. each resource runs one task at a time, and when several stages
///    compete for a resource, the *earlier* stage wins (FIFO by stage
///    index — an earlier stage's chunks are never preempted by a later
///    stage's).
///
/// `tau[s]` is the per-chunk duration of stage `s`; `resources[s]` its
/// resource; `chunks` the chunk count.
///
/// # Panics
///
/// Panics on empty stages or `chunks == 0`.
#[must_use]
pub(crate) fn simulate(tau: &[f64], resources: &[Resource], chunks: usize) -> SimOutcome {
    assert!(!tau.is_empty() && tau.len() == resources.len());
    assert!(chunks >= 1);
    let stages = tau.len();
    // finish[s][c], or None if not yet executed.
    let mut finish: Vec<Vec<Option<f64>>> = vec![vec![None; chunks]; stages];
    // Per-resource availability time.
    let free_at = |completed: &[Completed], r: Resource| -> f64 {
        completed
            .iter()
            .filter(|c| c.task.resource == r)
            .map(|c| c.finish)
            .fold(0.0, f64::max)
    };
    let mut completed: Vec<Completed> = Vec::with_capacity(stages * chunks);

    // Event loop: repeatedly pick the lowest (stage, chunk) task whose
    // predecessors are done, respecting resource FIFO-by-stage.
    let total = stages * chunks;
    while completed.len() < total {
        // Find the set of ready tasks.
        let mut best: Option<(usize, usize, f64)> = None;
        for s in 0..stages {
            for c in 0..chunks {
                if finish[s][c].is_some() {
                    continue;
                }
                // Predecessors: (s-1, c) and (s, c-1).
                let dep_stage = if s == 0 { Some(0.0) } else { finish[s - 1][c] };
                let dep_chunk = if c == 0 { Some(0.0) } else { finish[s][c - 1] };
                let (Some(a), Some(b)) = (dep_stage, dep_chunk) else {
                    continue;
                };
                // FIFO-by-stage on the resource: an earlier stage with
                // unfinished chunks on this resource blocks later stages.
                let blocked = (0..s)
                    .any(|q| resources[q] == resources[s] && finish[q].iter().any(Option::is_none));
                if blocked {
                    continue;
                }
                let ready_at = a.max(b).max(free_at(&completed, resources[s]));
                match best {
                    // Tie-break: earlier stage first, then earlier chunk.
                    Some((bs, bc, bt)) if (bt, bs, bc) <= (ready_at, s, c) => {}
                    _ => best = Some((s, c, ready_at)),
                }
            }
        }
        let (s, c, start) = best.expect("deadlock: no ready task");
        let end = start + tau[s];
        finish[s][c] = Some(end);
        completed.push(Completed {
            task: Task {
                stage: s,
                chunk: c,
                resource: resources[s],
            },
            start,
            finish: end,
        });
    }
    let makespan = completed.iter().map(|c| c.finish).fold(0.0, f64::max);
    SimOutcome {
        completed,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Resource::{CComp, Comm, SComp};

    const FIVE: [Resource; 5] = [CComp, Comm, SComp, Comm, CComp];

    #[test]
    fn single_chunk_is_serial() {
        let out = simulate(&[1.0, 2.0, 3.0], &[CComp, Comm, SComp], 1);
        assert!((out.makespan - 6.0).abs() < 1e-12);
        assert_eq!(out.completed.len(), 3);
    }

    #[test]
    fn distinct_resources_pipeline() {
        let out = simulate(&[1.0, 1.0, 1.0], &[CComp, Comm, SComp], 2);
        assert!((out.makespan - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shared_resource_serializes() {
        let out = simulate(&[1.0, 1.0], &[CComp, CComp], 3);
        // Stage 1 cannot start until stage 0 finished all chunks (FIFO).
        assert!((out.makespan - 6.0).abs() < 1e-12);
    }

    #[test]
    fn tasks_never_overlap_on_a_resource() {
        let out = simulate(&[2.0, 5.0, 1.0, 4.0, 2.0], &FIVE, 6);
        for r in [CComp, Comm, SComp] {
            let mut spans: Vec<(f64, f64)> = out
                .completed
                .iter()
                .filter(|c| c.task.resource == r)
                .map(|c| (c.start, c.finish))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-12, "overlap on {r:?}: {w:?}");
            }
        }
    }

    #[test]
    fn dependencies_respected() {
        let out = simulate(&[1.0, 2.0, 1.5], &[CComp, Comm, SComp], 4);
        let find = |s: usize, c: usize| {
            out.completed
                .iter()
                .find(|t| t.task.stage == s && t.task.chunk == c)
                .unwrap()
        };
        for s in 1..3 {
            for c in 0..4 {
                assert!(find(s, c).start >= find(s - 1, c).finish - 1e-12);
            }
        }
        for s in 0..3 {
            for c in 1..4 {
                assert!(find(s, c).start >= find(s, c - 1).finish - 1e-12);
            }
        }
    }
}
