//! The paper's cost model and pipeline planner (paper §4.2, Appendix C
//! and the §6.1 testbed).
//!
//! Dordis abstracts a distributed-DP round into a sequence of stages with
//! alternating dominant resources (Table 1), splits the model into `m`
//! equal chunks, and pipelines the resulting `m` independent
//! chunk-aggregation tasks. What a round is cut into,
//! `dordis_secagg::ChunkPlan`, lives with the protocol; this crate
//! models what the cut costs and picks `m`:
//!
//! - `hetero`: per-client compute-speed and bandwidth profiles drawn
//!   from the paper's Zipf distributions,
//! - [`cost`]: a per-stage cost model for distributed-DP rounds (crypto
//!   op unit costs × protocol op counts, bytes ÷ bandwidth),
//! - [`schedule`]: the exact makespan recurrence of Appendix C (stage
//!   chaining, chunk ordering, and FIFO resource exclusivity),
//! - [`perfmodel`]: the paper's empirical per-stage latency model
//!   `τ_s(m) = β₁ d/m + β₂ m + β₃` with a least-squares profiler,
//! - [`planner`]: optimal chunk-count search (enumeration over
//!   `m ∈ [1, 20]`, as §4.2 prescribes) and [`planned_chunk_count`],
//!   the default chunk count of a networked round,
//! - [`timing`]: plain vs pipelined round-time estimates on the
//!   simulated cluster (Figures 2 and 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
// The discrete-event executor `schedule::cross_check_tests` checks the
// Appendix-C recurrence against.
#[cfg(test)]
mod event;
mod hetero;
pub mod perfmodel;
pub mod planner;
pub mod schedule;
pub mod timing;

pub use planner::planned_chunk_count;

// Only `benchmark/` reads `ChunkPlan` under this path; the re-export
// goes once the benchmark imports it from `dordis_secagg`.
pub use dordis_secagg::ChunkPlan;

/// System resource a stage occupies (paper §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// Client compute.
    CComp,
    /// Server-client communication.
    Comm,
    /// Server compute.
    SComp,
}
