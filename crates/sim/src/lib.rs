//! Cluster simulator for Dordis.
//!
//! The paper evaluates on an EC2 testbed: one r5.4xlarge server, one
//! throttled c5.xlarge per client, Zipf(a = 1.2) response latencies and
//! Zipf bandwidth in [21, 210] Mbps (§6.1). This crate reproduces that
//! environment as an analytic simulator:
//!
//! - [`hetero`]: per-client compute-speed and bandwidth profiles drawn
//!   from the paper's Zipf distributions,
//! - [`dropout`]: per-round dropout models (fixed rate, Bernoulli, and a
//!   synthetic user-behaviour trace standing in for the 136k-device trace
//!   of Yang et al.),
//! - [`cost`]: a per-stage cost model for distributed-DP rounds (crypto
//!   op unit costs × protocol op counts, bytes ÷ bandwidth), which feeds
//!   the plain and pipelined round-time estimates of Figures 2 and 10,
//! - [`event`]: a discrete-event executor for pipelined stage workloads,
//!   independently cross-checking the Appendix-C makespan recurrence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod dropout;
pub mod event;
pub mod hetero;
