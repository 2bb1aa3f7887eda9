//! The Dordis reference benchmark; see `README.md` next to this crate.

pub mod e2e;
pub mod fl;
pub mod flstep;
pub mod proc;
pub mod report;
pub mod stats;
pub mod stepper;
pub mod tcp;
pub mod trace;
pub mod traced;
pub mod units;
pub mod workloads;

/// Harness-level result: failures are reported as text and counted.
pub type Res<T> = Result<T, String>;
