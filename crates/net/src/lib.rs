//! Networked execution of Dordis SecAgg / SecAgg+ rounds.
//!
//! The `dordis-secagg` crate provides pure per-party state machines and
//! an in-process driver with *scripted* dropout. This crate is the
//! substrate that runs those same state machines between real processes:
//!
//! - [`codec`]: a length-prefixed binary wire codec for every protocol
//!   message in [`dordis_secagg::messages`], wrapped in a versioned
//!   [`codec::Envelope`] carrying the round id, a stage tag, and a chunk
//!   id — the data plane ships masked inputs as one frame per
//!   `ChunkPlan` chunk, whose payloads are byte-identical slices of the
//!   single-frame packing. The codec is the ground truth for
//!   [`WireSize::wire_bytes`] — the test suite asserts byte-for-byte
//!   agreement.
//! - [`transport`]: the client-side [`transport::Channel`] view and the
//!   [`transport::Acceptor`], plus the uplink-shaping
//!   [`transport::ThrottledChannel`].
//! - [`tcp`]: the one transport (one connection per client; blocking
//!   I/O with deadlines until registered with the reactor, non-blocking
//!   with partial-read frame reassembly and partial-write backpressure
//!   buffers after). In-process sessions, tests and benches dial
//!   127.0.0.1, so every suite exercises the sockets that ship.
//! - [`pool`]: the reactor's memory plane — one shared, size-classed,
//!   byte-accounted frame pool per reactor, with per-connection
//!   accounting handles.
//! - [`reactor`]: a readiness-driven event loop (direct-syscall epoll
//!   poller, per-token deadlines) so one coordinator
//!   thread serves hundreds of chunk-streaming clients with `O(events)`
//!   wake-ups.
//! - [`coordinator`]: the server task. It drives
//!   [`dordis_secagg::server::Server`] over any transport with one
//!   (stage, chunk) collector, a control stage being one chunk: chunk
//!   `c` is aggregated while
//!   chunk `c+1` is still on the wire, per-stage deadlines apply per
//!   chunk, and a peer that goes silent or disconnects (or stops its
//!   chunk stream partway) becomes a *detected* dropout, replacing the
//!   driver's scripted `DropoutSchedule`. Collection is
//!   reactor-driven, and each chunk is unmasked inline on the
//!   coordinator thread between polls.
//! - [`runtime`]: the symmetric client task driving
//!   [`dordis_secagg::client::Client`], streaming its masked input one
//!   chunk frame at a time, with optional fail injection (disconnect or
//!   go silent at a chosen stage, or mid-chunk-stream) for tests and
//!   demos, and redial with failover after a lost coordinator.
//! - [`local`]: the local cohort — a coordinator plus one client thread
//!   per id on 127.0.0.1, the one harness every in-process session,
//!   test and bench runs.
//!
//! [`WireSize::wire_bytes`]: dordis_secagg::messages::WireSize::wire_bytes

// `deny` rather than `forbid`: the reactor's syscall shim is the one
// place allowed to opt in (no `libc` crate exists in this container, so
// epoll is reached through hand-written `syscall` wrappers).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod coordinator;
pub mod faults;
pub mod local;
pub mod pool;
pub mod reactor;
pub mod replication;
pub mod runtime;
pub mod session;
pub mod tcp;
pub mod transport;

use dordis_secagg::SecAggError;

/// Errors surfaced by networked round execution.
#[derive(Debug)]
pub enum NetError {
    /// Underlying I/O failure.
    Io(String),
    /// A deadline passed with no frame.
    Timeout,
    /// The peer closed the connection.
    Closed,
    /// A frame failed to decode.
    Codec(String),
    /// The peer speaks a different wire-protocol version. Typed (rather
    /// than a generic codec failure) because chunked frames changed the
    /// wire contract: a v1 peer must be told to upgrade, not debugged.
    Version {
        /// Version byte the peer sent.
        got: u8,
        /// Version this build speaks ([`codec::WIRE_VERSION`]).
        expected: u8,
    },
    /// A frame arrived for a round other than the one the state machine
    /// is executing. Typed (rather than a generic protocol violation)
    /// because in a multi-round session stale frames are *expected* —
    /// a slow claim from round `r` can surface while round `r + 1` is
    /// joining — and must be discarded, never parsed into the current
    /// round's state.
    StaleRound {
        /// Round id the frame carried.
        got: u64,
        /// Round the machine is executing.
        expected: u64,
    },
    /// A peer violated the protocol (wrong stage, bad id, ...).
    Protocol(String),
    /// The protocol itself aborted (below threshold, tampering...).
    SecAgg(SecAggError),
    /// The remote side reported an abort.
    Aborted(String),
    /// The peer actively refused the connection (nothing is listening
    /// yet, or the listener just died). Typed so reconnect loops can
    /// tell "back off and redial" apart from hard I/O failures: during
    /// a coordinator failover thousands of clients hit this at once and
    /// must retry with jittered backoff, not hammer the backup.
    Unavailable,
    /// A fault-injection hook fired ([`faults::FaultPlan`]). Only ever
    /// produced by test/bench harnesses; carries the kill-point label so
    /// the failover driver can assert *which* crash it simulated.
    Injected(String),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Timeout => write!(f, "deadline exceeded"),
            NetError::Closed => write!(f, "peer closed the connection"),
            NetError::Codec(e) => write!(f, "codec: {e}"),
            NetError::Version { got, expected } => {
                write!(
                    f,
                    "wire version mismatch: peer speaks v{got}, this build v{expected}"
                )
            }
            NetError::StaleRound { got, expected } => {
                write!(
                    f,
                    "stale frame: round {got}, machine is on round {expected}"
                )
            }
            NetError::Protocol(e) => write!(f, "protocol violation: {e}"),
            NetError::SecAgg(e) => write!(f, "secagg: {e}"),
            NetError::Aborted(why) => write!(f, "round aborted: {why}"),
            NetError::Unavailable => write!(f, "peer unavailable (connection refused)"),
            NetError::Injected(point) => write!(f, "injected fault: {point}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl From<SecAggError> for NetError {
    fn from(e: SecAggError) -> Self {
        NetError::SecAgg(e)
    }
}
