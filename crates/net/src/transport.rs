//! Transport abstraction: framed, bidirectional, deadline-aware message
//! channels, plus the server-side acceptor.
//!
//! There is one transport, TCP ([`crate::tcp`]); in-process sessions and
//! tests dial 127.0.0.1. The [`Channel`] trait is the client-side view —
//! blocking `send` / `recv_deadline` — so wrappers such as
//! [`ThrottledChannel`] can shape a client's uplink. The coordinator
//! holds accepted [`TcpChannel`]s directly and drives them through
//! reactor readiness.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_telemetry::Telemetry;

use crate::codec::Envelope;
use crate::tcp::TcpChannel;
use crate::NetError;

/// A bidirectional, framed, deadline-aware message channel to one peer.
///
/// Implementations deliver whole frames (no partial reads surface here)
/// and preserve per-peer FIFO order. `recv_deadline` returning
/// [`NetError::Timeout`] leaves the channel usable; [`NetError::Closed`]
/// is terminal.
pub trait Channel: Send {
    /// Sends one frame. On a channel registered with a reactor this
    /// enqueues and flushes opportunistically — `Ok` means queued, and
    /// [`TcpChannel::try_flush`] drains any backlog under write
    /// readiness.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the peer is gone, [`NetError::Timeout`]
    /// if a blocking send stalled past the transport's write timeout
    /// (the frame may be torn — drop the peer), [`NetError::Io`] on
    /// transport failure.
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError>;

    /// Receives the next frame, waiting until `deadline` at most.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline passes (channel still
    /// usable), [`NetError::Closed`] when the peer disconnected.
    fn recv_deadline(&mut self, deadline: Instant) -> Result<Vec<u8>, NetError>;

    /// Human-readable peer address for diagnostics.
    fn peer(&self) -> String;
}

/// Encodes a frame into its on-the-wire form (4-byte little-endian
/// length prefix + payload) as a refcounted allocation, ready for
/// [`TcpChannel::send_wire_shared`] fan-out.
#[must_use]
pub fn wire_message(frame: &[u8]) -> Arc<[u8]> {
    let mut msg = Vec::with_capacity(4 + frame.len());
    msg.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    msg.extend_from_slice(frame);
    msg.into()
}

/// Server-side half of the transport: yields one [`TcpChannel`] per
/// connecting client (blocking until registered with a reactor).
pub trait Acceptor {
    /// Accepts the next peer, waiting until `deadline` at most.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline passes, [`NetError::Io`] /
    /// [`NetError::Closed`] on transport failure.
    fn accept(&mut self, deadline: Instant) -> Result<TcpChannel, NetError>;

    /// Wires the acceptor's counters (accepts, rejections) into a
    /// metrics registry.
    fn set_telemetry(&mut self, telemetry: &Telemetry);

    /// The address clients should connect to.
    fn local_addr(&self) -> String;
}

/// Sends an [`Envelope`] over a channel.
///
/// # Errors
///
/// Propagates the channel's send failure.
pub fn send_env(chan: &mut dyn Channel, env: &Envelope) -> Result<(), NetError> {
    chan.send(&env.encode())
}

/// Receives and decodes an [`Envelope`].
///
/// # Errors
///
/// Propagates receive and decode failures.
pub fn recv_env(chan: &mut dyn Channel, deadline: Instant) -> Result<Envelope, NetError> {
    Envelope::decode(&chan.recv_deadline(deadline)?)
}

// ---------------------------------------------------------------------
// Injected-latency wrapper.
// ---------------------------------------------------------------------

/// A [`Channel`] wrapper that injects per-stage uplink latency: every
/// `send` first *occupies* the link for `per_frame + len / bytes_per_sec`
/// (the sender sleeps, modelling serialization onto a bandwidth-limited
/// uplink) and only then enqueues the frame. Used by the pipeline
/// benches/tests to realize Figure 12's comm/compute overlap on a
/// 127.0.0.1 transport: while a client is "transmitting" chunk `c+1`,
/// the coordinator is aggregating chunk `c`. Client-side only (it wraps
/// the blocking API and is never registered with a reactor).
///
/// With a [`LossProfile`] attached ([`ThrottledChannel::with_loss`]) the
/// channel also models a lossy uplink: masked-input *data* frames are
/// probabilistically dropped or swapped with the next data frame. Loss
/// is scoped to the data plane deliberately — control frames ride a
/// reliable transport in every real deployment (TCP retransmits them),
/// while a lost data chunk is exactly how the paper's dropout model
/// manifests on the wire: the coordinator's per-(stage, chunk) deadline
/// expires and the client becomes a *detected* dropout.
pub struct ThrottledChannel {
    inner: Box<dyn Channel>,
    bytes_per_sec: u64,
    per_frame: Duration,
    loss: Option<LossState>,
}

/// Probabilistic loss model for [`ThrottledChannel::with_loss`].
#[derive(Clone, Copy, Debug)]
pub struct LossProfile {
    /// Probability a masked-input frame vanishes in flight.
    pub drop_prob: f64,
    /// Probability a masked-input frame is held and delivered *after*
    /// the next masked-input frame (adjacent reorder).
    pub reorder_prob: f64,
    /// Seed for the deterministic loss sequence (splitmix64).
    pub seed: u64,
}

struct LossState {
    profile: LossProfile,
    rng: u64,
    held: Option<Vec<u8>>,
}

impl LossState {
    /// Next uniform draw in `[0, 1)` (splitmix64, 53 mantissa bits).
    fn roll(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl ThrottledChannel {
    /// Wraps `inner` with a simulated uplink of `bytes_per_sec`
    /// bandwidth and `per_frame` fixed latency per frame.
    #[must_use]
    pub fn new(inner: Box<dyn Channel>, bytes_per_sec: u64, per_frame: Duration) -> Self {
        ThrottledChannel {
            inner,
            bytes_per_sec: bytes_per_sec.max(1),
            per_frame,
            loss: None,
        }
    }

    /// Attaches a deterministic loss/reorder model to the uplink's
    /// masked-input data frames.
    #[must_use]
    pub fn with_loss(mut self, profile: LossProfile) -> Self {
        self.loss = Some(LossState {
            rng: profile.seed,
            profile,
            held: None,
        });
        self
    }

    /// Whether `frame` is a masked-input data frame (loss is scoped to
    /// the data plane; see the type docs).
    fn is_data_frame(frame: &[u8]) -> bool {
        frame.len() > 1 && frame[1] == crate::codec::StageTag::MaskedInput as u8
    }
}

impl Channel for ThrottledChannel {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let transmit = Duration::from_secs_f64(frame.len() as f64 / self.bytes_per_sec as f64);
        let occupancy = self.per_frame + transmit;
        if !occupancy.is_zero() {
            std::thread::sleep(occupancy);
        }
        if let Some(loss) = &mut self.loss {
            if Self::is_data_frame(frame) {
                if loss.roll() < loss.profile.drop_prob {
                    return Ok(()); // eaten by the network, sender none the wiser
                }
                if let Some(held) = loss.held.take() {
                    // Deliver the newer frame first, then the held one:
                    // an adjacent swap on the wire.
                    self.inner.send(frame)?;
                    return self.inner.send(&held);
                }
                if loss.roll() < loss.profile.reorder_prob {
                    loss.held = Some(frame.to_vec());
                    return Ok(());
                }
            } else if let Some(held) = loss.held.take() {
                // A control frame ends the data burst: flush the held
                // chunk first so reordering stays within the stage.
                self.inner.send(&held)?;
            }
        }
        self.inner.send(frame)
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Vec<u8>, NetError> {
        self.inner.recv_deadline(deadline)
    }

    fn peer(&self) -> String {
        format!("throttled:{}", self.inner.peer())
    }
}

/// Convenience: a deadline `timeout` from now.
#[must_use]
pub fn deadline_in(timeout: Duration) -> Instant {
    Instant::now() + timeout
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_channel_drops_and_reorders_only_data_frames() {
        use crate::codec::{Envelope, StageTag};
        const N: u16 = 200;

        let (a, mut b) = TcpChannel::pair().unwrap();
        let mut lossy =
            ThrottledChannel::new(Box::new(a), u64::MAX, Duration::ZERO).with_loss(LossProfile {
                drop_prob: 0.2,
                reorder_prob: 0.2,
                seed: 7,
            });
        for c in 0..N {
            let env = Envelope::chunked(StageTag::MaskedInput, 1, c, vec![c as u8]);
            lossy.send(&env.encode()).unwrap();
        }
        let ctl = Envelope::new(StageTag::Unmasking, 1, Vec::new());
        lossy.send(&ctl.encode()).unwrap();

        let mut chunks: Vec<u16> = Vec::new();
        let mut got_ctl = false;
        while let Ok(frame) = b.recv_deadline(deadline_in(Duration::from_millis(100))) {
            let env = Envelope::decode(&frame).unwrap();
            if env.stage == StageTag::MaskedInput {
                assert!(!got_ctl, "data frame reordered past a control frame");
                chunks.push(env.chunk);
            } else {
                assert_eq!(env.stage, StageTag::Unmasking);
                got_ctl = true;
            }
        }
        assert!(got_ctl, "control frame must never be dropped");
        // Some data frames vanished, but nowhere near all of them.
        assert!(chunks.len() < usize::from(N), "nothing was dropped");
        assert!(chunks.len() > usize::from(N) / 2, "too much was dropped");
        // No duplication...
        let mut sorted = chunks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), chunks.len(), "a frame was duplicated");
        // ...and at least one adjacent swap actually happened.
        assert!(
            chunks.windows(2).any(|w| w[0] > w[1]),
            "nothing was reordered"
        );
    }
}
