//! Transport abstraction: framed, bidirectional, deadline-aware message
//! channels, plus the server-side acceptor — and the deterministic
//! in-memory loopback implementation used by tests and the in-process
//! networked round.
//!
//! Every accepted channel is an [`EventedChannel`]: the coordinator
//! drives it through reactor readiness, while clients and the
//! replication link use the blocking [`Channel`] API. The loopback
//! transport has no file descriptor; its readiness travels through the
//! reactor's [`WakeQueue`](crate::reactor::WakeQueue) — a sender
//! publishes the receiving end's token and pokes the wake pipe.

use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dordis_telemetry::Telemetry;

use crate::codec::Envelope;
use crate::pool::ChannelAccount;
use crate::reactor::{EventedChannel, Reactor, Token, WakeQueue};
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
    /// [`EventedChannel::try_flush`] drains any backlog under write
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

    /// Hands a received frame's allocation back to the channel once the
    /// caller is done with it, so the next reassembled frame can reuse
    /// it instead of allocating. Purely an optimization — the default
    /// drops the buffer, which is always correct.
    fn recycle_frame(&mut self, frame: Vec<u8>) {
        drop(frame);
    }

    /// Sends an already-encoded wire message — 4-byte little-endian
    /// length prefix followed by the frame (see [`wire_message`]). The
    /// broadcast path encodes a frame *once* and calls this on every
    /// channel; transports with a refcount-aware egress queue (TCP
    /// registered with a reactor) share the allocation across all peers
    /// instead of copying it N times. The default re-sends the embedded
    /// frame through [`send`](Channel::send), which is always correct.
    ///
    /// # Errors
    ///
    /// Same contract as [`send`](Channel::send).
    fn send_wire_shared(&mut self, msg: &Arc<[u8]>) -> Result<(), NetError> {
        self.send(&msg[4..])
    }

    /// Human-readable peer address for diagnostics.
    fn peer(&self) -> String;
}

/// Encodes a frame into its on-the-wire form (4-byte little-endian
/// length prefix + payload) as a refcounted allocation, ready for
/// [`Channel::send_wire_shared`] fan-out.
#[must_use]
pub fn wire_message(frame: &[u8]) -> Arc<[u8]> {
    let mut msg = Vec::with_capacity(4 + frame.len());
    msg.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    msg.extend_from_slice(frame);
    msg.into()
}

/// Server-side half of a transport: yields one [`EventedChannel`] per
/// connecting client (usable through the blocking [`Channel`] API until
/// registered with a reactor).
pub trait Acceptor {
    /// Accepts the next peer, waiting until `deadline` at most.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the deadline passes, [`NetError::Io`] /
    /// [`NetError::Closed`] on transport failure.
    fn accept(&mut self, deadline: Instant) -> Result<Box<dyn EventedChannel>, NetError>;

    /// Wires the acceptor's counters (accepts, rejections) into a
    /// metrics registry. Default: no instrumentation.
    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let _ = telemetry;
    }

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
// Loopback.
// ---------------------------------------------------------------------

/// Where one loopback end publishes its reactor registration, so the
/// *peer* end (usually on another thread) can wake the reactor whenever
/// it makes this end readable (a send) or unreadable-forever (a drop).
type RegSlot = Arc<Mutex<Option<(Arc<WakeQueue>, Token)>>>;

/// One end of an in-memory channel pair.
pub struct LoopbackChannel {
    /// `None` once this end has begun tearing down (see `Drop`).
    tx: Option<mpsc::Sender<Vec<u8>>>,
    rx: mpsc::Receiver<Vec<u8>>,
    label: String,
    /// This end's reactor registration (peer reads it to wake us).
    my_reg: RegSlot,
    /// The peer end's registration (we wake it on send/drop).
    peer_reg: RegSlot,
    /// Shared-pool account, opened at reactor registration — loopback
    /// charges delivered-frame custody to the same ledger as TCP, so
    /// the gauges and the accounting identity hold on both transports.
    account: Option<ChannelAccount>,
    /// Bytes of delivered frames not yet recycled.
    outstanding: usize,
}

impl LoopbackChannel {
    /// Creates a connected pair of loopback channels.
    #[must_use]
    pub fn pair(label: &str) -> (LoopbackChannel, LoopbackChannel) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        let a_reg: RegSlot = Arc::new(Mutex::new(None));
        let b_reg: RegSlot = Arc::new(Mutex::new(None));
        (
            LoopbackChannel {
                tx: Some(a_tx),
                rx: a_rx,
                label: format!("loopback:{label}:a"),
                my_reg: Arc::clone(&a_reg),
                peer_reg: Arc::clone(&b_reg),
                account: None,
                outstanding: 0,
            },
            LoopbackChannel {
                tx: Some(b_tx),
                rx: b_rx,
                label: format!("loopback:{label}:b"),
                my_reg: b_reg,
                peer_reg: a_reg,
                account: None,
                outstanding: 0,
            },
        )
    }

    /// Wakes the peer end's reactor, if that end is registered.
    fn wake_peer(&self) {
        if let Ok(guard) = self.peer_reg.lock() {
            if let Some((waker, token)) = guard.as_ref() {
                waker.wake(*token);
            }
        }
    }

    /// Charges a delivered frame to the ingress ledger.
    fn charge_delivery(&mut self, len: usize) {
        if let Some(acct) = &self.account {
            acct.charge_ingress(len);
            self.outstanding += len;
        }
    }
}

impl Channel for LoopbackChannel {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        let tx = self.tx.as_ref().ok_or(NetError::Closed)?;
        tx.send(frame.to_vec()).map_err(|_| NetError::Closed)?;
        self.wake_peer();
        Ok(())
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Vec<u8>, NetError> {
        let now = Instant::now();
        let wait = deadline.saturating_duration_since(now);
        match self.rx.recv_timeout(wait) {
            Ok(frame) => {
                self.charge_delivery(frame.len());
                Ok(frame)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn recycle_frame(&mut self, frame: Vec<u8>) {
        let credit = frame.len().min(self.outstanding);
        self.outstanding -= credit;
        if let Some(acct) = &self.account {
            acct.credit_ingress(credit);
            acct.put(frame);
        }
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

impl EventedChannel for LoopbackChannel {
    fn register(&mut self, reactor: &mut Reactor, token: Token) -> Result<(), NetError> {
        let pool = reactor.pool();
        let fresh = match &self.account {
            Some(acct) => !acct.pool().same_as(&pool),
            None => true,
        };
        if fresh {
            // Same rebind semantics as TCP: charge current custody to
            // the new pool; the replaced account's drop credits the old.
            let acct = pool.account();
            acct.charge_ingress(self.outstanding);
            self.account = Some(acct);
        }
        let waker = reactor.waker();
        if let Ok(mut guard) = self.my_reg.lock() {
            *guard = Some((Arc::clone(&waker), token));
        }
        // Frames sent before registration produced no wake; schedule an
        // initial sweep so they are discovered on the next poll.
        waker.wake(token);
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        match self.rx.try_recv() {
            Ok(frame) => {
                self.charge_delivery(frame.len());
                Ok(Some(frame))
            }
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn try_flush(&mut self) -> Result<bool, NetError> {
        Ok(true) // mpsc sends never backlog
    }

    fn wants_write(&self) -> bool {
        false
    }
}

impl Drop for LoopbackChannel {
    fn drop(&mut self) {
        // Disconnect *before* waking, so a reactor woken by this drop
        // observes `Disconnected` rather than a spurious empty queue.
        drop(self.tx.take());
        self.wake_peer();
    }
}

/// Connection point for loopback clients: cloneable dialer plus a
/// server-side acceptor.
pub struct LoopbackHub {
    tx: mpsc::Sender<LoopbackChannel>,
}

impl Clone for LoopbackHub {
    fn clone(&self) -> Self {
        LoopbackHub {
            tx: self.tx.clone(),
        }
    }
}

impl LoopbackHub {
    /// Creates the hub and its acceptor.
    #[must_use]
    pub fn new() -> (LoopbackHub, LoopbackAcceptor) {
        let (tx, rx) = mpsc::channel();
        (LoopbackHub { tx }, LoopbackAcceptor { rx })
    }

    /// Connects a new client channel; the peer end is handed to the
    /// acceptor.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the acceptor is gone.
    pub fn connect(&self, label: &str) -> Result<LoopbackChannel, NetError> {
        let (client_end, server_end) = LoopbackChannel::pair(label);
        self.tx.send(server_end).map_err(|_| NetError::Closed)?;
        Ok(client_end)
    }
}

/// Server side of a [`LoopbackHub`].
pub struct LoopbackAcceptor {
    rx: mpsc::Receiver<LoopbackChannel>,
}

impl Acceptor for LoopbackAcceptor {
    fn accept(&mut self, deadline: Instant) -> Result<Box<dyn EventedChannel>, NetError> {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(wait) {
            Ok(chan) => Ok(Box::new(chan)),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    fn local_addr(&self) -> String {
        "loopback".into()
    }
}

// ---------------------------------------------------------------------
// Injected-latency wrapper.
// ---------------------------------------------------------------------

/// A [`Channel`] wrapper that injects per-stage uplink latency: every
/// `send` first *occupies* the link for `per_frame + len / bytes_per_sec`
/// (the sender sleeps, modelling serialization onto a bandwidth-limited
/// uplink) and only then enqueues the frame. Used by the pipeline
/// benches/tests to realize Figure 12's comm/compute overlap on a
/// loopback transport: while a client is "transmitting" chunk `c+1`,
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
    fn loopback_roundtrip_and_timeout() {
        let (mut a, mut b) = LoopbackChannel::pair("t");
        a.send(b"hello").unwrap();
        let got = b
            .recv_deadline(deadline_in(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(got, b"hello");
        // Nothing pending: times out quickly.
        let err = b.recv_deadline(deadline_in(Duration::from_millis(10)));
        assert!(matches!(err, Err(NetError::Timeout)));
        // Dropping one end closes the other.
        drop(a);
        let err = b.recv_deadline(deadline_in(Duration::from_millis(10)));
        assert!(matches!(err, Err(NetError::Closed)));
    }

    #[test]
    fn hub_hands_channels_to_acceptor() {
        let (hub, mut acceptor) = LoopbackHub::new();
        let mut client = hub.connect("c0").unwrap();
        let mut server_side = acceptor
            .accept(deadline_in(Duration::from_secs(1)))
            .unwrap();
        client.send(b"ping").unwrap();
        assert_eq!(
            server_side
                .recv_deadline(deadline_in(Duration::from_secs(1)))
                .unwrap(),
            b"ping"
        );
        server_side.send(b"pong").unwrap();
        assert_eq!(
            client
                .recv_deadline(deadline_in(Duration::from_secs(1)))
                .unwrap(),
            b"pong"
        );
    }

    #[test]
    fn registered_loopback_reports_readiness_and_closure() {
        let mut reactor = Reactor::new(Duration::from_millis(5)).unwrap();
        let (mut client, mut server) = LoopbackChannel::pair("evented");
        server.register(&mut reactor, Token(3)).unwrap();

        // A frame sent from another thread wakes the reactor.
        let sender = std::thread::spawn(move || {
            client.send(b"over the wake pipe").unwrap();
            client // keep the end alive until the assert below
        });
        let (mut events, mut expired) = (Vec::new(), Vec::new());
        let frame = loop {
            reactor
                .poll(&mut events, &mut expired, Duration::from_secs(2))
                .unwrap();
            let mut got = None;
            for ev in &events {
                assert_eq!(ev.token, Token(3));
                if let Some(f) = server.try_recv().unwrap() {
                    got = Some(f);
                }
            }
            if let Some(f) = got {
                break f;
            }
        };
        assert_eq!(frame, b"over the wake pipe");
        assert!(matches!(server.try_recv(), Ok(None)));

        // Dropping the peer wakes the reactor and surfaces Closed.
        let client = sender.join().unwrap();
        drop(client);
        loop {
            reactor
                .poll(&mut events, &mut expired, Duration::from_secs(2))
                .unwrap();
            if !events.is_empty() {
                break;
            }
        }
        assert!(matches!(server.try_recv(), Err(NetError::Closed)));
    }

    #[test]
    fn lossy_channel_drops_and_reorders_only_data_frames() {
        use crate::codec::{Envelope, StageTag};
        const N: u16 = 200;

        let (a, mut b) = LoopbackChannel::pair("lossy");
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
