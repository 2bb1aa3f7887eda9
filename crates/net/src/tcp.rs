//! TCP transport — the only one: one connection per client, `u32`
//! length-prefixed frames, 127.0.0.1 for in-process sessions and tests.
//! Blocking I/O with deadlines until the channel is registered with the
//! [`reactor`](crate::reactor); non-blocking afterwards. Either way
//! there is one reader and one writer:
//!
//! - Every read goes through [`FrameBuffer::read_from`], straight into
//!   the stream buffer and never past [`FrameBuffer::needed`], and the
//!   whole frame is that buffer, handed out as it is: no bounce buffer
//!   and no copy, so a hundred in-process client threads hold one
//!   allocation per frame in flight, and a registered channel holds at
//!   most the frame it is assembling whatever backlog the peer sent. The
//!   buffer grows with the bytes that arrive, not with the length the
//!   peer announces.
//! - Every send is queued in the channel's [`WriteBuffer`] (one copy of
//!   a frame, none of a shared broadcast message) and drained from
//!   there: all of it under the write deadline while blocking, what the
//!   socket takes now — the rest under write readiness — once
//!   registered.
//!
//! Registered channels participate in the reactor's memory plane
//! ([`crate::pool`]): every buffered ingress byte (stream buffer +
//! decoded frames in flight) and egress byte (write backlog) is charged
//! to the connection's [`ChannelAccount`].

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_telemetry::{Counter, Telemetry};

use crate::codec::MAX_FRAME_BYTES;
use crate::pool::ChannelAccount;
use crate::reactor::{Interest, PollerHandle, Reactor, Token};
use crate::transport::{wire_message, Acceptor, Channel};
use crate::NetError;

/// Default bound on how long a blocking [`TcpChannel::send`] may sit in
/// `write(2)` against a peer whose socket buffer is full. Without it,
/// one stalled client could wedge the whole single-threaded coordinator
/// mid-round; with it, the stall surfaces as [`NetError::Timeout`] and
/// the peer becomes a detected dropout.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest sleep between polls of an empty listener in
/// [`TcpAcceptor::accept`]; a nearer deadline shortens it.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Incremental decoder for the `u32`-length-prefixed frame stream, the
/// one reader of both the blocking and the reactor path:
/// [`read_from`](FrameBuffer::read_from) reads the next frame's bytes
/// straight into the stream buffer, never past the frame it is
/// assembling, and [`take_frame`](FrameBuffer::take_frame) hands that
/// buffer out as the frame once it is whole. A deadline (or
/// `WouldBlock`) can interrupt a frame at any byte without losing the
/// partial data — the next read resumes exactly where the stream
/// stopped.
///
/// Allocations: the length prefix is read into bytes of its own and the
/// buffer holds at most one frame's body, so every frame is handed out
/// as its own allocation — no bounce buffer, no copy and no shift.
///
/// Accounting: with an attached [`ChannelAccount`], `read_from` charges
/// the arriving bytes, `take_frame` moves a frame's bytes from stream
/// custody to decoded-frame custody (crediting only the 4-byte prefix),
/// and [`credit_frame`](FrameBuffer::credit_frame) credits the frame
/// back — so the account's charge is always exactly
/// `len() + outstanding decoded bytes`, and dropping the buffer settles
/// the ledger.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// The length prefix of the frame being assembled.
    prefix: [u8; 4],
    /// Its body, up to `end - 4`; everything after is zeroed room
    /// [`read_from`](FrameBuffer::read_from) reads into.
    buf: Vec<u8>,
    /// Stream bytes of the frame received so far, prefix included.
    end: usize,
    /// Bytes of decoded frames handed out and not yet credited back.
    outstanding: usize,
    /// Shared-pool account (attached at reactor registration).
    account: Option<ChannelAccount>,
}

/// Room [`FrameBuffer::read_from`] may zero ahead of the bytes received
/// while it assembles a frame: past this, room only doubles what
/// arrived.
const READ_ROOM: usize = 64 * 1024;

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// One read from `r` straight into the stream buffer, of at most the
    /// bytes still missing toward [`needed`](FrameBuffer::needed), so
    /// the buffer never runs past the frame being assembled. Returns the
    /// bytes read; `Ok(0)` is end of stream (or nothing missing: a whole
    /// frame waits for [`take_frame`](FrameBuffer::take_frame)).
    ///
    /// The room a read lands in grows with what arrived, never with
    /// what the prefix announced: the buffer holds at most
    /// `max(2 × len(), 64 KiB)` and never more than the frame, and each
    /// byte of room is zeroed once. A four-byte prefix announcing
    /// [`MAX_FRAME_BYTES`] costs 64 KiB, and a peer that trickles the
    /// body costs a read per byte, not a memset of the frame.
    ///
    /// # Errors
    ///
    /// Propagates `r`'s error (`WouldBlock` included); nothing is
    /// buffered from a failed read.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let want = self.needed() - self.end;
        if want == 0 {
            return Ok(0);
        }
        if want > 4 + MAX_FRAME_BYTES {
            // Never size the buffer from a length `take_frame` refuses.
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "oversized frame",
            ));
        }
        let got = if self.end < 4 {
            r.read(&mut self.prefix[self.end..])
        } else {
            let (at, body_end) = (self.end - 4, self.end - 4 + want);
            if self.buf.len() == at {
                // Out of room: double what arrived (at least
                // `READ_ROOM`), never past the frame.
                let room = body_end.min((2 * at).max(READ_ROOM));
                self.buf.reserve_exact(room - at);
                self.buf.resize(room, 0);
            }
            let room = body_end.min(self.buf.len());
            r.read(&mut self.buf[at..room])
        };
        let n = *got.as_ref().unwrap_or(&0);
        self.end += n;
        if let Some(acct) = &self.account {
            acct.charge_ingress(n);
        }
        got
    }

    /// Stream position target for the next read: enough for the length
    /// prefix, then enough for the full frame.
    #[must_use]
    pub fn needed(&self) -> usize {
        match self.announced() {
            Some(len) => 4 + len,
            None => 4,
        }
    }

    /// The length the buffered prefix announces, once it is all there.
    fn announced(&self) -> Option<usize> {
        (self.end >= 4).then(|| u32::from_le_bytes(self.prefix) as usize)
    }

    /// Buffered byte count (for diagnostics/tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.end
    }

    /// True when no bytes are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == 0
    }

    /// Routes this buffer's accounting through a reactor's shared
    /// ledger: current custody (buffered stream bytes + outstanding
    /// decoded frames) is charged to the new account, and the replaced
    /// account's drop credits the pool it came from — so a channel
    /// handed between reactors never double-counts.
    pub fn attach_account(&mut self, account: ChannelAccount) {
        account.charge_ingress(self.end + self.outstanding);
        self.account = Some(account);
    }

    /// Credits a decoded frame's bytes back to the connection's ingress
    /// charge once the caller is done with it; the frame is dropped.
    pub fn credit_frame(&mut self, frame: Vec<u8>) {
        let credit = frame.len().min(self.outstanding);
        self.outstanding -= credit;
        if let Some(acct) = &self.account {
            acct.credit_ingress(credit);
        }
    }

    /// Pops the frame once it is whole — the body buffer itself, as it
    /// is — or `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] when the announced length exceeds
    /// [`MAX_FRAME_BYTES`] — the stream is poisoned at that point and
    /// the connection should be dropped.
    pub fn take_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let Some(len) = self.announced() else {
            return Ok(None);
        };
        if len > MAX_FRAME_BYTES {
            return Err(NetError::Codec(format!("oversized frame: {len}")));
        }
        if self.end < 4 + len {
            return Ok(None);
        }
        self.outstanding += len;
        // The frame's bytes move from stream custody to decoded-frame
        // custody; only the length prefix leaves the ledger.
        if let Some(acct) = &self.account {
            acct.credit_ingress(4);
        }
        self.end = 0;
        Ok(Some(std::mem::take(&mut self.buf)))
    }
}

/// One queued egress segment: a refcounted, already length-prefixed wire
/// message and the drain position within it. Broadcast frames are
/// encoded once and the same `Arc` is queued on every channel.
#[derive(Debug)]
struct Segment {
    data: Arc<Vec<u8>>,
    pos: usize,
}

/// The one write path of a [`TcpChannel`], blocking or registered: a
/// queue of refcounted wire messages ([`wire_message`]: a frame's one
/// copy, prefix + payload in one allocation) drained with vectored
/// writes. A broadcast message is queued on every channel by reference
/// count — zero per-peer copies. Partial writes never tear a frame: the
/// front segment's position is the stream cursor.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    segs: VecDeque<Segment>,
    /// Total unsent bytes across all segments.
    len: usize,
    /// Shared-pool account (attached at reactor registration).
    account: Option<ChannelAccount>,
}

/// Most segments gathered into one vectored write.
const MAX_WRITEV_SEGMENTS: usize = 16;

impl WriteBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Queues an already-encoded wire message (length prefix included)
    /// by reference count — the broadcast path queues one `Arc` on N
    /// channels instead of copying the frame N times.
    pub fn queue_shared(&mut self, msg: &Arc<Vec<u8>>) {
        self.len += msg.len();
        if let Some(acct) = &self.account {
            acct.charge_egress(msg.len());
        }
        self.segs.push_back(Segment {
            data: Arc::clone(msg),
            pos: 0,
        });
    }

    /// True when everything has drained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Routes this buffer's egress accounting through a reactor's
    /// shared pool (see [`FrameBuffer::attach_account`]).
    pub fn attach_account(&mut self, account: ChannelAccount) {
        account.charge_egress(self.len);
        self.account = Some(account);
    }

    /// Advances the queue past `n` written bytes and credits them back.
    fn consume(&mut self, mut n: usize) {
        self.len -= n;
        if let Some(acct) = &self.account {
            acct.credit_egress(n);
        }
        while n > 0 {
            let front = self.segs.front_mut().expect("consumed past queue");
            let remaining = front.data.len() - front.pos;
            if n >= remaining {
                n -= remaining;
                self.segs.pop_front();
            } else {
                front.pos += n;
                n = 0;
            }
        }
    }

    /// Writes as much as `w` accepts, gathering up to
    /// `MAX_WRITEV_SEGMENTS` segments per vectored write. `Ok(true)`
    /// means drained; `Ok(false)` means `w` signalled `WouldBlock` (or
    /// accepted only part) and the remainder waits for the next
    /// readiness event.
    ///
    /// # Errors
    ///
    /// Propagates non-`WouldBlock` I/O failures (`Interrupted` is
    /// retried, a zero-byte write is reported as `WriteZero`).
    pub fn write_to(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while !self.segs.is_empty() {
            let slices: Vec<IoSlice<'_>> = self
                .segs
                .iter()
                .take(MAX_WRITEV_SEGMENTS)
                .map(|seg| IoSlice::new(&seg.data[seg.pos..]))
                .collect();
            let written = match w.write_vectored(&slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            drop(slices);
            self.consume(written);
        }
        Ok(true)
    }
}

/// Registration state of an evented [`TcpChannel`].
#[derive(Clone, Copy, Debug)]
struct Registration {
    handle: PollerHandle,
    token: Token,
    /// Interest currently installed in the poller. Read interest is
    /// `true` for the life of a registration; write interest is flipped
    /// on outbox empty↔backlogged transitions.
    interest: Interest,
}

/// A framed TCP channel.
///
/// Frames are `u32` little-endian length + payload. Reads are buffered
/// internally so a deadline can expire mid-frame without losing the
/// partial data: the next `recv_deadline` (or `try_recv`) resumes where
/// it stopped.
pub struct TcpChannel {
    stream: TcpStream,
    peer: String,
    inbox: FrameBuffer,
    outbox: WriteBuffer,
    registration: Option<Registration>,
    /// Peer hung up: serve remaining buffered frames, then `Closed`.
    eof: bool,
    write_timeout: Duration,
}

impl TcpChannel {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// [`NetError::Unavailable`] when the peer actively refuses (nothing
    /// listening — the typed signal reconnect loops back off on);
    /// propagates other connection failures as [`NetError::Io`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpChannel, NetError> {
        let stream = TcpStream::connect(addr).map_err(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                NetError::Unavailable
            } else {
                NetError::from(e)
            }
        })?;
        Self::from_stream(stream)
    }

    /// Wraps an accepted stream.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    fn from_stream(stream: TcpStream) -> Result<TcpChannel, NetError> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map_or_else(|_| "unknown".into(), |a| a.to_string());
        Ok(TcpChannel {
            stream,
            peer,
            inbox: FrameBuffer::new(),
            outbox: WriteBuffer::new(),
            registration: None,
            eof: false,
            write_timeout: DEFAULT_WRITE_TIMEOUT,
        })
    }

    /// Overrides the blocking-path write timeout (see
    /// [`DEFAULT_WRITE_TIMEOUT`]).
    #[cfg(test)]
    fn set_write_timeout(&mut self, timeout: Duration) {
        self.write_timeout = timeout;
    }

    /// A connected pair over 127.0.0.1: `(dialer, accepted)`, both
    /// blocking — the in-process stand-in for a link between two
    /// processes (the failover harness's replication link, unit tests).
    ///
    /// # Errors
    ///
    /// Propagates bind, connect and accept failures.
    pub fn pair() -> Result<(TcpChannel, TcpChannel), NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let dialer = TcpChannel::connect(listener.local_addr()?)?;
        let (stream, _) = listener.accept()?;
        Ok((dialer, TcpChannel::from_stream(stream)?))
    }

    /// Reads toward a target `inbox` length, returning `false` on a
    /// clean timeout. Blocking path only.
    fn fill_until(&mut self, target: usize, deadline: Instant) -> Result<bool, NetError> {
        while self.inbox.len() < target {
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            // Bound each read by the remaining budget so a stalled peer
            // cannot block past the deadline.
            let budget = deadline - now;
            self.stream
                .set_read_timeout(Some(budget.max(Duration::from_millis(1))))?;
            match self.inbox.read_from(&mut self.stream) {
                Ok(0) => return Err(NetError::Closed),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(false);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(&e) => return Err(NetError::Closed),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(true)
    }

    /// Installs the interest the outbox backlog implies, if it changed.
    fn sync_interest(&mut self) -> Result<(), NetError> {
        let interest = Interest {
            readable: true,
            writable: !self.outbox.is_empty(),
        };
        if let Some(reg) = &mut self.registration {
            if reg.interest != interest {
                reg.handle
                    .reregister(self.stream.as_raw_fd(), reg.token, interest)?;
                reg.interest = interest;
            }
        }
        Ok(())
    }

    /// Flushes the outbox. A registered channel writes what the socket
    /// takes now and keeps write interest in sync with whether a
    /// backlog remains. A blocking one drains it all, but never
    /// unbounded: a peer that stops reading fills its socket buffer and
    /// would otherwise park the caller in write(2) forever. The deadline
    /// is *overall* (each write(2) is bounded by the remaining budget,
    /// like `fill_until`), so a peer draining one byte per poll cannot
    /// extend it; expiry surfaces as [`NetError::Timeout`] → a detected
    /// dropout, with the rest of the frame still queued.
    fn flush_outbox(&mut self) -> Result<bool, NetError> {
        let written = match self.registration {
            Some(_) => self.outbox.write_to(&mut self.stream),
            None => {
                let deadline = Instant::now() + self.write_timeout;
                let mut sock = Deadlined {
                    sock: &self.stream,
                    deadline,
                };
                match self.outbox.write_to(&mut sock) {
                    // A blocking write only stops short when the send
                    // timeout — the deadline — expired.
                    Ok(false) => Err(ErrorKind::TimedOut.into()),
                    drained => drained,
                }
            }
        };
        let drained = match written {
            Ok(drained) => drained,
            Err(e) if e.kind() == ErrorKind::TimedOut => return Err(NetError::Timeout),
            Err(e) if is_disconnect(&e) || e.kind() == ErrorKind::WriteZero => {
                return Err(NetError::Closed)
            }
            Err(e) => return Err(e.into()),
        };
        self.sync_interest()?;
        Ok(drained)
    }
}

/// A blocking socket whose every write(2) is bounded by what is left of
/// one overall deadline: the socket's send timeout then surfaces as
/// `WouldBlock`, and a write past the deadline as `TimedOut`.
struct Deadlined<'a> {
    sock: &'a TcpStream,
    deadline: Instant,
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let budget = self
            .deadline
            .checked_duration_since(Instant::now())
            .filter(|b| !b.is_zero())
            .ok_or(ErrorKind::TimedOut)?;
        self.sock
            .set_write_timeout(Some(budget.max(Duration::from_millis(1))))?;
        self.sock.write_vectored(bufs)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Error kinds that mean "the peer is gone", not "I/O is broken".
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof
            | ErrorKind::NotConnected
    )
}

impl Channel for TcpChannel {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.send_wire_shared(&wire_message(frame))
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Vec<u8>, NetError> {
        loop {
            if let Some(frame) = self.inbox.take_frame()? {
                return Ok(frame);
            }
            if self.eof {
                return Err(NetError::Closed);
            }
            if !self.fill_until(self.inbox.needed(), deadline)? {
                return Err(NetError::Timeout);
            }
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// The readiness-driven side, used by the coordinator. Before
/// [`register`](TcpChannel::register) the blocking [`Channel`] API
/// applies (clients and the replication link use nothing else); after
/// it the channel is non-blocking: `send` flushes what the socket takes
/// now, [`try_recv`](TcpChannel::try_recv) reads toward the next frame
/// from whatever bytes are available, and
/// [`try_flush`](TcpChannel::try_flush) drains the backlog under write
/// readiness.
impl TcpChannel {
    /// Sends an already-encoded wire message — 4-byte little-endian
    /// length prefix followed by the frame (see [`wire_message`]). The
    /// broadcast path encodes a frame *once* and calls this on every
    /// channel, which queues the shared allocation by refcount instead
    /// of copying it N times.
    ///
    /// # Errors
    ///
    /// Same contract as [`Channel::send`].
    pub fn send_wire_shared(&mut self, msg: &Arc<Vec<u8>>) -> Result<(), NetError> {
        self.outbox.queue_shared(msg);
        self.flush_outbox().map(drop)
    }

    /// Credits a received frame's bytes back to the ledger once the
    /// caller is done with it (see [`FrameBuffer::credit_frame`]).
    pub fn credit_frame(&mut self, frame: Vec<u8>) {
        self.inbox.credit_frame(frame);
    }

    /// Registers (or re-keys) this channel with the reactor under
    /// `token` and switches it to non-blocking operation. Calling again
    /// with a new token re-registers — the join loop uses this to swap a
    /// provisional token for the authenticated client id.
    ///
    /// # Errors
    ///
    /// Propagates registration failures.
    pub fn register(&mut self, reactor: &mut Reactor, token: Token) -> Result<(), NetError> {
        let pool = reactor.pool();
        let fresh = match &self.inbox.account {
            Some(acct) => !acct.pool().same_as(&pool),
            None => true,
        };
        if fresh {
            // First registration, or handed to a different reactor:
            // open an account on the new pool and charge the bytes this
            // channel is currently holding. The replaced account clones
            // drop with the old buffers' handles, crediting the pool
            // they came from — no double counting, no leak.
            let acct = pool.account();
            self.inbox.attach_account(acct.clone());
            self.outbox.attach_account(acct);
        }
        self.stream.set_nonblocking(true)?;
        let fd = self.stream.as_raw_fd();
        let interest = Interest {
            readable: true,
            writable: !self.outbox.is_empty(),
        };
        match &mut self.registration {
            Some(reg) => {
                let handle = reg.handle;
                handle.reregister(fd, token, interest)?;
                reg.token = token;
                reg.interest = interest;
            }
            None => {
                let handle = reactor.handle();
                handle.register(fd, token, interest)?;
                self.registration = Some(Registration {
                    handle,
                    token,
                    interest,
                });
            }
        }
        Ok(())
    }

    /// Non-blocking receive: the next fully reassembled frame, or `None`
    /// when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] once the peer is gone *and* every buffered
    /// frame has been returned; codec errors for oversized frames.
    pub fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        // Reads stop at the frame being assembled: what the peer sent
        // behind it stays in the kernel (level-triggered epoll keeps
        // reporting it) until the caller asks for the next frame.
        loop {
            if let Some(frame) = self.inbox.take_frame()? {
                return Ok(Some(frame));
            }
            if self.eof {
                return Err(NetError::Closed);
            }
            match self.inbox.read_from(&mut self.stream) {
                Ok(0) => self.eof = true,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(&e) => self.eof = true,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Drains backlogged writes as far as readiness allows. `Ok(true)`
    /// means the outbox is empty.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the peer is gone.
    pub fn try_flush(&mut self) -> Result<bool, NetError> {
        self.flush_outbox()
    }

    /// Whether backlogged bytes are waiting on write readiness.
    #[must_use]
    pub fn wants_write(&self) -> bool {
        !self.outbox.is_empty()
    }
}

/// Listening socket yielding [`TcpChannel`]s.
pub struct TcpAcceptor {
    listener: TcpListener,
    local: String,
    /// Connections accepted (no-op counter until telemetry attaches).
    accepts: Counter,
    /// Accept attempts that failed with a transient error.
    rejections: Counter,
}

impl TcpAcceptor {
    /// Binds to `addr` (use port 0 for an OS-assigned port, reported by
    /// [`Acceptor::local_addr`]). The listener is non-blocking from the
    /// start — `accept` polls it instead of re-arming the socket option
    /// on every iteration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<TcpAcceptor, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener
            .local_addr()
            .map_or_else(|_| "unknown".into(), |a| a.to_string());
        Ok(TcpAcceptor {
            listener,
            local,
            accepts: Counter::default(),
            rejections: Counter::default(),
        })
    }
}

impl Acceptor for TcpAcceptor {
    fn accept(&mut self, deadline: Instant) -> Result<TcpChannel, NetError> {
        // Poll with a short accept window so the deadline is honored
        // without platform-specific listener timeouts.
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    self.accepts.inc();
                    return TcpChannel::from_stream(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::Timeout);
                    }
                    // Never sleep past the deadline: the session's join
                    // loop passes 1 ms slices.
                    std::thread::sleep(ACCEPT_POLL.min(deadline - now));
                }
                Err(e) => {
                    self.rejections.inc();
                    return Err(e.into());
                }
            }
        }
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.accepts = telemetry.counter("dordis_accepts_total", &[]);
        self.rejections = telemetry.counter("dordis_accept_rejections_total", &[]);
    }

    fn local_addr(&self) -> String {
        self.local.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::deadline_in;

    #[test]
    fn frame_buffer_hands_out_a_lone_frame_without_copying() {
        // With an attached pool account, every frame is handed out as
        // the stream buffer its bytes were read into, and the ledger
        // settles once the frames are credited back.
        let pool = crate::pool::BytePool::new();
        let account = pool.account();
        let mut buf = FrameBuffer::new();
        buf.attach_account(account.clone());
        let stream = framed(&[b"abc".to_vec(), b"defgh".to_vec()]);
        let mut reader = &stream[..];
        let first = next_frame(&mut buf, &mut reader);
        assert_eq!(first, b"abc");
        let second = next_frame(&mut buf, &mut reader);
        assert_eq!(second, b"defgh");
        assert!(buf.is_empty() && buf.take_frame().unwrap().is_none());
        assert_eq!(account.charged_ingress(), 8, "both frames in custody");
        buf.credit_frame(first);
        buf.credit_frame(second);
        assert_eq!(account.charged_ingress(), 0);
        assert_eq!(pool.live_ingress(), 0, "credit settles the ledger");
    }

    /// Length-prefixes `frames` into one stream.
    fn framed(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut stream = Vec::new();
        for f in frames {
            stream.extend_from_slice(&(f.len() as u32).to_le_bytes());
            stream.extend_from_slice(f);
        }
        stream
    }

    /// Reads from `r` until a frame is whole and takes it, checking
    /// that the frame is the stream buffer the reads landed in and that
    /// no read ran past it.
    fn next_frame(buf: &mut FrameBuffer, r: &mut impl Read) -> Vec<u8> {
        loop {
            let at = buf.buf.as_ptr();
            if let Some(frame) = buf.take_frame().unwrap() {
                assert_eq!(frame.as_ptr(), at, "the frame was copied");
                return frame;
            }
            assert!(buf.read_from(r).unwrap() > 0, "stream ended mid-frame");
            assert!(buf.buf.capacity() <= buf.needed(), "read past the frame");
        }
    }

    /// A reader serving `stream` in pieces of at most `piece(pos)`
    /// bytes, `pos` being how far it has served.
    struct Pieces<'a, F> {
        stream: &'a [u8],
        pos: usize,
        piece: F,
    }

    impl<F: FnMut(usize) -> usize> Read for Pieces<'_, F> {
        fn read(&mut self, dst: &mut [u8]) -> std::io::Result<usize> {
            let n = (self.piece)(self.pos)
                .min(dst.len())
                .min(self.stream.len() - self.pos);
            dst[..n].copy_from_slice(&self.stream[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_buffer_releases_a_drained_burst_and_nothing_else() {
        // Two 1.25 MiB chunk frames behind a small control frame, all
        // sent before the consumer looks, arriving in socket-read-sized
        // pieces: the buffer only ever holds the frame it is assembling.
        let frames: Vec<Vec<u8>> = [100usize, 1_310_724, 1_310_724]
            .iter()
            .enumerate()
            .map(|(k, &len)| (0..len).map(|i| (i * 31 + k) as u8).collect())
            .collect();
        let pool = crate::pool::BytePool::new();
        let account = pool.account();
        let mut buf = FrameBuffer::new();
        buf.attach_account(account.clone());
        let stream = framed(&frames);
        let mut reader = Pieces {
            stream: &stream,
            pos: 0,
            piece: |_| 64 * 1024,
        };
        let mut outstanding = 0u64;
        for want in &frames {
            let got = next_frame(&mut buf, &mut reader);
            assert_eq!(&got, want);
            outstanding += want.len() as u64;
            // Stream custody became decoded-frame custody; only the
            // prefix left the ledger, and nothing behind the frame was
            // read.
            assert_eq!(
                account.charged_ingress(),
                buf.len() as u64 + outstanding,
                "ledger is by length, not capacity"
            );
            assert!(buf.is_empty(), "read past the frame");
            buf.credit_frame(got);
            outstanding -= want.len() as u64;
        }
        assert!(buf.is_empty() && buf.take_frame().unwrap().is_none());
        assert_eq!(account.charged_ingress(), 0);
        assert_eq!(
            buf.buf.capacity(),
            0,
            "burst capacity kept: the last frame should have taken it"
        );

        // The released buffer keeps working, and control-sized traffic
        // (tcp_cohort256's frames are ≈ 3 KiB) leaves with its frame:
        // the buffer holds nothing between frames.
        let small: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 3000]).collect();
        let stream = framed(&small);
        let mut reader = &stream[..];
        for f in &small {
            let got = next_frame(&mut buf, &mut reader);
            assert_eq!(&got, f);
            buf.credit_frame(got);
            assert_eq!(buf.buf.capacity(), 0);
        }
        assert_eq!(account.charged_ingress(), 0);
    }

    /// A reader that hands out one byte of `stream` per call and
    /// records how large a buffer each call was offered.
    struct OneByte<'a> {
        stream: &'a [u8],
        offered: usize,
    }

    impl Read for OneByte<'_> {
        fn read(&mut self, dst: &mut [u8]) -> std::io::Result<usize> {
            self.offered = dst.len();
            let Some((&b, rest)) = self.stream.split_first() else {
                return Ok(0);
            };
            dst[0] = b;
            self.stream = rest;
            Ok(1)
        }
    }

    #[test]
    fn blocking_reader_grows_with_the_bytes_that_arrive() {
        // A prefix announcing the largest legal frame, then a body that
        // trickles in a byte per read: no read is offered, and the
        // buffer never holds, more than max(2 × received, 64 KiB).
        let mut stream = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
        stream.extend((0..300 * 1024).map(|i| i as u8));
        let mut reader = OneByte {
            stream: &stream,
            offered: 0,
        };
        let mut buf = FrameBuffer::new();
        while buf.read_from(&mut reader).unwrap() == 1 {
            let bound = (2 * buf.len()).max(READ_ROOM);
            assert!(reader.offered <= bound, "offered {}", reader.offered);
            assert!(buf.buf.capacity() <= bound, "holds {}", buf.buf.capacity());
        }
        assert_eq!(buf.len(), stream.len());
        assert!(buf.take_frame().unwrap().is_none(), "frame incomplete");

        // A frame that fits in the first room is read into exactly its
        // own size, and handed out as it is.
        let mut stream = 5u32.to_le_bytes().to_vec();
        stream.extend_from_slice(b"hello");
        let mut reader = OneByte {
            stream: &stream,
            offered: 0,
        };
        let mut buf = FrameBuffer::new();
        while buf.read_from(&mut reader).unwrap() == 1 {
            assert!(buf.buf.capacity() <= stream.len());
        }
        let frame = buf.take_frame().unwrap().expect("whole frame");
        assert_eq!(frame, b"hello");
        assert!(frame.capacity() <= stream.len());
    }

    #[test]
    fn frame_buffer_reassembles_across_interleaved_reads_and_takes() {
        // Frames are taken as soon as they are whole while later bytes
        // keep arriving in odd pieces; the reassembly must stay
        // byte-exact across frame boundaries.
        let frames: Vec<Vec<u8>> = (0..50u8)
            .map(|i| vec![i; 1 + usize::from(i) * 7 % 40])
            .collect();
        let stream = framed(&frames);
        let mut reader = Pieces {
            stream: &stream,
            pos: 0,
            piece: |pos| pos * 13 % 9 + 1,
        };
        let mut buf = FrameBuffer::new();
        let mut got = Vec::new();
        while buf.read_from(&mut reader).unwrap() > 0 {
            while let Some(frame) = buf.take_frame().unwrap() {
                got.push(frame.clone());
                buf.credit_frame(frame);
            }
        }
        assert_eq!(got, frames);
        assert!(buf.is_empty());
    }

    #[test]
    fn frame_buffer_accounts_custody_through_shared_pool() {
        use crate::pool::BytePool;

        let pool = BytePool::new();
        let mut buf = FrameBuffer::new();
        buf.attach_account(pool.account());
        let payload = vec![7u8; 100];
        let mut stream = (payload.len() as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&payload);
        let mut reader = &stream[..];
        while buf.read_from(&mut reader).unwrap() > 0 {}
        assert_eq!(pool.live_ingress(), 104, "stream bytes charged");
        let frame = buf.take_frame().unwrap().expect("frame");
        assert_eq!(
            pool.live_ingress(),
            100,
            "prefix credited, frame still in custody"
        );
        buf.credit_frame(frame);
        assert_eq!(pool.live_ingress(), 0, "credit settles the frame");
    }

    #[test]
    fn registered_channel_holds_one_frame_of_a_backlog() {
        // The peer sends sixteen 8 KiB frames before the registered end
        // reads any. Each `try_recv` reads only toward the frame it
        // returns, so the ledger holds one frame plus its prefix however
        // deep the backlog, and the frames come out whole and in order.
        let (mut near, mut far) = TcpChannel::pair().unwrap();
        let mut reactor = Reactor::new().unwrap();
        far.register(&mut reactor, Token(1)).unwrap();
        let frames: Vec<Vec<u8>> = (0..16u8)
            .map(|k| (0..8192usize).map(|i| (i * 7) as u8 ^ k).collect())
            .collect();
        for f in &frames {
            near.send(f).unwrap();
        }
        let (mut events, mut expired) = (Vec::new(), Vec::new());
        let mut got = Vec::new();
        while got.len() < frames.len() {
            reactor
                .poll(&mut events, &mut expired, Duration::from_secs(2))
                .unwrap();
            assert!(!events.is_empty(), "backlog never became readable");
            while let Some(frame) = far.try_recv().unwrap() {
                let held = reactor.pool().live_ingress();
                assert!(
                    held <= 4 + 8192,
                    "frame {} left {held} bytes in custody",
                    got.len()
                );
                got.push(frame.clone());
                far.credit_frame(frame);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn write_buffer_shares_broadcast_segments() {
        // One pre-encoded wire message queued on two buffers: both
        // drain the identical stream, and the bytes live in one shared
        // allocation (Arc refcount 3: ours + 2 queues).
        let frame = b"broadcast-payload".to_vec();
        let mut msg = (frame.len() as u32).to_le_bytes().to_vec();
        msg.extend_from_slice(&frame);
        let wire = Arc::new(msg.clone());
        let mut a = WriteBuffer::new();
        let mut b = WriteBuffer::new();
        a.queue_shared(&wire);
        b.queue_shared(&wire);
        assert_eq!(Arc::strong_count(&wire), 3, "queued by refcount");
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        assert!(a.write_to(&mut out_a).unwrap());
        assert!(b.write_to(&mut out_b).unwrap());
        assert_eq!(out_a, msg);
        assert_eq!(out_b, msg);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn tcp_frames_roundtrip() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let handle = std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(addr).unwrap();
            chan.send(b"from-client").unwrap();
            chan.recv_deadline(deadline_in(Duration::from_secs(2)))
                .unwrap()
        });
        let mut server = acceptor
            .accept(deadline_in(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(
            server
                .recv_deadline(deadline_in(Duration::from_secs(2)))
                .unwrap(),
            b"from-client"
        );
        server.send(b"from-server").unwrap();
        assert_eq!(handle.join().unwrap(), b"from-server");
    }

    #[test]
    fn idle_accept_honours_a_near_deadline() {
        // The session's join loop accepts in 1 ms slices: an empty
        // listener must give the slice back at its deadline, not after a
        // whole poll sleep. The median tolerates a descheduled call.
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let start = Instant::now();
                let res = acceptor.accept(start + Duration::from_millis(1));
                assert!(matches!(res, Err(NetError::Timeout)));
                start.elapsed()
            })
            .collect();
        took.sort_unstable();
        assert!(took[10] < Duration::from_millis(3), "median {:?}", took[10]);
    }

    #[test]
    fn tcp_timeout_then_recovery() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let handle = std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(80));
            chan.send(b"late").unwrap();
            // Keep the connection alive until the server has read.
            std::thread::sleep(Duration::from_millis(200));
        });
        let mut server = acceptor
            .accept(deadline_in(Duration::from_secs(2)))
            .unwrap();
        let early = server.recv_deadline(deadline_in(Duration::from_millis(10)));
        assert!(matches!(early, Err(NetError::Timeout)));
        let late = server
            .recv_deadline(deadline_in(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(late, b"late");
        handle.join().unwrap();
    }

    #[test]
    fn disconnect_is_detected() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let handle = std::thread::spawn(move || {
            let _chan = TcpChannel::connect(addr).unwrap();
            // Dropped immediately: simulates a killed client.
        });
        let mut server = acceptor
            .accept(deadline_in(Duration::from_secs(2)))
            .unwrap();
        handle.join().unwrap();
        let err = server.recv_deadline(deadline_in(Duration::from_secs(2)));
        assert!(matches!(err, Err(NetError::Closed)), "{err:?}");
    }

    #[test]
    fn stalled_reader_surfaces_send_timeout() {
        // The peer never reads: both socket buffers fill and a blocking
        // send must surface NetError::Timeout (a detected dropout)
        // instead of wedging the coordinator forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let chan = TcpChannel::connect(addr).unwrap();
            // Hold the connection open without reading.
            std::thread::sleep(Duration::from_secs(3));
            drop(chan);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpChannel::from_stream(stream).unwrap();
        server.set_write_timeout(Duration::from_millis(200));
        let big = vec![0u8; 32 << 20];
        let start = Instant::now();
        let err = server.send(&big);
        assert!(matches!(err, Err(NetError::Timeout)), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "send blocked for {:?}",
            start.elapsed()
        );
        handle.join().unwrap();
    }

    #[test]
    fn slow_draining_reader_hits_overall_send_deadline() {
        // The peer drains a trickle — every read makes *some* progress,
        // so a per-write timeout would reset forever. The deadline is
        // overall: send must give up within ~write_timeout regardless.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(addr).unwrap();
            let mut byte = [0u8; 1];
            for _ in 0..20 {
                std::thread::sleep(Duration::from_millis(100));
                if chan.stream.read(&mut byte).is_err() {
                    break;
                }
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpChannel::from_stream(stream).unwrap();
        server.set_write_timeout(Duration::from_millis(400));
        let big = vec![0u8; 32 << 20];
        let start = Instant::now();
        let err = server.send(&big);
        assert!(matches!(err, Err(NetError::Timeout)), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "overall deadline did not hold: {:?}",
            start.elapsed()
        );
        drop(server);
        handle.join().unwrap();
    }

    #[test]
    fn evented_channel_reassembles_and_flushes() {
        use crate::reactor::{Reactor, Token};

        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr();
        let client = std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(addr).unwrap();
            // Dribble one frame byte by byte to force reassembly.
            let frame = b"dribbled".to_vec();
            let mut msg = (frame.len() as u32).to_le_bytes().to_vec();
            msg.extend_from_slice(&frame);
            for b in msg {
                use std::io::Write as _;
                chan.stream.write_all(&[b]).unwrap();
                chan.stream.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            chan.recv_deadline(deadline_in(Duration::from_secs(5)))
                .unwrap()
        });

        let mut reactor = Reactor::new().unwrap();
        let mut server = acceptor
            .accept(deadline_in(Duration::from_secs(2)))
            .unwrap();
        server.register(&mut reactor, Token(1)).unwrap();

        let (mut events, mut expired) = (Vec::new(), Vec::new());
        let frame = loop {
            reactor
                .poll(&mut events, &mut expired, Duration::from_secs(1))
                .unwrap();
            let mut got = None;
            for ev in &events {
                assert_eq!(ev.token, Token(1));
                if ev.readable {
                    if let Some(f) = server.try_recv().unwrap() {
                        got = Some(f);
                    }
                }
            }
            if let Some(f) = got {
                break f;
            }
        };
        assert_eq!(frame, b"dribbled");

        // Evented send queues + flushes; small frames drain immediately.
        server.send(b"echo").unwrap();
        while server.wants_write() {
            reactor
                .poll(&mut events, &mut expired, Duration::from_millis(50))
                .unwrap();
            server.try_flush().unwrap();
        }
        assert_eq!(client.join().unwrap(), b"echo");
    }
}
