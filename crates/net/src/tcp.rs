//! TCP transport — the only one: one connection per client, `u32`
//! length-prefixed frames, 127.0.0.1 for in-process sessions and tests.
//! Blocking I/O with deadlines until the channel is registered with the
//! [`reactor`](crate::reactor); non-blocking afterwards, with
//! partial-read frame reassembly ([`FrameBuffer`]) and partial-write
//! backpressure buffering ([`WriteBuffer`]).
//!
//! The blocking path (clients, the replication link) reads each frame
//! straight into the stream buffer, exactly [`FrameBuffer::needed`] bytes
//! at a time, and hands that buffer out as the frame: no bounce buffer
//! and no copy, so a hundred in-process client threads hold one
//! allocation per frame in flight.
//!
//! Registered channels participate in the reactor's memory plane
//! ([`crate::pool`]): every buffered ingress byte (stream buffer +
//! decoded frames in flight) and egress byte (write backlog) is charged
//! to the connection's [`ChannelAccount`], frame allocations come from
//! the reactor-shared [`BytePool`](crate::pool::BytePool) reservoir.

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
use crate::transport::{Acceptor, Channel};
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

/// Incremental decoder for the `u32`-length-prefixed frame stream: bytes
/// go in in arbitrary splits ([`push`](FrameBuffer::push)), whole frames
/// come out ([`take_frame`](FrameBuffer::take_frame)). A deadline (or
/// `WouldBlock`) can interrupt a frame at any byte without losing the
/// partial data — the next bytes resume exactly where the stream
/// stopped. This is the single reassembly path for both the blocking
/// and the non-blocking (reactor) receive modes, so the proptests that
/// feed it arbitrary split sequences cover both.
///
/// Allocation reuse: consumed bytes advance a read cursor instead of
/// `drain`-shifting the stream buffer per frame, and frames handed back
/// via [`recycle`](FrameBuffer::recycle) return to the reactor-shared
/// [`BytePool`](crate::pool::BytePool) once an account is attached — a
/// coordinator that recycles after decoding stops allocating a fresh
/// `Vec` per chunk frame per client. Without an account (the blocking
/// path) a buffer holding exactly one frame hands out its own
/// allocation as that frame.
///
/// Accounting: with an attached [`ChannelAccount`], `push` charges the
/// arriving bytes, `take_frame` moves a frame's bytes from stream
/// custody to decoded-frame custody (crediting only the 4-byte prefix),
/// and `recycle` credits the frame back — so the account's charge is
/// always exactly `len() + outstanding decoded bytes`, and dropping the
/// buffer settles the ledger.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Raw stream bytes (length prefixes included); everything before
    /// `pos` is already consumed.
    buf: Vec<u8>,
    /// Read cursor into `buf`.
    pos: usize,
    /// Bytes of decoded frames handed out and not yet recycled.
    outstanding: usize,
    /// Shared-pool account (attached at reactor registration).
    account: Option<ChannelAccount>,
}

/// Consumed-prefix length at which `push` compacts the stream buffer
/// (below it, the memmove costs more than the memory is worth).
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// Stream-buffer capacity a drained [`FrameBuffer`] keeps. Control
/// frames (a few KiB even at 256 clients) never grow past it, so they
/// never re-allocate; a masked-input burst grows the buffer to
/// megabytes, and that is released when the burst has been consumed.
const RELEASE_CAPACITY: usize = 64 * 1024;

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Drops the consumed prefix once it is all there is, or once it
    /// is worth the memmove.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= COMPACT_THRESHOLD) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
        if let Some(acct) = &self.account {
            acct.charge_ingress(bytes.len());
        }
    }

    /// One read from `r` straight into the stream buffer, of at most the
    /// bytes still missing toward [`needed`](FrameBuffer::needed) — the
    /// blocking path's reader, so the buffer never runs past the frame
    /// being assembled. Returns the bytes read; `Ok(0)` is end of
    /// stream (or nothing missing).
    ///
    /// # Errors
    ///
    /// Propagates `r`'s error (`WouldBlock` included); nothing is
    /// buffered from a failed read.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let want = self.needed().saturating_sub(self.len());
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
        self.compact();
        let start = self.buf.len();
        self.buf.reserve_exact(want);
        self.buf.resize(start + want, 0);
        let got = r.read(&mut self.buf[start..]);
        let n = *got.as_ref().unwrap_or(&0);
        self.buf.truncate(start + n);
        if let Some(acct) = &self.account {
            acct.charge_ingress(n);
        }
        got
    }

    /// Stream position target for the next read: enough for the length
    /// prefix, then enough for the full frame.
    #[must_use]
    pub fn needed(&self) -> usize {
        if self.len() < 4 {
            4
        } else {
            let p = self.pos;
            let len = u32::from_le_bytes(self.buf[p..p + 4].try_into().expect("4 bytes")) as usize;
            4 + len
        }
    }

    /// Unconsumed byte count (for diagnostics/tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when no unconsumed bytes are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Routes this buffer's accounting and allocation reuse through a
    /// reactor's shared pool: current custody (unconsumed stream bytes +
    /// outstanding decoded frames) is charged to the new account, and
    /// the replaced account's drop credits the pool it came from — so a
    /// channel handed between reactors never double-counts.
    pub fn attach_account(&mut self, account: ChannelAccount) {
        account.charge_ingress(self.len() + self.outstanding);
        self.account = Some(account);
    }

    /// Returns a decoded frame's allocation to the pool and credits its
    /// bytes back to the connection's ingress charge.
    pub fn recycle(&mut self, frame: Vec<u8>) {
        let credit = frame.len().min(self.outstanding);
        self.outstanding -= credit;
        if let Some(acct) = &self.account {
            acct.credit_ingress(credit);
            acct.put(frame);
        }
    }

    /// Pops the next complete frame, or `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] when the announced length exceeds
    /// [`MAX_FRAME_BYTES`] — the stream is poisoned at that point and
    /// the connection should be dropped.
    pub fn take_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.len() < 4 {
            return Ok(None);
        }
        let p = self.pos;
        let len = u32::from_le_bytes(self.buf[p..p + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(NetError::Codec(format!("oversized frame: {len}")));
        }
        if self.len() < 4 + len {
            return Ok(None);
        }
        self.outstanding += len;
        let Some(acct) = &self.account else {
            if p + 4 + len == self.buf.len() {
                // The buffer is this frame and nothing else: hand out
                // the allocation itself, minus the prefix.
                let mut frame = std::mem::take(&mut self.buf);
                frame.drain(..p + 4);
                self.pos = 0;
                return Ok(Some(frame));
            }
            let frame = self.buf[p + 4..p + 4 + len].to_vec();
            self.pos += 4 + len;
            return Ok(Some(frame));
        };
        let mut frame = acct.get(len);
        frame.extend_from_slice(&self.buf[p + 4..p + 4 + len]);
        // The frame's bytes move from stream custody to decoded-frame
        // custody; only the length prefix leaves the ledger.
        acct.credit_ingress(4);
        self.pos += 4 + len;
        if self.pos == self.buf.len() {
            // Fully consumed: reset in place. Ordinary traffic keeps its
            // capacity; what a bulk burst grew goes back to the
            // allocator, or every connection would hold its share of
            // the round's largest burst for the rest of the session.
            if self.buf.capacity() > RELEASE_CAPACITY {
                self.buf = Vec::new();
            } else {
                self.buf.clear();
            }
            self.pos = 0;
        }
        Ok(Some(frame))
    }
}

/// One queued egress segment: a refcounted, already length-prefixed wire
/// message and the drain position within it. Broadcast frames are
/// encoded once and the same `Arc` is queued on every channel.
#[derive(Debug)]
struct Segment {
    data: Arc<[u8]>,
    pos: usize,
}

/// Backpressure buffer for the non-blocking write path: a queue of
/// refcounted segments drained with vectored writes. Frames queued via
/// [`queue_frame`](WriteBuffer::queue_frame) are copied once (prefix +
/// payload into one allocation); broadcast frames arrive pre-encoded
/// via [`queue_shared`](WriteBuffer::queue_shared) and are shared across
/// all channels — zero per-peer copies. Partial writes never tear a
/// frame: the front segment's position is the stream cursor.
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

    /// Queues one frame (length prefix + payload, copied into one owned
    /// segment).
    pub fn queue_frame(&mut self, frame: &[u8]) {
        let mut msg = Vec::with_capacity(4 + frame.len());
        msg.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        msg.extend_from_slice(frame);
        self.queue_shared(&msg.into());
    }

    /// Queues an already-encoded wire message (length prefix included)
    /// by reference count — the broadcast path queues one `Arc` on N
    /// channels instead of copying the frame N times.
    pub fn queue_shared(&mut self, msg: &Arc<[u8]>) {
        self.len += msg.len();
        if let Some(acct) = &self.account {
            acct.charge_egress(msg.len());
        }
        self.segs.push_back(Segment {
            data: Arc::clone(msg),
            pos: 0,
        });
    }

    /// Bytes still waiting to drain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
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
    /// [`MAX_WRITEV_SEGMENTS`] segments per vectored write. `Ok(true)`
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
    pub fn from_stream(stream: TcpStream) -> Result<TcpChannel, NetError> {
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
    pub fn set_write_timeout(&mut self, timeout: Duration) {
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

    /// Flushes the outbox and keeps write interest in sync with whether
    /// a backlog remains.
    fn flush_outbox(&mut self) -> Result<bool, NetError> {
        let drained = match self.outbox.write_to(&mut self.stream) {
            Ok(drained) => drained,
            Err(e) if is_disconnect(&e) || e.kind() == ErrorKind::WriteZero => {
                return Err(NetError::Closed)
            }
            Err(e) => return Err(e.into()),
        };
        self.sync_interest()?;
        Ok(drained)
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
        if self.registration.is_some() {
            // Evented mode: enqueue and flush opportunistically; the
            // event loop drains any backlog under write readiness.
            self.outbox.queue_frame(frame);
            self.flush_outbox()?;
            return Ok(());
        }
        // Blocking mode, but never unbounded: a peer that stops reading
        // fills its socket buffer and would otherwise park the
        // coordinator in write(2) forever. The deadline is *overall*
        // (each write(2) is bounded by the remaining budget, like
        // `fill_until`), so a peer draining one byte per poll cannot
        // extend it; expiry surfaces as NetError::Timeout → a detected
        // dropout. (A timeout can tear a frame mid-write, so the
        // connection must be dropped after.)
        let deadline = Instant::now() + self.write_timeout;
        let mut msg = Vec::with_capacity(4 + frame.len());
        msg.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        msg.extend_from_slice(frame);
        let mut written = 0;
        while written < msg.len() {
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            let budget = deadline - now;
            self.stream
                .set_write_timeout(Some(budget.max(Duration::from_millis(1))))?;
            match self.stream.write(&msg[written..]) {
                Ok(0) => return Err(NetError::Closed),
                Ok(n) => written += n,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(NetError::Timeout);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(&e) => return Err(NetError::Closed),
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
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
/// it the channel is non-blocking: `send` enqueues into a backpressure
/// buffer and flushes opportunistically, [`try_recv`](TcpChannel::try_recv)
/// reassembles frames from whatever bytes are available, and
/// [`try_flush`](TcpChannel::try_flush) drains the buffer under write
/// readiness.
impl TcpChannel {
    /// Sends an already-encoded wire message — 4-byte little-endian
    /// length prefix followed by the frame (see
    /// [`wire_message`](crate::transport::wire_message)). The broadcast
    /// path encodes a frame *once* and calls this on every channel; a
    /// registered channel queues the shared allocation by refcount
    /// instead of copying it N times.
    ///
    /// # Errors
    ///
    /// Same contract as [`Channel::send`].
    pub fn send_wire_shared(&mut self, msg: &Arc<[u8]>) -> Result<(), NetError> {
        if self.registration.is_some() {
            self.outbox.queue_shared(msg);
            self.flush_outbox()?;
            return Ok(());
        }
        self.send(&msg[4..])
    }

    /// Hands a received frame's allocation back once the caller is done
    /// with it, so the next reassembled frame can reuse it instead of
    /// allocating, and credits its bytes back to the ledger.
    pub fn recycle_frame(&mut self, frame: Vec<u8>) {
        self.inbox.recycle(frame);
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
        // Drain the kernel buffer first so level-triggered epoll goes
        // quiet once everything available has been reassembled.
        let mut buf = [0u8; 16 * 1024];
        while !self.eof {
            match self.stream.read(&mut buf) {
                Ok(0) => self.eof = true,
                Ok(n) => self.inbox.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(&e) => self.eof = true,
                Err(e) => return Err(e.into()),
            }
        }
        if let Some(frame) = self.inbox.take_frame()? {
            return Ok(Some(frame));
        }
        if self.eof {
            return Err(NetError::Closed);
        }
        Ok(None)
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
    fn frame_buffer_reuses_recycled_allocations() {
        // With an attached pool account, a recycled frame's allocation
        // comes back as the next frame of its size class.
        let pool = crate::pool::BytePool::new();
        let mut buf = FrameBuffer::new();
        buf.attach_account(pool.account());
        let mut stream = Vec::new();
        for payload in [&b"abc"[..], b"defgh", b"ijklmn"] {
            stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            stream.extend_from_slice(payload);
        }
        buf.push(&stream);
        let first = buf.take_frame().unwrap().expect("first frame");
        assert_eq!(first, b"abc");
        let at = first.as_ptr();
        buf.recycle(first);
        let second = buf.take_frame().unwrap().expect("second frame");
        assert_eq!(second, b"defgh");
        assert_eq!(second.as_ptr(), at, "recycled allocation not reused");
        // Recycle it again: the next frame rides the same allocation.
        buf.recycle(second);
        let third = buf.take_frame().unwrap().expect("third frame");
        assert_eq!(third, b"ijklmn");
        assert_eq!(third.as_ptr(), at);
        assert!(buf.is_empty(), "stream fully consumed");
        assert!(buf.take_frame().unwrap().is_none());
        buf.recycle(third);
        assert_eq!(pool.live_ingress(), 0, "recycle settles the ledger");
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

    #[test]
    fn frame_buffer_releases_a_drained_burst_and_nothing_else() {
        // Two 1.25 MiB chunk frames behind a small control frame,
        // arriving in socket-read-sized pieces while the consumer lags
        // (nothing is taken until the whole burst is buffered).
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
        for piece in stream.chunks(64 * 1024) {
            buf.push(piece);
        }
        assert!(buf.buf.capacity() >= stream.len());
        assert_eq!(account.charged_ingress(), stream.len() as u64);
        let mut outstanding = 0u64;
        for want in &frames {
            let got = buf.take_frame().unwrap().expect("whole frame buffered");
            assert_eq!(&got, want);
            outstanding += want.len() as u64;
            // Stream custody became decoded-frame custody; only the
            // prefixes left the ledger.
            assert_eq!(
                account.charged_ingress(),
                buf.len() as u64 + outstanding,
                "ledger is by length, not capacity"
            );
            buf.recycle(got);
            outstanding -= want.len() as u64;
        }
        assert!(buf.is_empty() && buf.take_frame().unwrap().is_none());
        assert_eq!(account.charged_ingress(), 0);
        assert!(
            buf.buf.capacity() <= RELEASE_CAPACITY,
            "burst capacity kept: {}",
            buf.buf.capacity()
        );

        // The released buffer keeps working, and control-sized traffic
        // (tcp_cohort256's frames are ≈ 3 KiB) keeps its allocation.
        let small: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 3000]).collect();
        let mut kept = None;
        for f in &small {
            buf.push(&framed(std::slice::from_ref(f)));
            let got = buf.take_frame().unwrap().expect("frame");
            assert_eq!(&got, f);
            buf.recycle(got);
            let at = (buf.buf.as_ptr(), buf.buf.capacity());
            assert!(at.1 > 0 && at.1 <= RELEASE_CAPACITY);
            assert_eq!(*kept.get_or_insert(at), at, "small traffic re-allocated");
        }
        assert_eq!(account.charged_ingress(), 0);
    }

    #[test]
    fn frame_buffer_cursor_survives_interleaved_push_and_take() {
        // Frames are consumed via the read cursor while later bytes
        // keep arriving; the reassembly must stay byte-exact across
        // compactions.
        let frames: Vec<Vec<u8>> = (0..50u8)
            .map(|i| vec![i; 1 + usize::from(i) * 7 % 40])
            .collect();
        let stream = framed(&frames);
        let mut buf = FrameBuffer::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let n = (pos * 13 % 9 + 1).min(stream.len() - pos);
            buf.push(&stream[pos..pos + n]);
            pos += n;
            while let Some(frame) = buf.take_frame().unwrap() {
                got.push(frame.clone());
                buf.recycle(frame); // exercise reuse mid-stream
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
        buf.push(&stream);
        assert_eq!(pool.live_ingress(), 104, "stream bytes charged");
        let frame = buf.take_frame().unwrap().expect("frame");
        assert_eq!(
            pool.live_ingress(),
            100,
            "prefix credited, frame still in custody"
        );
        buf.recycle(frame);
        assert_eq!(pool.live_ingress(), 0, "recycle settles the frame");
        assert!(pool.pooled_bytes() > 0, "allocation joined the reservoir");
    }

    #[test]
    fn write_buffer_shares_broadcast_segments() {
        // One pre-encoded wire message queued on two buffers: both
        // drain the identical stream, and the bytes live in one shared
        // allocation (Arc refcount 3: ours + 2 queues).
        let frame = b"broadcast-payload".to_vec();
        let mut msg = (frame.len() as u32).to_le_bytes().to_vec();
        msg.extend_from_slice(&frame);
        let wire: Arc<[u8]> = msg.clone().into();
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
