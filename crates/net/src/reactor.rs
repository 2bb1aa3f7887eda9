//! dordis-reactor: a readiness-driven event loop so one coordinator
//! thread serves hundreds of chunk-streaming clients.
//!
//! The pre-reactor coordinator swept its blocking [`Channel`](crate::transport::Channel)s
//! round-robin in fixed `recv_deadline` slices, so both per-round
//! latency and syscall count scaled as `O(clients × ticks)`. This module
//! replaces the sweep with a small mio-style reactor:
//!
//! - `Poller`: an epoll instance driven through direct `syscall`
//!   instructions (the container has no crates.io access, so no `libc` /
//!   `mio` — the handful of syscalls we need are wrapped by hand in
//!   `sys`). Registrations are `Token`-keyed with read/write
//!   `Interest`; events are level-triggered, which composes with the
//!   drain-until-`WouldBlock` discipline of `TcpChannel::try_recv`.
//! - `Deadlines`: one per-token deadline map — stage and per-chunk
//!   dropout deadlines are armed, cancelled and harvested by token, and
//!   the earliest one bounds each poll's wait.
//!
//! Every channel the reactor serves is a
//! [`TcpChannel`](crate::tcp::TcpChannel) — in-process sessions and
//! tests dial 127.0.0.1 — so all readiness comes from the kernel through
//! one epoll instance. The reactor only decides *when* the coordinator's
//! (stage, chunk) collector looks at frames and deadlines, so one thread
//! wakes `O(events)` times per round instead of `O(clients × ticks)`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dordis_telemetry::{Counter, Telemetry};

use crate::pool::BytePool;
use crate::NetError;

/// The longest a session's join loop sleeps in one poll between accept
/// sweeps.
pub const TICK: Duration = Duration::from_millis(10);

/// Direct-syscall wrappers for the epoll facilities the reactor needs:
/// `epoll_create1`, `epoll_ctl`, `epoll_pwait` and `close`. No `libc`
/// crate exists in this container, so the syscalls are issued with
/// inline `syscall` / `svc` instructions; a negative return value is
/// `-errno`.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub(crate) const CLOSE: usize = 3;
        pub(crate) const EPOLL_CTL: usize = 233;
        pub(crate) const EPOLL_PWAIT: usize = 281;
        pub(crate) const EPOLL_CREATE1: usize = 291;
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub(crate) const CLOSE: usize = 57;
        pub(crate) const EPOLL_CTL: usize = 21;
        pub(crate) const EPOLL_PWAIT: usize = 22;
        pub(crate) const EPOLL_CREATE1: usize = 20;
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    compile_error!(
        "dordis-net's reactor issues raw Linux syscalls and currently \
         supports x86_64 and aarch64 only"
    );

    /// One raw syscall; returns the kernel's value (negative = -errno).
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    /// One raw syscall; returns the kernel's value (negative = -errno).
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        core::arch::asm!(
            "svc #0",
            in("x8") n,
            inlateout("x0") a1 => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    pub(crate) const EPOLL_CTL_ADD: usize = 1;
    pub(crate) const EPOLL_CTL_MOD: usize = 3;

    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CLOEXEC: usize = 0o2000000;

    /// The kernel's epoll event record. Packed on x86_64 (the kernel ABI
    /// there has no padding between `events` and `data`); naturally
    /// aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Default)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub(super) fn epoll_create1() -> io::Result<i32> {
        // SAFETY: epoll_create1 takes a flags word and touches no memory.
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    pub(super) fn epoll_ctl(
        epfd: i32,
        op: usize,
        fd: i32,
        event: Option<EpollEvent>,
    ) -> io::Result<()> {
        let mut ev = event.unwrap_or_default();
        let ptr = if event.is_some() {
            std::ptr::addr_of_mut!(ev) as usize
        } else {
            0
        };
        // SAFETY: `ev` outlives the call; the kernel reads it only
        // during the syscall.
        let ret = unsafe { syscall6(nr::EPOLL_CTL, epfd as usize, op, fd as usize, ptr, 0, 0) };
        check(ret).map(|_| ())
    }

    pub(super) fn epoll_pwait(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        // SAFETY: the events buffer is exclusively borrowed for the
        // duration of the call; a null sigmask leaves signals untouched.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                epfd as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                8,
            )
        };
        check(ret)
    }

    pub(super) fn close(fd: i32) {
        // SAFETY: we only close fds this module opened and owns.
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }
}

/// Identifies one registration (a channel or a timer) across
/// the reactor's APIs. The value travels through the kernel as epoll
/// userdata, so it must stay meaningful without any side table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Token(pub u64);

/// Which readiness a registration subscribes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the peer has bytes (or a hangup) for us.
    pub readable: bool,
    /// Wake when the socket can accept more of a backlogged write.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle channel.
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — a channel with a backlogged outbox.
    pub(crate) const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut b = 0;
        if self.readable {
            b |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if self.writable {
            b |= sys::EPOLLOUT;
        }
        b
    }
}

/// One readiness notification out of [`Reactor::poll`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    /// The registration this event belongs to.
    pub token: Token,
    /// Bytes (or a pending hangup) are available to read.
    pub readable: bool,
    /// A backlogged write can make progress.
    pub writable: bool,
    /// The peer hung up or the socket errored; a following `try_recv`
    /// will drain any remaining buffered frames and then surface
    /// [`NetError::Closed`].
    pub closed: bool,
}

/// A copyable, non-owning handle to the epoll instance, so channels can
/// flip their own read/write interest (e.g. when an outbox transitions
/// between empty and backlogged) without borrowing the whole reactor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollerHandle {
    epfd: i32,
}

impl PollerHandle {
    /// Adds `fd` with `interest` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's `epoll_ctl` failure.
    pub(crate) fn register(
        &self,
        fd: i32,
        token: Token,
        interest: Interest,
    ) -> Result<(), NetError> {
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            Some(sys::EpollEvent {
                events: interest.bits(),
                data: token.0,
            }),
        )
        .map_err(NetError::from)
    }

    /// Updates `fd`'s token and/or interest.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's `epoll_ctl` failure.
    pub(crate) fn reregister(
        &self,
        fd: i32,
        token: Token,
        interest: Interest,
    ) -> Result<(), NetError> {
        sys::epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            Some(sys::EpollEvent {
                events: interest.bits(),
                data: token.0,
            }),
        )
        .map_err(NetError::from)
    }
}

/// The epoll instance: owns the fd, hands out [`PollerHandle`]s, and
/// translates kernel events into [`Event`]s.
#[derive(Debug)]
pub(crate) struct Poller {
    handle: PollerHandle,
}

impl Poller {
    /// Creates a fresh epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub(crate) fn new() -> Result<Poller, NetError> {
        let epfd = sys::epoll_create1()?;
        Ok(Poller {
            handle: PollerHandle { epfd },
        })
    }

    /// The non-owning handle channels use to manage their own interest.
    #[must_use]
    pub(crate) fn handle(&self) -> PollerHandle {
        self.handle
    }

    /// Blocks until at least one registration is ready or `timeout`
    /// passes, appending to `out`. `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_pwait` failure (`EINTR` is retried).
    pub(crate) fn wait(
        &self,
        out: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> Result<(), NetError> {
        let mut buf = [sys::EpollEvent::default(); 64];
        let ms = match timeout {
            None => -1,
            Some(d) => {
                // Ceil to a millisecond so timer deadlines are not
                // busy-waited across repeated 0 ms wakeups.
                let ns = d.as_nanos();
                ns.div_ceil(1_000_000).min(i32::MAX as u128) as i32
            }
        };
        let n = loop {
            match sys::epoll_pwait(self.handle.epfd, &mut buf, ms) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        for ev in &buf[..n] {
            let raw = *ev;
            let bits = raw.events;
            out.push(Event {
                token: Token(raw.data),
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close(self.handle.epfd);
    }
}

// ---------------------------------------------------------------------
// Deadlines.
// ---------------------------------------------------------------------

/// The per-(stage, chunk) dropout deadlines and the join window's
/// per-connection ones, one per token: re-arming replaces the previous
/// deadline. At most one per connection is armed, so a map scanned per
/// poll is all the structure they need.
#[derive(Debug, Default)]
pub(crate) struct Deadlines {
    armed: BTreeMap<Token, Instant>,
}

impl Deadlines {
    /// No deadline armed.
    #[must_use]
    pub(crate) fn new() -> Deadlines {
        Deadlines::default()
    }

    /// Arms (or re-arms) `token` to fire at `deadline`.
    pub(crate) fn schedule(&mut self, token: Token, deadline: Instant) {
        self.armed.insert(token, deadline);
    }

    /// Disarms `token` (no-op if not armed).
    pub(crate) fn cancel(&mut self, token: Token) {
        self.armed.remove(&token);
    }

    /// The earliest armed deadline.
    #[must_use]
    fn next_deadline(&self) -> Option<Instant> {
        self.armed.values().min().copied()
    }

    /// Harvests every deadline at or before `now` into `expired` (in
    /// token order); a deadline never fires early, and fires once.
    fn advance(&mut self, now: Instant, expired: &mut Vec<Token>) {
        self.armed.retain(|&token, &mut at| {
            let due = at <= now;
            if due {
                expired.push(token);
            }
            !due
        });
    }
}

// ---------------------------------------------------------------------
// Reactor.
// ---------------------------------------------------------------------

/// The metrics scrape listener's registration token (reserved; its
/// events are consumed inside [`Reactor::poll`], never surfaced).
const METRICS_LISTENER_TOKEN: Token = Token(u64::MAX - 4);

/// Metrics scrape connections get tokens counted up from this base —
/// far above any client id (`JOIN_BASE` is `1 << 40`) and below the
/// reserved singletons at the very top of the space.
const METRICS_CONN_BASE: u64 = u64::MAX - (1 << 20);

/// Wake-up accounting, to prove the event loop does `O(events)` work:
/// the scale tests assert `polls` stays within a small factor of
/// `events + timer_fires`, never `O(clients × ticks)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReactorStats {
    /// `epoll_pwait` invocations (each is one coordinator wake-up).
    pub polls: u64,
    /// Readiness events delivered.
    pub events: u64,
    /// Deadline timers fired.
    pub timer_fires: u64,
}

impl ReactorStats {
    /// Counters accumulated since `base` was captured (saturating, so
    /// a mismatched base degrades to the cumulative view instead of
    /// wrapping). This is how [`NetRoundReport`] reports per-round
    /// reactor work from a session-lived reactor.
    ///
    /// [`NetRoundReport`]: crate::coordinator::NetRoundReport
    #[must_use]
    pub(crate) fn delta_since(self, base: ReactorStats) -> ReactorStats {
        ReactorStats {
            polls: self.polls.saturating_sub(base.polls),
            events: self.events.saturating_sub(base.events),
            timer_fires: self.timer_fires.saturating_sub(base.timer_fires),
        }
    }
}

/// The event loop facade the coordinator drives: epoll + deadlines, with
/// wake-up accounting and (optionally) a metrics scrape endpoint
/// serviced on the same epoll loop.
#[derive(Debug)]
pub(crate) struct Reactor {
    poller: Poller,
    deadlines: Deadlines,
    /// Wake-up counters (see [`ReactorStats`]).
    pub stats: ReactorStats,
    telemetry: Telemetry,
    /// Pre-resolved registry cells mirroring [`ReactorStats`] — no-op
    /// increments when telemetry is disabled.
    m_polls: Counter,
    m_events: Counter,
    m_timer_fires: Counter,
    metrics: Option<MetricsServer>,
    /// The reactor's memory plane: the byte ledger every registered
    /// channel draws an account from.
    pool: BytePool,
}

impl Reactor {
    /// Builds a reactor with telemetry disabled.
    ///
    /// # Errors
    ///
    /// Propagates epoll creation failure.
    #[cfg(test)]
    pub(crate) fn new() -> Result<Reactor, NetError> {
        Reactor::with_telemetry(Telemetry::disabled())
    }

    /// Builds a reactor that counts its wake-ups into `telemetry`
    /// (in addition to the always-on [`ReactorStats`]).
    ///
    /// # Errors
    ///
    /// Propagates epoll creation failure.
    pub(crate) fn with_telemetry(telemetry: Telemetry) -> Result<Reactor, NetError> {
        let poller = Poller::new()?;
        let m_polls = telemetry.counter("dordis_reactor_polls_total", &[]);
        let m_events = telemetry.counter("dordis_reactor_events_total", &[]);
        let m_timer_fires = telemetry.counter("dordis_reactor_timer_fires_total", &[]);
        let pool = BytePool::with_telemetry(&telemetry);
        Ok(Reactor {
            poller,
            deadlines: Deadlines::new(),
            stats: ReactorStats::default(),
            telemetry,
            m_polls,
            m_events,
            m_timer_fires,
            metrics: None,
            pool,
        })
    }

    /// A handle to this reactor's shared byte ledger.
    /// Channels call this at
    /// [`TcpChannel::register`](crate::tcp::TcpChannel::register) time to open
    /// their [`ChannelAccount`](crate::pool::ChannelAccount).
    #[must_use]
    pub(crate) fn pool(&self) -> BytePool {
        self.pool.clone()
    }

    /// The telemetry handle this reactor records into (disabled unless
    /// built via [`Reactor::with_telemetry`]).
    #[cfg(test)]
    #[must_use]
    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Binds a Prometheus scrape endpoint on `addr` and registers it as
    /// just another token on this reactor's epoll loop: GETs are
    /// answered from inside [`Reactor::poll`], with no dedicated thread
    /// and without breaking the `O(events)` wake-up property (a scrape
    /// wake-up delivers at least one counted event). Returns the bound
    /// address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates bind/registration failures.
    pub(crate) fn serve_metrics(&mut self, addr: &str) -> Result<std::net::SocketAddr, NetError> {
        use std::os::unix::io::AsRawFd as _;
        let listener = std::net::TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.poller.handle().register(
            listener.as_raw_fd(),
            METRICS_LISTENER_TOKEN,
            Interest::READ,
        )?;
        self.metrics = Some(MetricsServer {
            listener,
            conns: BTreeMap::new(),
            next_slot: 0,
            scrapes: self.telemetry.counter("dordis_metrics_scrapes_total", &[]),
        });
        Ok(local)
    }

    /// Handle for channels to manage their own registration.
    #[must_use]
    pub(crate) fn handle(&self) -> PollerHandle {
        self.poller.handle()
    }

    /// Arms (or re-arms) a deadline for `token`.
    pub(crate) fn arm_deadline(&mut self, token: Token, deadline: Instant) {
        self.deadlines.schedule(token, deadline);
    }

    /// Disarms `token`'s deadline.
    pub(crate) fn cancel_deadline(&mut self, token: Token) {
        self.deadlines.cancel(token);
    }

    /// One event-loop turn: blocks until readiness or the
    /// earliest of (`max_wait`, the next armed deadline); then fills
    /// `events` with readiness and `expired` with due deadline tokens.
    /// Both output vectors are cleared first.
    ///
    /// # Errors
    ///
    /// Propagates poller failures.
    pub(crate) fn poll(
        &mut self,
        events: &mut Vec<Event>,
        expired: &mut Vec<Token>,
        max_wait: Duration,
    ) -> Result<(), NetError> {
        events.clear();
        expired.clear();
        let now = Instant::now();
        let mut wait = max_wait;
        if let Some(next) = self.deadlines.next_deadline() {
            wait = wait.min(next.saturating_duration_since(now));
        }
        self.stats.polls += 1;
        self.m_polls.inc();
        self.poller.wait(events, Some(wait))?;
        self.deadlines.advance(Instant::now(), expired);
        // Count events *before* filtering scrape traffic out: a poll
        // woken only by a scrape still delivered >= 1 counted event, so
        // the `polls = O(events)` accounting the scale tests assert
        // stays sound with the endpoint enabled.
        self.stats.events += events.len() as u64;
        self.stats.timer_fires += expired.len() as u64;
        self.m_events.add(events.len() as u64);
        self.m_timer_fires.add(expired.len() as u64);
        if let Some(server) = self.metrics.as_mut() {
            let handle = self.poller.handle();
            let mut mine = Vec::new();
            events.retain(|ev| {
                let is_metrics =
                    ev.token == METRICS_LISTENER_TOKEN || server.conns.contains_key(&ev.token.0);
                if is_metrics {
                    mine.push(*ev);
                }
                !is_metrics
            });
            for ev in mine {
                server.service(ev, handle, &self.telemetry);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Metrics scrape endpoint.
// ---------------------------------------------------------------------

/// One in-flight scrape connection: request bytes accumulate in `buf`
/// until the header terminator arrives, then `out[written..]` drains
/// under write readiness.
#[derive(Debug)]
struct MetricsConn {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    written: usize,
}

/// The `--metrics-addr` endpoint: a non-blocking listener plus its
/// connections, all keyed into the reactor's own epoll instance, so
/// answering a Prometheus GET is just more events on the one loop.
#[derive(Debug)]
struct MetricsServer {
    listener: std::net::TcpListener,
    conns: BTreeMap<u64, MetricsConn>,
    next_slot: u64,
    scrapes: Counter,
}

/// Requests larger than this are dropped — a scrape GET is < 1 KiB.
const METRICS_REQUEST_MAX: usize = 16 * 1024;

impl MetricsServer {
    /// Advances whatever the event makes possible: accepts on the
    /// listener token, reads/responds/drains on connection tokens.
    /// Connections are dropped when served or broken; closing the fd
    /// deregisters it from epoll implicitly.
    fn service(&mut self, ev: Event, handle: PollerHandle, telemetry: &Telemetry) {
        use std::io::{Read as _, Write as _};
        use std::os::unix::io::AsRawFd as _;

        if ev.token == METRICS_LISTENER_TOKEN {
            // Drain the accept backlog; WouldBlock (and any transient
            // accept error) ends the burst.
            while let Ok((stream, _)) = self.listener.accept() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Slots recycle modulo 2^16 — far more simultaneous
                // scrapes than any deployment has, and stale tokens
                // cannot collide because dead connections leave the
                // map.
                let tok = METRICS_CONN_BASE + (self.next_slot & 0xFFFF);
                self.next_slot += 1;
                if handle
                    .register(stream.as_raw_fd(), Token(tok), Interest::READ)
                    .is_ok()
                {
                    self.conns.insert(
                        tok,
                        MetricsConn {
                            stream,
                            buf: Vec::new(),
                            out: Vec::new(),
                            written: 0,
                        },
                    );
                }
            }
            return;
        }

        let tok = ev.token.0;
        let scrapes = self.scrapes.clone();
        let Some(conn) = self.conns.get_mut(&tok) else {
            return;
        };
        let mut done = false;
        if ev.readable && conn.out.is_empty() {
            let mut tmp = [0u8; 1024];
            loop {
                match conn.stream.read(&mut tmp) {
                    Ok(0) => {
                        done = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&tmp[..n]);
                        if conn.buf.len() > METRICS_REQUEST_MAX {
                            done = true;
                            break;
                        }
                        if conn.buf.windows(4).any(|w| w == b"\r\n\r\n") {
                            let body = telemetry.render_prometheus();
                            conn.out = format!(
                                "HTTP/1.1 200 OK\r\n\
                                 Content-Type: text/plain; version=0.0.4\r\n\
                                 Content-Length: {}\r\n\
                                 Connection: close\r\n\r\n{body}",
                                body.len()
                            )
                            .into_bytes();
                            scrapes.inc();
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        done = true;
                        break;
                    }
                }
            }
        }
        if !done && !conn.out.is_empty() {
            loop {
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => {
                        done = true;
                        break;
                    }
                    Ok(n) => {
                        conn.written += n;
                        if conn.written == conn.out.len() {
                            done = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        let _ = handle.reregister(
                            conn.stream.as_raw_fd(),
                            Token(tok),
                            Interest::READ_WRITE,
                        );
                        break;
                    }
                    Err(_) => {
                        done = true;
                        break;
                    }
                }
            }
        }
        if done || (ev.closed && conn.out.is_empty()) {
            self.conns.remove(&tok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::time::Duration;

    #[test]
    fn timer_wheel_fires_once_and_rearms() {
        let mut r = Reactor::new().unwrap();
        r.arm_deadline(Token(1), Instant::now() + Duration::from_millis(20));
        let (mut events, mut expired) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            r.poll(&mut events, &mut expired, Duration::from_millis(100))
                .unwrap();
            if !expired.is_empty() {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "timer never fired"
            );
        }
        assert_eq!(expired, vec![Token(1)]);
        assert!(
            start.elapsed() >= Duration::from_millis(18),
            "fired early: {:?}",
            start.elapsed()
        );
        // Cancelled timers stay silent.
        r.arm_deadline(Token(2), Instant::now() + Duration::from_millis(10));
        r.cancel_deadline(Token(2));
        r.poll(&mut events, &mut expired, Duration::from_millis(40))
            .unwrap();
        assert!(expired.is_empty(), "{expired:?}");
        // Re-arming replaces the old deadline: a far one pulled near
        // fires at the new instant, and only once.
        r.arm_deadline(Token(3), Instant::now() + Duration::from_secs(3600));
        r.arm_deadline(Token(3), Instant::now() + Duration::from_millis(5));
        r.poll(&mut events, &mut expired, Duration::from_secs(2))
            .unwrap();
        assert_eq!(expired, vec![Token(3)]);
        r.poll(&mut events, &mut expired, Duration::from_millis(10))
            .unwrap();
        assert!(expired.is_empty(), "fired twice: {expired:?}");
    }

    #[test]
    fn far_deadlines_survive_wheel_revolutions() {
        // A deadline far past many earlier harvests stays armed through
        // all of them and fires at its instant — never early, once.
        let mut d = Deadlines::new();
        let now = Instant::now();
        d.schedule(Token(3), now + Duration::from_millis(700));
        d.schedule(Token(4), now + Duration::from_millis(5));
        let mut out = Vec::new();
        for ms in (0..700).step_by(7) {
            d.advance(now + Duration::from_millis(ms), &mut out);
        }
        assert_eq!(out, vec![Token(4)], "only the near deadline is due");
        assert_eq!(d.next_deadline(), Some(now + Duration::from_millis(700)));
        d.advance(now + Duration::from_millis(700), &mut out);
        assert_eq!(out, vec![Token(4), Token(3)]);
        d.advance(now + Duration::from_millis(800), &mut out);
        assert_eq!(out.len(), 2, "a harvested deadline fires once");
        assert_eq!(d.next_deadline(), None);
    }

    #[test]
    fn metrics_endpoint_answers_on_the_reactor_loop() {
        use std::io::Read as _;

        let telemetry = Telemetry::enabled();
        telemetry
            .counter("demo_total", &[("stage", "Setup")])
            .add(3);
        let mut r = Reactor::with_telemetry(telemetry).unwrap();
        let addr = r.serve_metrics("127.0.0.1:0").unwrap();

        let scraper = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let mut page = String::new();
            s.read_to_string(&mut page).unwrap();
            page
        });

        // Drive the loop until the scraper's connection has been
        // accepted, read, and answered — all inside poll().
        let (mut events, mut expired) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while !scraper.is_finished() {
            r.poll(&mut events, &mut expired, Duration::from_millis(20))
                .unwrap();
            assert!(
                events.is_empty(),
                "scrape traffic leaked to the coordinator: {events:?}"
            );
            assert!(start.elapsed() < Duration::from_secs(5), "scrape hung");
        }
        let page = scraper.join().unwrap();
        assert!(page.starts_with("HTTP/1.1 200 OK\r\n"), "{page}");
        assert!(page.contains("demo_total{stage=\"Setup\"} 3"), "{page}");
        assert!(page.contains("dordis_reactor_polls_total"), "{page}");

        // The scrape was counted, and polls stayed O(events).
        let snap = r.telemetry().snapshot().unwrap();
        assert_eq!(snap.get("dordis_metrics_scrapes_total"), 1);
        assert!(
            r.stats.polls <= r.stats.events + r.stats.timer_fires + 16,
            "polls {} vs events {} + fires {}",
            r.stats.polls,
            r.stats.events,
            r.stats.timer_fires
        );
    }

    #[test]
    fn poller_reports_tcp_readiness() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        use std::os::unix::io::AsRawFd as _;
        poller
            .handle()
            .register(server.as_raw_fd(), Token(42), Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.is_empty(), "spurious readiness: {events:?}");

        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(42));
        assert!(events[0].readable && !events[0].closed);

        drop(client);
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.closed), "{events:?}");
    }
}
