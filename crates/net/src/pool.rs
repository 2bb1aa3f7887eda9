//! The reactor's memory plane: a byte ledger ([`BytePool`]) plus the
//! cheap per-connection accounting handles ([`ChannelAccount`]) every
//! registered channel charges its buffered bytes through.
//!
//! The ledger counts **transport custody**: every ingress byte a
//! connection holds (the frame being read plus decoded frames not yet
//! released) and every egress byte it has backlogged is charged to
//! the owning connection's [`ChannelAccount`] and credited back when
//! consumed, released, or the channel drops — so `charges − credits` is
//! exactly the reactor's live buffered bytes. It does not count what
//! the round does with a frame after release (the secagg server's
//! parked payloads and running sum, which the coordinator reports as
//! `dordis_server_custody_bytes`), so the high-water gauge is a floor
//! on the coordinator's memory, not its footprint.
//!
//! The pool holds no allocations: frames are plain `Vec`s, freed when
//! the consumer drops them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dordis_telemetry::{Gauge, Telemetry};

/// Shared state behind every [`BytePool`] clone and every
/// [`ChannelAccount`] on the reactor.
#[derive(Debug)]
struct PoolShared {
    /// Live buffered ingress bytes (stream buffers + decoded frames).
    live_in: AtomicU64,
    /// Live buffered egress bytes (write backlogs).
    live_out: AtomicU64,
    /// High-water marks of the two ledgers.
    hw_in: AtomicU64,
    hw_out: AtomicU64,
    // Registry cells (no-op when telemetry is disabled).
    g_live_in: Gauge,
    g_live_out: Gauge,
    g_hw_in: Gauge,
    g_hw_out: Gauge,
}

/// Cheap (`Arc`) handle to a reactor's shared byte ledger. Cloning
/// shares the same ledger.
#[derive(Clone, Debug)]
pub struct BytePool {
    shared: Arc<PoolShared>,
}

impl Default for BytePool {
    fn default() -> BytePool {
        BytePool::new()
    }
}

impl BytePool {
    /// A pool with no telemetry.
    #[must_use]
    pub fn new() -> BytePool {
        BytePool::with_telemetry(&Telemetry::disabled())
    }

    /// A pool whose gauges record into `telemetry`.
    #[must_use]
    pub fn with_telemetry(telemetry: &Telemetry) -> BytePool {
        BytePool {
            shared: Arc::new(PoolShared {
                live_in: AtomicU64::new(0),
                live_out: AtomicU64::new(0),
                hw_in: AtomicU64::new(0),
                hw_out: AtomicU64::new(0),
                g_live_in: telemetry.gauge("dordis_buffered_bytes", &[("direction", "in")]),
                g_live_out: telemetry.gauge("dordis_buffered_bytes", &[("direction", "out")]),
                g_hw_in: telemetry
                    .gauge("dordis_buffered_bytes_high_water", &[("direction", "in")]),
                g_hw_out: telemetry
                    .gauge("dordis_buffered_bytes_high_water", &[("direction", "out")]),
            }),
        }
    }

    /// True when both handles point at the same shared ledger —
    /// used at re-registration to detect a channel crossing reactors.
    #[must_use]
    pub fn same_as(&self, other: &BytePool) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Opens a per-connection accounting handle.
    #[must_use]
    pub fn account(&self) -> ChannelAccount {
        ChannelAccount {
            inner: Arc::new(AccountInner {
                pool: self.clone(),
                charged_in: AtomicU64::new(0),
                charged_out: AtomicU64::new(0),
            }),
        }
    }

    /// Live buffered ingress bytes (charges − credits).
    #[must_use]
    pub fn live_ingress(&self) -> u64 {
        self.shared.live_in.load(Ordering::Relaxed)
    }

    /// Ingress high-water mark.
    #[cfg(test)]
    #[must_use]
    fn high_water_ingress(&self) -> u64 {
        self.shared.hw_in.load(Ordering::Relaxed)
    }

    fn charge(&self, ledger: Ledger, n: u64) {
        if n == 0 {
            return;
        }
        let s = &self.shared;
        let (live, hw, g_live, g_hw) = match ledger {
            Ledger::In => (&s.live_in, &s.hw_in, &s.g_live_in, &s.g_hw_in),
            Ledger::Out => (&s.live_out, &s.hw_out, &s.g_live_out, &s.g_hw_out),
        };
        let now = live.fetch_add(n, Ordering::Relaxed) + n;
        g_live.set(now);
        let mut seen = hw.load(Ordering::Relaxed);
        while now > seen {
            match hw.compare_exchange_weak(seen, now, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    g_hw.set(now);
                    break;
                }
                Err(cur) => seen = cur,
            }
        }
    }

    fn credit(&self, ledger: Ledger, n: u64) {
        if n == 0 {
            return;
        }
        let s = &self.shared;
        let (live, g_live) = match ledger {
            Ledger::In => (&s.live_in, &s.g_live_in),
            Ledger::Out => (&s.live_out, &s.g_live_out),
        };
        let prev = live.fetch_sub(n, Ordering::Relaxed);
        debug_assert!(prev >= n, "pool credit {n} exceeds live {prev}");
        g_live.set(prev.saturating_sub(n));
    }
}

#[derive(Clone, Copy)]
enum Ledger {
    In,
    Out,
}

/// Per-connection accounting state (shared between a channel and its
/// buffers; the last clone's drop settles the ledger).
#[derive(Debug)]
struct AccountInner {
    pool: BytePool,
    charged_in: AtomicU64,
    charged_out: AtomicU64,
}

impl Drop for AccountInner {
    fn drop(&mut self) {
        // No leak on channel drop: whatever this connection still has
        // charged (unconsumed stream bytes, unreleased decoded frames,
        // backlogged writes) is credited back.
        self.pool
            .credit(Ledger::In, self.charged_in.load(Ordering::Relaxed));
        self.pool
            .credit(Ledger::Out, self.charged_out.load(Ordering::Relaxed));
    }
}

/// One connection's handle into the reactor's [`BytePool`]: charge and
/// credit buffered bytes. Clones share the same account (a channel and
/// its frame buffer hold one each).
#[derive(Clone, Debug)]
pub struct ChannelAccount {
    inner: Arc<AccountInner>,
}

impl ChannelAccount {
    /// The pool this account charges into.
    #[must_use]
    pub fn pool(&self) -> &BytePool {
        &self.inner.pool
    }

    /// Charges `n` buffered ingress bytes to this connection.
    pub fn charge_ingress(&self, n: usize) {
        self.inner.charged_in.fetch_add(n as u64, Ordering::Relaxed);
        self.inner.pool.charge(Ledger::In, n as u64);
    }

    /// Credits `n` ingress bytes back (saturating: crediting more than
    /// was charged settles at zero, so a stray release cannot corrupt
    /// the global ledger).
    pub fn credit_ingress(&self, n: usize) {
        let actual = saturating_take(&self.inner.charged_in, n as u64);
        self.inner.pool.credit(Ledger::In, actual);
    }

    /// Charges `n` backlogged egress bytes.
    pub fn charge_egress(&self, n: usize) {
        self.inner
            .charged_out
            .fetch_add(n as u64, Ordering::Relaxed);
        self.inner.pool.charge(Ledger::Out, n as u64);
    }

    /// Credits `n` egress bytes back (saturating).
    pub fn credit_egress(&self, n: usize) {
        let actual = saturating_take(&self.inner.charged_out, n as u64);
        self.inner.pool.credit(Ledger::Out, actual);
    }

    /// This connection's live ingress charge.
    #[must_use]
    pub fn charged_ingress(&self) -> u64 {
        self.inner.charged_in.load(Ordering::Relaxed)
    }
}

/// Subtracts up to `n` from `cell`, returning how much was actually
/// subtracted (never underflows).
fn saturating_take(cell: &AtomicU64, n: u64) -> u64 {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let take = cur.min(n);
        match cell.compare_exchange_weak(cur, cur - take, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return take,
            Err(now) => cur = now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_balances_and_tracks_high_water() {
        let pool = BytePool::new();
        let a = pool.account();
        let b = pool.account();
        a.charge_ingress(100);
        b.charge_ingress(50);
        assert_eq!(pool.live_ingress(), 150);
        assert_eq!(pool.high_water_ingress(), 150);
        a.credit_ingress(100);
        assert_eq!(pool.live_ingress(), 50);
        assert_eq!(pool.high_water_ingress(), 150, "high water is sticky");
        drop(b);
        assert_eq!(pool.live_ingress(), 0, "drop settles the ledger");
    }

    #[test]
    fn credit_saturates_instead_of_underflowing() {
        let pool = BytePool::new();
        let a = pool.account();
        a.charge_ingress(10);
        a.credit_ingress(1000);
        assert_eq!(pool.live_ingress(), 0);
        assert_eq!(a.charged_ingress(), 0);
    }
}
