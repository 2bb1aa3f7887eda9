//! Hand-rolled observability for the Dordis reproduction (no crates.io,
//! matching the workspace's vendored-shim constraint).
//!
//! Two instruments behind one handle:
//!
//! - a **span timeline**: monotonic-clock spans opened/closed at every
//!   (round, stage, chunk) boundary, around each per-chunk unmask
//!   step, and around session join/seating/park phases, kept in a
//!   fixed-capacity overwrite-oldest ring and exportable as
//!   Chrome-tracing JSON ([`Telemetry::export_chrome_trace`]) for
//!   Perfetto / `chrome://tracing`;
//! - a **metrics registry**: typed counters / gauges / log2-bucketed
//!   histograms (fixed allocation), rendered in Prometheus text
//!   exposition format ([`Telemetry::render_prometheus`]) and
//!   snapshottable for per-round deltas ([`Telemetry::snapshot`]).
//!
//! The whole layer is zero-cost when disabled: [`Telemetry::disabled`]
//! hands out handles whose operations are a branch on `None` — no
//! clock reads, no atomics, no locks. Instrumented code never checks a
//! flag; it just increments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod spans;

pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, LOG_BUCKETS};
pub use spans::SpanRecord;

use std::sync::Arc;
use std::time::Instant;

use metrics::Registry;
use spans::SpanSink;

#[derive(Debug)]
struct Inner {
    /// All span/snapshot timestamps are offsets from this epoch, so
    /// exported traces start near t=0 and u64 nanoseconds never
    /// overflow in a process lifetime.
    epoch: Instant,
    registry: Registry,
    spans: SpanSink,
}

/// The telemetry handle threaded through reactor, coordinator, session,
/// and transports. Cloning is cheap (one `Arc` bump or a `None` copy);
/// every clone shares the same registry and span ring.
#[derive(Clone, Debug)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A disabled handle: every operation is a no-op, every query
    /// returns empty. This is the default everywhere.
    #[must_use]
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default span-ring capacity.
    #[must_use]
    pub fn enabled() -> Telemetry {
        Telemetry::with_span_capacity(spans::DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled handle retaining at most `capacity` spans (oldest
    /// overwritten first).
    #[must_use]
    fn with_span_capacity(capacity: usize) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: Registry::default(),
                spans: SpanSink::new(capacity.max(1)),
            })),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-resolves) a counter series. Call once and keep
    /// the handle; the handle's `inc`/`add` are the hot path.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name, labels),
            None => Counter::default(),
        }
    }

    /// Registers (or re-resolves) a gauge series.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name, labels),
            None => Gauge::default(),
        }
    }

    /// Registers (or re-resolves) a histogram series.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name, labels),
            None => Histogram::default(),
        }
    }

    /// Nanoseconds since this handle's epoch (0 when disabled — only
    /// meaningful paired with [`Telemetry::record_span`]).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => u64::try_from(inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        }
    }

    /// Opens a span closed (and recorded) when the returned guard
    /// drops. Disabled handles return an inert guard without reading
    /// the clock.
    #[must_use]
    pub fn span(
        &self,
        cat: &'static str,
        name: &'static str,
        round: u64,
        chunk: Option<u16>,
    ) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard {
                inner: Some(Arc::clone(inner)),
                cat,
                name,
                round,
                chunk,
                start_ns: u64::try_from(inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            },
            None => SpanGuard {
                inner: None,
                cat,
                name,
                round,
                chunk,
                start_ns: 0,
            },
        }
    }

    /// Records an already-timed span (for phases whose start predates
    /// the scope that ends them, e.g. a peer parked across rounds).
    /// Timestamps are [`Telemetry::now_ns`] values.
    pub fn record_span(
        &self,
        cat: &'static str,
        name: &'static str,
        round: u64,
        chunk: Option<u16>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if let Some(inner) = &self.inner {
            inner
                .spans
                .record(cat, name, round, chunk, start_ns, end_ns);
        }
    }

    /// Total spans recorded so far, including overwritten ones (0 when
    /// disabled).
    #[must_use]
    pub fn spans_recorded(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.spans.recorded())
    }

    /// The retained spans, oldest first (empty when disabled).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.spans.collect())
    }

    /// The registry as a Prometheus text-format page. Disabled handles
    /// render an explanatory comment so a scrape never looks broken.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        match &self.inner {
            Some(inner) => inner.registry.render(),
            None => "# telemetry disabled\n".to_string(),
        }
    }

    /// Point-in-time numeric snapshot of every series, or `None` when
    /// disabled. Subtract two with [`MetricsSnapshot::delta`] for
    /// per-round views.
    #[must_use]
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }

    /// The retained span timeline as Chrome-tracing JSON (empty but
    /// well-formed when disabled).
    #[must_use]
    pub fn export_chrome_trace(&self) -> String {
        match &self.inner {
            Some(inner) => inner.spans.export_chrome_trace(),
            None => "{\"traceEvents\":[]}".to_string(),
        }
    }
}

/// Closes its span on drop. Hold it for the duration of the phase:
///
/// ```
/// # let telemetry = dordis_telemetry::Telemetry::enabled();
/// {
///     let _span = telemetry.span("stage", "Setup", 0, None);
///     // ... run the stage ...
/// } // recorded here
/// assert_eq!(telemetry.spans_recorded(), 1);
/// ```
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    cat: &'static str,
    name: &'static str,
    round: u64,
    chunk: Option<u16>,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            let end_ns = u64::try_from(inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            inner.spans.record(
                self.cat,
                self.name,
                self.round,
                self.chunk,
                self.start_ns,
                end_ns,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("c_total", &[]).inc();
        t.gauge("g", &[]).set(5);
        t.histogram("h", &[]).observe(9);
        {
            let _s = t.span("cat", "name", 0, None);
        }
        assert_eq!(t.spans_recorded(), 0);
        assert_eq!(t.now_ns(), 0);
        assert!(t.snapshot().is_none());
        assert_eq!(t.render_prometheus(), "# telemetry disabled\n");
        assert_eq!(t.export_chrome_trace(), "{\"traceEvents\":[]}");
    }

    #[test]
    fn enabled_records_spans_and_metrics() {
        let t = Telemetry::enabled();
        assert!(t.is_enabled());
        let c = t.counter("polls_total", &[]);
        c.add(4);
        {
            let _s = t.span("stage", "Setup", 7, None);
        }
        {
            let _s = t.span("chunk", "chunk", 7, Some(1));
        }
        assert_eq!(t.spans_recorded(), 2);
        let page = t.render_prometheus();
        assert!(page.contains("polls_total 4\n"), "{page}");
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.get("polls_total"), 4);
        let json = t.export_chrome_trace();
        assert!(json.contains("\"name\":\"Setup\""), "{json}");
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.counter("shared_total", &[]).inc();
        assert_eq!(t2.snapshot().expect("enabled").get("shared_total"), 1);
    }

    #[test]
    fn record_span_is_manual_entry() {
        let t = Telemetry::enabled();
        let start = t.now_ns();
        let end = t.now_ns().max(start + 1);
        t.record_span("session", "park", 2, None, start, end);
        assert_eq!(t.spans_recorded(), 1);
    }
}
