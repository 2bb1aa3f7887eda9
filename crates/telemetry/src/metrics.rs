//! Typed metrics: counters, gauges, log-bucketed histograms, and the
//! registry that renders them in Prometheus text exposition format.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap clonable
//! wrappers over `Arc`'d atomics, pre-resolved once at registration so
//! the hot path is a single relaxed atomic op — or, when telemetry is
//! disabled, a branch on `None` that the optimizer removes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 histogram buckets before the implicit `+Inf` bucket.
/// Upper bounds are `2^0, 2^1, ..., 2^(LOG_BUCKETS-1)`.
pub const LOG_BUCKETS: usize = 32;

/// A monotonically increasing counter. Cloning shares the cell;
/// a default-constructed (or disabled-registry) counter is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Increments by 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    #[cfg(test)]
    #[must_use]
    fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge: a value that can be set to arbitrary levels.
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Fixed-allocation storage behind a [`Histogram`] handle: one atomic
/// per log2 bucket plus running sum and count. Cumulative bucket counts
/// are computed only at render time, which makes the exposed
/// `_bucket{le=...}` series monotone by construction.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// `buckets[i]` counts observations with `value <= 2^i` that did
    /// not fit a smaller bucket (non-cumulative).
    buckets: [AtomicU64; LOG_BUCKETS],
    /// Observations above the largest finite bound (`+Inf` bucket).
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        // Bucket i has upper bound 2^i; find the smallest bound >= v.
        // v = 0 and v = 1 both land in bucket 0 (le = 1).
        let idx = if v <= 1 {
            0
        } else {
            64 - usize::try_from((v - 1).leading_zeros()).unwrap_or(64)
        };
        if idx < LOG_BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// (per-bucket counts, overflow, sum, count) snapshot.
    fn load(&self) -> ([u64; LOG_BUCKETS], u64, u64, u64) {
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        (
            buckets,
            self.overflow.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }
}

/// A log2-bucketed histogram handle. Observation is two relaxed atomic
/// adds plus a leading-zeros bucket pick; no allocation ever.
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.observe(v);
        }
    }

    /// Total observation count (0 when disabled).
    #[cfg(test)]
    #[must_use]
    fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }
}

/// What kind of cell a registered series holds.
#[derive(Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Series {
    /// Family name (`dordis_reactor_polls_total`).
    name: String,
    /// Rendered label block (`{stage="Setup"}`), or empty.
    labels: String,
    cell: Cell,
}

/// The series registry. Registration takes a lock and allocates;
/// the returned handles do not — register once, increment forever.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    /// Keyed by the canonical series id `name{labels}` so the same
    /// (name, labels) always resolves to the same cell.
    series: Mutex<BTreeMap<String, Series>>,
}

fn canonical_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    pub(crate) fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = canonical_labels(labels);
        let key = format!("{name}{labels}");
        let mut map = self.series.lock().expect("registry poisoned");
        if let Some(existing) = map.get(&key) {
            if let Cell::Counter(cell) = &existing.cell {
                return Counter(Some(Arc::clone(cell)));
            }
            // Kind mismatch: hand back a detached cell rather than
            // panicking in instrumentation code or corrupting the page.
            return Counter(Some(Arc::new(AtomicU64::new(0))));
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(
            key,
            Series {
                name: name.to_string(),
                labels,
                cell: Cell::Counter(Arc::clone(&cell)),
            },
        );
        Counter(Some(cell))
    }

    pub(crate) fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = canonical_labels(labels);
        let key = format!("{name}{labels}");
        let mut map = self.series.lock().expect("registry poisoned");
        if let Some(existing) = map.get(&key) {
            if let Cell::Gauge(cell) = &existing.cell {
                return Gauge(Some(Arc::clone(cell)));
            }
            return Gauge(Some(Arc::new(AtomicU64::new(0))));
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(
            key,
            Series {
                name: name.to_string(),
                labels,
                cell: Cell::Gauge(Arc::clone(&cell)),
            },
        );
        Gauge(Some(cell))
    }

    pub(crate) fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let labels = canonical_labels(labels);
        let key = format!("{name}{labels}");
        let mut map = self.series.lock().expect("registry poisoned");
        if let Some(existing) = map.get(&key) {
            if let Cell::Histogram(core) = &existing.cell {
                return Histogram(Some(Arc::clone(core)));
            }
            return Histogram(Some(Arc::new(HistogramCore::new())));
        }
        let core = Arc::new(HistogramCore::new());
        map.insert(
            key,
            Series {
                name: name.to_string(),
                labels,
                cell: Cell::Histogram(Arc::clone(&core)),
            },
        );
        Histogram(Some(core))
    }

    /// Renders the whole registry as a Prometheus text-format page.
    pub(crate) fn render(&self) -> String {
        let map = self.series.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut last_family = "";
        // BTreeMap order groups a family's label variants together, so
        // one `# TYPE` line per family is emitted at first sight.
        for series in map.values() {
            if series.name != last_family {
                let kind = match &series.cell {
                    Cell::Counter(_) => "counter",
                    Cell::Gauge(_) => "gauge",
                    Cell::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {kind}\n", series.name));
            }
            match &series.cell {
                Cell::Counter(c) | Cell::Gauge(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        series.name,
                        series.labels,
                        c.load(Ordering::Relaxed)
                    ));
                }
                Cell::Histogram(h) => {
                    let (buckets, overflow, sum, count) = h.load();
                    let mut cumulative = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cumulative += b;
                        let le = 1u64 << i;
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            series.name,
                            merge_label(&series.labels, &format!("le=\"{le}\"")),
                        ));
                    }
                    cumulative += overflow;
                    out.push_str(&format!(
                        "{}_bucket{} {cumulative}\n",
                        series.name,
                        merge_label(&series.labels, "le=\"+Inf\""),
                    ));
                    out.push_str(&format!("{}_sum{} {sum}\n", series.name, series.labels));
                    out.push_str(&format!("{}_count{} {count}\n", series.name, series.labels));
                }
            }
            last_family = &series.name;
        }
        out
    }

    /// Flat numeric snapshot of every series, for per-round deltas.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let map = self.series.lock().expect("registry poisoned");
        let mut series = BTreeMap::new();
        for (key, s) in map.iter() {
            match &s.cell {
                Cell::Counter(c) | Cell::Gauge(c) => {
                    series.insert(key.clone(), c.load(Ordering::Relaxed));
                }
                Cell::Histogram(h) => {
                    let (_, _, sum, count) = h.load();
                    series.insert(format!("{key}::count"), count);
                    series.insert(format!("{key}::sum"), sum);
                }
            }
        }
        MetricsSnapshot { series }
    }
}

/// Inserts an extra label into an already-rendered label block.
fn merge_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        // `{a="b"}` -> `{a="b",extra}`
        format!("{},{}}}", &labels[..labels.len() - 1], extra)
    }
}

/// A point-in-time numeric view of every registered series, keyed by
/// canonical series id. Histograms contribute `...::count` and
/// `...::sum` entries. Supports saturating subtraction for per-round
/// deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Canonical series id → value.
    pub series: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Value for a series id (0 if absent).
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.series.get(key).copied().unwrap_or(0)
    }

    /// Per-key saturating difference `self - base`. Keys absent from
    /// `base` (registered mid-interval) pass through unchanged.
    #[must_use]
    pub fn delta(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        let series = self
            .series
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(base.get(k))))
            .collect();
        MetricsSnapshot { series }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let c = Counter::default();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(7);
        assert_eq!(g.get(), 0);
        let h = Histogram::default();
        h.observe(123);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn same_series_shares_cell() {
        let r = Registry::default();
        let a = r.counter("x_total", &[("k", "v")]);
        let b = r.counter("x_total", &[("k", "v")]);
        a.add(3);
        assert_eq!(b.get(), 3);
        // Label order does not matter for identity.
        let c = r.counter("y_total", &[("a", "1"), ("b", "2")]);
        let d = r.counter("y_total", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(d.get(), 1);
    }

    #[test]
    fn kind_mismatch_detaches() {
        let r = Registry::default();
        let c = r.counter("clash", &[]);
        let g = r.gauge("clash", &[]);
        c.add(5);
        g.set(9);
        // The page still renders the original counter only.
        let page = r.render();
        assert!(page.contains("clash 5\n"), "page:\n{page}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let r = Registry::default();
        let h = r.histogram("lat_ns", &[]);
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            h.observe(v);
        }
        let page = r.render();
        let mut prev = 0u64;
        let mut inf = None;
        for line in page.lines() {
            if let Some(rest) = line.strip_prefix("lat_ns_bucket{le=") {
                let val: u64 = rest.split(' ').nth(1).expect("value").parse().expect("u64");
                assert!(val >= prev, "non-monotone bucket in:\n{page}");
                prev = val;
                if rest.starts_with("\"+Inf\"") {
                    inf = Some(val);
                }
            }
        }
        assert_eq!(inf, Some(6), "+Inf bucket must equal count");
        assert!(page.contains("lat_ns_count 6\n"));
    }

    #[test]
    fn snapshot_delta_saturates() {
        let r = Registry::default();
        let c = r.counter("n_total", &[]);
        c.add(5);
        let base = r.snapshot();
        c.add(2);
        let now = r.snapshot();
        assert_eq!(now.delta(&base).get("n_total"), 2);
        // A snapshot from "the future" saturates to zero.
        assert_eq!(base.delta(&now).get("n_total"), 0);
    }
}
