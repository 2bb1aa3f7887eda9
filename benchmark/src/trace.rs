//! In-memory span recorder for the traced run.
//!
//! Spans are recorded here, in the benchmark's own files, around the
//! calls into each layer's public functions; nothing inside the program
//! is instrumented. A span is (name, start, end, parent, round). A
//! layer's *self time* is its span's duration minus the part its child
//! spans cover; summing self times by name attributes the stepper's
//! wall time to layers, and what the root spans keep for themselves is
//! the unattributed residual.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// Name of the per-round root span; its self time is the residual.
pub const ROOT: &str = "round";

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`crate.module.call`), or [`ROOT`].
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Round id shared by every span of one round.
    pub round: u64,
}

/// Records spans on one thread; kept in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Sets the round id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Runs `work` inside a span called `name`, child of whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(idx);
        let out = work(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Adds `n` to the counter `name` (work done, counted where it
    /// happens).
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total of the counter `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Self time per span name, in seconds, summed over all spans.
    #[must_use]
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        by_name
    }

    /// Wall seconds covered by the root spans.
    #[must_use]
    pub fn root_wall_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The trace as JSON: spans in opening order plus the counters.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                    ),
                    ("round".into(), Value::UInt(s.round)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|(k, v)| ((*k).to_string(), Value::UInt(*v)))
            .collect();
        Value::Object(vec![
            ("spans".into(), Value::Array(spans)),
            ("counts".into(), Value::Object(counts)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span(ROOT, |rec| {
            rec.span("a", |rec| {
                rec.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
        });
        let own = rec.self_seconds();
        assert!(own["b"] >= 0.005);
        assert!(own["a"] < 0.004, "a's self time must not include b");
        let total: f64 = own.values().sum();
        assert!((total - rec.root_wall_seconds()).abs() < 1e-9);
        assert_eq!(rec.spans()[2].parent, Some(1));
    }
}
