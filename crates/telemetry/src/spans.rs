//! The span timeline: fixed-capacity ring of closed spans, per-thread
//! track ids, and the Chrome-tracing JSON exporter.
//!
//! Recording a span is one short mutex hold over a pre-allocated ring —
//! the coordinator closes at most a few spans per (round, stage, chunk)
//! boundary, so contention is nil and nothing allocates on the hot path
//! (track names are interned once per thread). When the ring fills, the
//! oldest spans are overwritten: the exported timeline always shows the
//! most recent window.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Default ring capacity (spans retained for export).
pub(crate) const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Process-wide track-id allocator: each OS thread that records a span
/// gets a stable small integer used as the Chrome-tracing `tid`.
static NEXT_TRACK: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TRACK_ID: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Category (`"stage"`, `"chunk"`, `"compute"`, `"session"`).
    pub cat: &'static str,
    /// Event name (stage name, `"unmask_chunk"`, `"join"` ...).
    pub name: &'static str,
    /// Session round the span belongs to.
    pub round: u64,
    /// Chunk id, when the span is chunk-scoped.
    pub chunk: Option<u16>,
    /// Start offset from the telemetry epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the telemetry epoch, nanoseconds.
    pub end_ns: u64,
    /// Track (thread) id the span was recorded on.
    pub track: u32,
}

#[derive(Debug, Default)]
struct Ring {
    /// Overwrite-oldest storage: `slots[next % capacity]`.
    slots: Vec<SpanRecord>,
    next: usize,
    /// Track id → thread name, captured at first span per thread.
    tracks: BTreeMap<u32, String>,
}

/// Where closed spans land. Shared by every instrumented layer through
/// the enabled `Telemetry` handle.
#[derive(Debug)]
pub(crate) struct SpanSink {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl SpanSink {
    pub(crate) fn new(capacity: usize) -> Self {
        SpanSink {
            capacity,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Stable per-thread track id, allocating (and naming the track)
    /// on this thread's first span.
    fn track_id(&self, ring: &mut Ring) -> u32 {
        TRACK_ID.with(|slot| {
            let mut id = slot.get();
            if id == u32::MAX {
                id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
                slot.set(id);
            }
            ring.tracks.entry(id).or_insert_with(|| {
                std::thread::current()
                    .name()
                    .unwrap_or("unnamed")
                    .to_string()
            });
            id
        })
    }

    pub(crate) fn record(
        &self,
        cat: &'static str,
        name: &'static str,
        round: u64,
        chunk: Option<u16>,
        start_ns: u64,
        end_ns: u64,
    ) {
        let mut ring = self.ring.lock().expect("span ring poisoned");
        let track = self.track_id(&mut ring);
        let rec = SpanRecord {
            cat,
            name,
            round,
            chunk,
            start_ns,
            end_ns,
            track,
        };
        if ring.slots.len() < self.capacity {
            ring.slots.push(rec);
        } else {
            let idx = ring.next % self.capacity;
            ring.slots[idx] = rec;
        }
        ring.next += 1;
    }

    /// Number of spans recorded so far (including overwritten ones).
    pub(crate) fn recorded(&self) -> usize {
        self.ring.lock().expect("span ring poisoned").next
    }

    /// Spans currently retained, oldest first.
    pub(crate) fn collect(&self) -> Vec<SpanRecord> {
        let ring = self.ring.lock().expect("span ring poisoned");
        if ring.slots.len() < self.capacity {
            ring.slots.clone()
        } else {
            let split = ring.next % self.capacity;
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&ring.slots[split..]);
            out.extend_from_slice(&ring.slots[..split]);
            out
        }
    }

    /// Chrome-tracing ("trace event format") JSON of the retained
    /// spans — load in Perfetto or `chrome://tracing`. Complete `ph:X`
    /// events on per-thread tracks, with `ph:M` metadata naming them.
    pub(crate) fn export_chrome_trace(&self) -> String {
        let ring = self.ring.lock().expect("span ring poisoned");
        let spans: Vec<&SpanRecord> = if ring.slots.len() < self.capacity {
            ring.slots.iter().collect()
        } else {
            let split = ring.next % self.capacity;
            ring.slots[split..]
                .iter()
                .chain(&ring.slots[..split])
                .collect()
        };
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (tid, name) in &ring.tracks {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            ));
        }
        for s in spans {
            if !first {
                out.push(',');
            }
            first = false;
            let ts_us = s.start_ns / 1_000;
            let dur_us = (s.end_ns.saturating_sub(s.start_ns)).max(1_000) / 1_000;
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\
                 \"ts\":{ts_us},\"dur\":{dur_us},\"args\":{{\"round\":{}",
                s.track,
                escape_json(s.cat),
                escape_json(s.name),
                s.round
            ));
            if let Some(c) = s.chunk {
                out.push_str(&format!(",\"chunk\":{c}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let sink = SpanSink::new(4);
        for i in 0..6u64 {
            sink.record("t", "s", i, None, i * 10, i * 10 + 5);
        }
        let spans = sink.collect();
        assert_eq!(spans.len(), 4);
        // Oldest two (rounds 0, 1) were overwritten.
        assert_eq!(spans[0].round, 2);
        assert_eq!(spans[3].round, 5);
        assert_eq!(sink.recorded(), 6);
    }

    #[test]
    fn chrome_trace_shape() {
        let sink = SpanSink::new(16);
        sink.record("stage", "Setup", 3, None, 1_000_000, 2_000_000);
        sink.record("chunk", "chunk", 3, Some(2), 2_000_000, 3_500_000);
        let json = sink.export_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"M\""), "{json}");
        assert!(json.contains("\"name\":\"Setup\""), "{json}");
        assert!(json.contains("\"chunk\":2"), "{json}");
        assert!(json.contains("\"ts\":1000"), "{json}");
    }

    #[test]
    fn sub_microsecond_spans_get_min_duration() {
        let sink = SpanSink::new(4);
        sink.record("t", "tiny", 0, None, 100, 200);
        let json = sink.export_chrome_trace();
        // 100ns would floor to dur 0 and vanish in Perfetto; clamp up.
        assert!(json.contains("\"dur\":1,"), "{json}");
    }
}
