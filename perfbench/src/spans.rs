//! In-memory span recording for the traced run.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. They stay in memory until the run ends and are then
//! written out as JSON lines. A disabled log records nothing, so the
//! untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// What the span worked on: an experiment id, a workload, a
    /// request id. Spans of one request share it.
    pub key: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span log owned by one thread; logs of several threads are merged
/// with [`SpanLog::absorb`].
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, origin: Instant) -> SpanLog {
        SpanLog {
            enabled,
            origin,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// A log for another thread: same clock origin, ids in a disjoint
    /// range so merged logs keep unique ids.
    pub fn fork(&self, lane: u64) -> SpanLog {
        SpanLog {
            enabled: self.enabled,
            origin: self.origin,
            next_id: (lane + 1) << 40,
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id so
    /// it can parent child spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        key: impl Into<String>,
        parent: Option<u64>,
        f: impl FnOnce(&mut SpanLog, Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        let result = f(self, Some(id));
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            key: key.into(),
            start_ns,
            end_ns,
        });
        result
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span, ordered by start, as one JSON object a line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"key\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.key, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
