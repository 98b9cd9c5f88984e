//! Spans recorded by the harness around its calls into each layer, kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that caused it
/// (`None` for a window, the root of each request group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans while `on`; a tracer that is off records nothing, so the
/// untraced run pays one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its id (0 when tracing is off).
    pub fn record(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the
    /// durations of its direct children. Per root span the self times of
    /// its tree therefore sum to the root's duration.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - child_ns[s.id as usize];
        }
        out
    }

    /// Writes one JSON object per line: `{id, parent, name, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_sum_to_the_window() {
        let mut t = Tracer::new(true);
        let t0 = t.origin;
        let at = |us: u64| t0 + Duration::from_micros(us);
        // window 0..100 µs: send 0..10, await 30..100; 20 µs is the window's own.
        let w = t.record(None, "window", at(0), at(100));
        t.record(Some(w), "client.send", at(0), at(10));
        t.record(Some(w), "client.await", at(30), at(100));
        let w2 = t.record(None, "window", at(100), at(150));
        t.record(Some(w2), "client.send", at(100), at(105));
        let st = t.self_times();
        assert_eq!(st["window"], 20_000 + 45_000);
        assert_eq!(st["client.send"], 15_000);
        assert_eq!(st["client.await"], 70_000);
        assert_eq!(
            st.values().sum::<u64>(),
            150_000,
            "self times sum to the windows' durations"
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.parent.is_some() || s.name == "window"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record(None, "window", now, now), 0);
        assert!(t.spans().is_empty());
    }
}
