//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around each
//! call into a layer; the program under test is not instrumented. Each
//! span records its name, parent, start and end. A layer's self time is
//! its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Single-threaded span recorder. Spans nest strictly: `end` closes the
/// innermost open span.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("span end without a matching begin");
        self.spans[index].end_ns = end_ns;
    }

    /// Records an already-measured child of the innermost open span that
    /// ends now: the summed time of many short calls (such as trace
    /// fills) that would cost more to span one by one than they take.
    pub fn child_elapsed(&mut self, name: &'static str, duration_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: end_ns.saturating_sub(duration_ns),
            end_ns,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        assert!(self.open.is_empty(), "totals read with spans still open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            let duration = span.end_ns - span.start_ns;
            t.count += 1;
            t.total_ns += duration;
            t.self_ns += duration.saturating_sub(children);
        }
        out
    }

    /// Self time of `name` in nanoseconds (0 when it never ran).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.totals().get(name).map_or(0, |t| t.self_ns)
    }

    /// Writes the per-name totals to stderr at the end of the run.
    pub fn write_summary(&self, title: &str) {
        eprintln!("# spans: {title}");
        eprintln!(
            "# {:<24} {:>8} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in self.totals() {
            eprintln!(
                "# {:<24} {:>8} {:>14.3} {:>14.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}
