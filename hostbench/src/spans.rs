//! Benchmark-side spans around calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! made), the span that encloses it, and the request (benchmark cell) it
//! belongs to. Spans stay in memory; the benchmark summarises them when
//! it ends. A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.try_run`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The cell (request) the span belongs to; spans of one cell share it.
    pub request: u32,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a range of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub ns: u64,
    /// Summed self time (duration minus the time child spans cover).
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            request,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span; spans close innermost first.
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, request);
        let out = f();
        self.end(s);
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::totals`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of the spans recorded from index `from` on.
    pub fn totals(&self, from: usize) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.ns += s.ns();
            t.self_ns += s.ns().saturating_sub(child_ns[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.time("x", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let totals = t.totals(0);
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(o.ns >= i.ns);
        assert_eq!(o.self_ns, o.ns - i.ns);
        assert_eq!(i.self_ns, i.ns);
    }
}
