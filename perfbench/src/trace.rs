//! Spans recorded from the benchmark's own files around each call into a
//! crate's public API. Nothing inside the program is instrumented here;
//! the program's own counters and phase timers arrive separately through
//! `MetricsSink::snapshot()`.
//!
//! A disabled tracer runs the closure and records nothing, so the
//! untraced run pays one branch per call.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Offsets are seconds since the tracer started;
/// `parent` indexes the enclosing span, `None` for an outside span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `session.export`.
    pub name: &'static str,
    /// Start offset, seconds.
    pub start_s: f64,
    /// End offset, seconds.
    pub end_s: f64,
    /// The span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span recorder for one thread of the benchmark.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` (nested under any open span).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_s = self.origin.elapsed().as_secs_f64();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_s,
                end_s: start_s,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .collect()
    }

    /// Seconds covered by outside spans (those with no parent). Outside
    /// spans never overlap: the tracer is single-threaded.
    pub fn outside_s(&self) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Seconds since the tracer started.
    pub fn wall_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_link_parents_and_outside_time_excludes_gaps() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(Duration::from_millis(5)));
        });
        std::thread::sleep(Duration::from_millis(5));
        t.span("second", || std::thread::sleep(Duration::from_millis(2)));
        let spans = t.spans.borrow().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let outside = t.outside_s();
        assert!(outside >= 0.007 && outside < t.wall_s() - 0.004);
        assert_eq!(t.durations_s("inner").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 41 + 1), 42);
        assert!(t.durations_s("x").is_empty());
        assert_eq!(t.outside_s(), 0.0);
    }
}
