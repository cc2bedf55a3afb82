//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only from the benchmark's own code: around a
//! workload's library call and its rendering, around each probe loop, and
//! inside the timing decorators that wrap an application and a recovery
//! strategy. They stay in memory and are written out once the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran inside the span, as `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (simulated campaign unit or probe) the span belongs to.
    pub unit: u32,
    /// The attempt within the unit: the application call a span serves.
    pub attempt: u32,
}

impl Span {
    /// Wall-clock nanoseconds the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct State {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A span recorder; a disabled tracer runs every closure untouched.
#[derive(Debug)]
pub struct Tracer(Option<RefCell<State>>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Tracer {
        Tracer(Some(RefCell::new(State {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open.
    pub fn span<R>(&self, name: &'static str, unit: u32, attempt: u32, f: impl FnOnce() -> R) -> R {
        let Some(state) = &self.0 else {
            return f();
        };
        let index = {
            let mut s = state.borrow_mut();
            let start_ns = s.epoch.elapsed().as_nanos() as u64;
            let parent = s.open.last().copied();
            let index = s.spans.len();
            s.spans.push(Span { name, start_ns, end_ns: start_ns, parent, unit, attempt });
            s.open.push(index);
            index
        };
        let out = f();
        let mut s = state.borrow_mut();
        s.spans[index].end_ns = s.epoch.elapsed().as_nanos() as u64;
        s.open.pop();
        out
    }

    /// Runs `f` inside a span named `name` that shares the unit and
    /// attempt of the innermost open span (0 and 0 at top level).
    pub fn child<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (unit, attempt) = self.0.as_ref().map_or((0, 0), |state| {
            let s = state.borrow();
            s.open.last().map_or((0, 0), |&i| (s.spans[i].unit, s.spans[i].attempt))
        });
        self.span(name, unit, attempt, f)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |s| s.borrow().spans.clone())
    }
}

/// Calls, total time and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time their direct children cover.
    pub self_ns: u64,
}

/// Per-name totals over the spans `keep` selects out of `spans`, a whole
/// recording (parents are indices into it).
pub fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SpanTotals> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(children_ns).filter(|(span, _)| keep(span)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += span.duration_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::on();
        let answer =
            tracer.span("outer", 1, 7, || tracer.child("inner", || std::hint::black_box(6 * 7)));
        assert_eq!(answer, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].unit, spans[1].attempt), (1, 7), "a child shares its parent's ids");
        let t = totals(&spans, |_| true);
        assert_eq!(t["outer"].self_ns, spans[0].duration_ns() - spans[1].duration_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        assert_eq!(tracer.span("x", 0, 0, || 3), 3);
        assert!(tracer.spans().is_empty());
    }
}
