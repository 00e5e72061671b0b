//! Benchmark-side span tracing. Spans are recorded in this crate around
//! each public simulator call (the simulator itself is never asked to
//! time anything), and per-layer host times are derived from them as
//! *self* time: a span's duration minus the part covered by its children.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pcie.drain`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to (`u32::MAX` outside the timed loop).
    pub op: u32,
    /// Simulation events executed inside the span (0 where not counted).
    pub events: u64,
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of the events counted inside the spans.
    pub events: u64,
}

/// Records spans while enabled; every call is a no-op while disabled, so
/// the plain (untraced) run pays one branch per public call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

/// Handle of an open span (`None` while tracing is disabled).
#[must_use]
pub struct Open(Option<usize>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: u32::MAX,
        }
    }
}

impl Tracer {
    /// Turns recording on or off (open spans are unaffected).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags subsequent spans with `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            events: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, recording `events` simulation events inside it.
    pub fn exit(&mut self, open: Open, events: u64) {
        let Some(idx) = open.0 else {
            return;
        };
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost-first");
        let s = &mut self.spans[idx];
        s.end = now;
        s.events = events;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open, 0);
        r
    }

    /// Recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every recorded span (open spans must all be closed).
    pub fn clear(&mut self) {
        debug_assert!(self.stack.is_empty());
        self.spans.clear();
    }

    /// Per-name totals of the recorded spans.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent. Children may
/// overlap each other (spans taken on several threads, or recorded with
/// coarse clocks); the union keeps overlapping time from being subtracted
/// twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end.saturating_sub(s.start);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Per-name totals of `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end.saturating_sub(s.start);
        t.self_ns += self_ns;
        t.events += s.events;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
            events: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("c", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40) and [30,60) overlap by 10: the union is 50.
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            // Fully inside `a`: adds nothing to the union.
            span("c", 15, 25, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("op", 10, 50, None), span("late", 40, 80, Some(0))];
        assert_eq!(self_times(&spans)[0], 30);
        let spans = vec![span("op", 10, 50, None), span("all", 0, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("op", 0, 100, None),
            span("x", 0, 10, Some(0)),
            span("op", 100, 150, None),
            span("x", 100, 140, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["op"].total_ns, 150);
        assert_eq!(t["op"].self_ns, 100);
        assert_eq!(t["x"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_and_is_inert_when_disabled() {
        let mut tr = Tracer::default();
        tr.scope("off", || ());
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        tr.set_op(7);
        let outer = tr.enter("outer");
        tr.scope("inner", || ());
        tr.exit(outer, 3);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].events), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent, s[1].op), ("inner", Some(0), 7));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
