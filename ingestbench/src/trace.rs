//! Benchmark-side tracing: spans around the calls the benchmark makes into
//! the program's public functions. Nothing here reaches inside the program.
//!
//! Coarse calls (statements, phases, adaptor runs) are kept as individual
//! spans with a parent link; per-record calls (generator `send`, `len`
//! polls, `get`) are folded into per-name totals so a traced run keeps
//! memory flat. Both are held in memory and written once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

thread_local! {
    /// Spans open on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Count, total and maximum duration of one per-record call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    pub count: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl OpTotals {
    pub fn add(&mut self, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    fn merge(&mut self, o: &OpTotals) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.max_ns = self.max_ns.max(o.max_ns);
    }
}

/// A span between [`Tracer::enter`] and [`Tracer::exit`].
pub struct OpenSpan {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start: Instant,
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    ops: Mutex<BTreeMap<String, OpTotals>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicUsize::new(1),
            spans: Mutex::new(Vec::new()),
            ops: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; spans opened on this thread before it is exited become
    /// its children.
    pub fn enter(&self, name: &'static str) -> OpenSpan {
        let id = if self.enabled {
            // relaxed-ok: a unique id source, publishes nothing
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            if self.enabled {
                open.push(id);
            }
            parent
        });
        OpenSpan {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Close `span`, recording it; returns its duration.
    pub fn exit(&self, span: OpenSpan) -> Duration {
        let dur = span.start.elapsed();
        if !self.enabled {
            return dur;
        }
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == span.id) {
                open.truncate(pos);
            }
        });
        self.spans
            .lock()
            .expect("tracer span lock poisoned")
            .push(Span {
                id: span.id,
                parent: span.parent,
                name: span.name.to_string(),
                start_ns: span.start.saturating_duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
        dur
    }

    /// Run `f` inside a span named `name`.
    pub fn in_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Fold a thread's per-record totals into the tracer.
    pub fn merge_ops(&self, local: &BTreeMap<&'static str, OpTotals>) {
        if !self.enabled {
            return;
        }
        let mut ops = self.ops.lock().expect("tracer ops lock poisoned");
        for (name, t) in local {
            ops.entry((*name).to_string()).or_default().merge(t);
        }
    }

    /// Self time of every span name: duration minus the part covered by
    /// its direct children, summed per name.
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        let spans = self.spans.lock().expect("tracer span lock poisoned");
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns;
            }
        }
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for s in spans.iter() {
            let own = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.name.clone()).or_default() += own;
        }
        out
    }

    /// Render every span, the total and self time per span name, and every
    /// per-record total as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for s in self.spans.lock().expect("tracer span lock poisoned").iter() {
            *totals.entry(s.name.clone()).or_default() += s.dur_ns;
        }
        for (name, self_ns) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"total_ns\":{},\"self_ns\":{self_ns}}}",
                totals.get(&name).copied().unwrap_or(0)
            );
        }
        for s in self.spans.lock().expect("tracer span lock poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.dur_ns
            );
        }
        for (name, t) in self.ops.lock().expect("tracer ops lock poisoned").iter() {
            let _ = writeln!(
                out,
                "{{\"op\":\"{name}\",\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                t.count, t.total_ns, t.max_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        let root = t.enter("run");
        let child = t.enter("load");
        std::thread::sleep(Duration::from_millis(2));
        let child_ns = t.exit(child).as_nanos() as u64;
        let root_ns = t.exit(root).as_nanos() as u64;
        let spans = t.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 2);
        let load = spans.iter().find(|s| s.name == "load").unwrap();
        let run = spans.iter().find(|s| s.name == "run").unwrap();
        assert_eq!(load.parent, Some(run.id));
        assert_eq!(run.parent, None);
        let st = t.self_times();
        assert_eq!(st["load"], child_ns);
        assert_eq!(st["run"], root_ns - child_ns);
        // a span opened after both closed is a root again
        let next = t.enter("next");
        assert_eq!(next.parent, None);
        t.exit(next);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.in_span("x", || ());
        let mut local = BTreeMap::new();
        local.insert(
            "send",
            OpTotals {
                count: 1,
                total_ns: 5,
                max_ns: 5,
            },
        );
        t.merge_ops(&local);
        assert!(t.self_times().is_empty());
        assert!(t.to_jsonl().is_empty());
    }
}
