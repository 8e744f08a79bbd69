//! Span tracer: RAII guards recording a well-nested span tree with monotonic
//! timestamps, small-integer thread ids, and key/value attributes.
//!
//! A [`Tracer`] is either *enabled* (shared event sink behind an `Arc`) or
//! *disabled* (`None` — the common production case). Every span reads the
//! clock once when it opens, enabled or not, so [`SpanGuard::finish`] can
//! return its duration: that duration is the one source of the pipeline's
//! stage timings. A disabled span costs that clock read (about 33 ns on a
//! 2-vCPU Intel Xeon VM) and a branch — no allocation, no lock; a finished
//! one a second read. What an *enabled* tracer costs is the benchmark's
//! `trace.overhead_share` row. An enabled tracer stamps a span's begin and
//! end events from the same two readings, so a trace and a report never
//! disagree about a span.
//!
//! Span names are `&'static str` by convention (`check`, `axioms`,
//! `construct`, `prune`, `encode`, `solve`, `shard`, `checkpoint`,
//! `component`, `compact`, `sat.solve`, ...); attributes carry the variable
//! parts (component tags, sequence numbers, counts).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Attribute value for spans and instant events.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::I64(i64::from(v))
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Key/value attributes attached to a span or instant event.
pub type Attrs = Vec<(&'static str, AttrValue)>;

/// Build an [`Attrs`] list: `kv! { component: 3, tag: name.clone() }`.
/// Keys become `&'static str` via `stringify!`; values go through
/// `Into<AttrValue>`.
#[macro_export]
macro_rules! kv {
    () => { $crate::span::Attrs::new() };
    ( $( $key:ident : $value:expr ),+ $(,)? ) => {
        vec![ $( (stringify!($key), $crate::span::AttrValue::from($value)) ),+ ]
    };
}

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanPhase {
    Begin,
    End,
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    pub phase: SpanPhase,
    pub name: &'static str,
    /// Microseconds since the tracer's origin (monotonic clock).
    pub ts_us: u64,
    /// Small per-process thread id (registration order, not OS tid).
    pub tid: u32,
    pub attrs: Attrs,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Small dense id for the current thread, assigned on first use.
/// Also used by the metrics registry to pick a counter stripe.
pub fn current_tid() -> u32 {
    TID.with(|t| *t)
}

#[derive(Debug)]
struct TraceInner {
    origin: Instant,
    events: Mutex<Vec<SpanEvent>>,
}

/// Handle to a trace sink; cheap to clone, `None` inside when disabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceInner>>,
}

impl Tracer {
    /// A tracer that records events.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TraceInner {
                origin: Instant::now(),
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op tracer (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn record(
        inner: &Arc<TraceInner>,
        phase: SpanPhase,
        name: &'static str,
        attrs: Attrs,
        at: Instant,
    ) {
        let ts_us = at.saturating_duration_since(inner.origin).as_micros() as u64;
        let ev = SpanEvent { phase, name, ts_us, tid: current_tid(), attrs };
        inner.events.lock().unwrap().push(ev);
    }

    /// Open a span; it closes when the returned guard drops.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_kv(name, Attrs::new())
    }

    /// Open a span with attributes on the begin event.
    #[inline]
    pub fn span_kv(&self, name: &'static str, attrs: Attrs) -> SpanGuard {
        let start = Instant::now();
        let inner = self.inner.as_ref().map(|inner| {
            Self::record(inner, SpanPhase::Begin, name, attrs, start);
            Arc::clone(inner)
        });
        SpanGuard { start, inner, name, end_attrs: Attrs::new() }
    }

    /// Record a zero-duration instant event (faults, seals, milestones).
    #[inline]
    pub fn instant(&self, name: &'static str, attrs: Attrs) {
        if let Some(inner) = &self.inner {
            Self::record(inner, SpanPhase::Instant, name, attrs, Instant::now());
        }
    }

    /// Snapshot of all recorded events, in recording order.
    pub fn events(&self) -> Vec<SpanEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.events.lock().unwrap().clone(),
        }
    }
}

/// RAII span guard; records the matching end event on drop, or on
/// [`SpanGuard::finish`], which also says how long the span was open.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// When the span opened (read whether or not the tracer is enabled).
    start: Instant,
    inner: Option<Arc<TraceInner>>,
    name: &'static str,
    end_attrs: Attrs,
}

impl SpanGuard {
    /// Attach an attribute to the span's *end* event — for quantities only
    /// known once the work is done (counts, verdicts).
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.inner.is_some() {
            self.end_attrs.push((key, value.into()));
        }
    }

    /// Close the span and return how long it was open: the time between
    /// the two clock readings an enabled tracer stamps on its events.
    pub fn finish(mut self) -> Duration {
        let end = Instant::now();
        self.end(end);
        end.duration_since(self.start)
    }

    /// Record the end event (once), stamped `at`.
    fn end(&mut self, at: Instant) {
        if let Some(inner) = self.inner.take() {
            let attrs = std::mem::take(&mut self.end_attrs);
            Tracer::record(&inner, SpanPhase::End, self.name, attrs, at);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.inner.is_some() {
            self.end(Instant::now());
        }
    }
}

/// A reconstructed span with its children, from [`span_forest`].
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub name: &'static str,
    pub tid: u32,
    pub start_us: u64,
    pub end_us: u64,
    pub attrs: Attrs,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Rebuild the per-thread span forest from an event log, verifying
/// well-nestedness: every end event must match the innermost open span on
/// its thread, and no span may be left open. Instant events are ignored.
pub fn span_forest(events: &[SpanEvent]) -> Result<Vec<SpanNode>, String> {
    use std::collections::BTreeMap;
    // Per-tid stack of open spans; completed roots collected in order.
    let mut stacks: BTreeMap<u32, Vec<SpanNode>> = BTreeMap::new();
    let mut roots: Vec<SpanNode> = Vec::new();
    for ev in events {
        match ev.phase {
            SpanPhase::Instant => {}
            SpanPhase::Begin => {
                stacks.entry(ev.tid).or_default().push(SpanNode {
                    name: ev.name,
                    tid: ev.tid,
                    start_us: ev.ts_us,
                    end_us: ev.ts_us,
                    attrs: ev.attrs.clone(),
                    children: Vec::new(),
                });
            }
            SpanPhase::End => {
                let stack = stacks.entry(ev.tid).or_default();
                let mut node = stack.pop().ok_or_else(|| {
                    format!("end of {:?} on tid {} with no open span", ev.name, ev.tid)
                })?;
                if node.name != ev.name {
                    return Err(format!(
                        "end of {:?} on tid {} but innermost open span is {:?}",
                        ev.name, ev.tid, node.name
                    ));
                }
                node.end_us = ev.ts_us;
                node.attrs.extend(ev.attrs.iter().cloned());
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => roots.push(node),
                }
            }
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span {:?} left open on tid {tid}", open.name));
        }
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut g = t.span_kv("a", kv! { n: 1_u64 });
            g.attr("m", 2_u64);
            t.instant("i", kv! {});
        }
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn nested_spans_form_a_tree() {
        let t = Tracer::enabled();
        {
            let _root = t.span_kv("check", kv! { txns: 10_usize });
            {
                let _a = t.span("construct");
            }
            {
                let mut b = t.span("prune");
                b.attr("iters", 3_u64);
            }
        }
        let forest = span_forest(&t.events()).expect("well nested");
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.name, "check");
        assert_eq!(root.attrs, vec![("txns", AttrValue::U64(10))]);
        let names: Vec<_> = root.children.iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["construct", "prune"]);
        assert_eq!(root.children[1].attrs, vec![("iters", AttrValue::U64(3))]);
        assert!(root.start_us <= root.children[0].start_us);
        assert!(root.children[1].end_us <= root.end_us);
    }

    #[test]
    fn spans_across_threads_keep_per_thread_nesting() {
        let t = Tracer::enabled();
        {
            let _root = t.span("parent");
            std::thread::scope(|s| {
                for i in 0..4 {
                    let t = t.clone();
                    s.spawn(move || {
                        let _w = t.span_kv("worker", kv! { idx: i as u64 });
                        let _inner = t.span("unit");
                    });
                }
            });
        }
        let forest = span_forest(&t.events()).expect("well nested");
        // Root on the spawning thread + one "worker" root per worker thread.
        assert_eq!(forest.len(), 5);
        let workers: Vec<_> = forest.iter().filter(|n| n.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        for w in workers {
            assert_eq!(w.children.len(), 1);
            assert_eq!(w.children[0].name, "unit");
        }
    }

    /// A finished span reports the length its events show, to within the
    /// microsecond the timestamps are truncated to; a disabled tracer still
    /// measures.
    #[test]
    fn finish_returns_the_duration_the_events_stamp() {
        for t in [Tracer::enabled(), Tracer::disabled()] {
            let span = t.span("work");
            std::thread::sleep(Duration::from_millis(2));
            let took = span.finish();
            assert!(took >= Duration::from_millis(2), "{took:?}");
            if t.is_enabled() {
                let forest = span_forest(&t.events()).expect("well nested");
                let traced = forest[0].duration_us();
                assert!(traced.abs_diff(took.as_micros() as u64) <= 1, "{traced} vs {took:?}");
            }
        }
    }

    #[test]
    fn mismatched_end_is_detected() {
        let events = vec![
            SpanEvent { phase: SpanPhase::Begin, name: "a", ts_us: 0, tid: 0, attrs: vec![] },
            SpanEvent { phase: SpanPhase::Begin, name: "b", ts_us: 1, tid: 0, attrs: vec![] },
            SpanEvent { phase: SpanPhase::End, name: "a", ts_us: 2, tid: 0, attrs: vec![] },
        ];
        assert!(span_forest(&events).is_err());
    }
}
