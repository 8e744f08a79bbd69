//! In-memory spans recorded by the benchmark around its calls into the
//! checker. One root span per rep, one child per call; children that a
//! call's *report* describes (stage busy times) are synthesized from the
//! report after the call returns and flagged as such. The spans are written
//! as a Chrome trace-event file when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub rep: u32,
    /// Laid out from a report's durations, not timed around a call.
    pub synthesized: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, rep: u32) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, rep, synthesized: false });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Lay `parts` out back to back as synthesized children of `parent`,
    /// starting at `offset` from the parent's start (or ending at the
    /// parent's end when `offset` is `None`). Busy times summed over worker
    /// threads may run past the parent's end; self time clips them.
    pub fn synthesize(
        &mut self,
        parent: SpanId,
        offset: Option<Duration>,
        parts: &[(&'static str, Duration)],
    ) {
        let total: u64 = parts.iter().map(|&(_, d)| d.as_nanos() as u64).sum();
        let p = &self.spans[parent];
        let rep = p.rep;
        let mut at = match offset {
            Some(d) => p.start_ns + d.as_nanos() as u64,
            None => p.end_ns.saturating_sub(total).max(p.start_ns),
        };
        for &(name, d) in parts {
            let end = at + d.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                rep,
                synthesized: true,
            });
            at = end;
        }
    }

    /// A span's duration minus the part of its interval its children cover.
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|&(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        s.duration_ns() - covered
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns()).sum::<u64>() as f64
            / 1e9
    }

    /// Summed self time, in seconds, of every span called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time_ns(i))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): complete
    /// (`"X"`) events in microseconds, one track per rep.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"synthesized\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.rep,
                s.start_ns,
                s.end_ns,
                s.synthesized,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, rep: 0, synthesized: false }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let mut t = Trace::new();
        t.spans = vec![
            span(100, 200, None),    // 0: the parent
            span(110, 130, Some(0)), // plain child: 20
            span(120, 150, Some(0)), // overlaps the previous: adds 20
            span(90, 105, Some(0)),  // starts before the parent: 5 inside
            span(190, 260, Some(0)), // busy time past the parent's end: 10 inside
            span(300, 400, Some(0)), // entirely outside: nothing
            span(125, 128, Some(1)), // grandchild: does not count against 0
        ];
        assert_eq!(t.self_time_ns(0), 100 - (20 + 20 + 5 + 10));
        assert_eq!(t.self_time_ns(1), 20 - 3);
        assert_eq!(t.self_time_ns(6), 3);
    }

    #[test]
    fn children_covering_the_parent_leave_no_self_time() {
        let mut t = Trace::new();
        t.spans = vec![span(0, 50, None), span(0, 30, Some(0)), span(30, 80, Some(0))];
        assert_eq!(t.self_time_ns(0), 0);
    }

    #[test]
    fn synthesized_children_are_laid_out_back_to_back() {
        let mut t = Trace::new();
        t.spans = vec![span(1_000, 2_000, None)];
        let us = Duration::from_nanos;
        t.synthesize(0, Some(us(100)), &[("a", us(200)), ("b", us(300))]);
        assert_eq!((t.spans[1].start_ns, t.spans[1].end_ns), (1_100, 1_300));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (1_300, 1_600));
        assert!(t.spans[1].synthesized && t.spans[2].parent == Some(0));
        assert_eq!(t.self_time_ns(0), 500);
        // Anchored at the parent's end instead.
        t.synthesize(0, None, &[("c", us(50))]);
        assert_eq!((t.spans[3].start_ns, t.spans[3].end_ns), (1_950, 2_000));
        assert!(t.to_chrome_json().contains("\"name\":\"c\""));
    }
}
