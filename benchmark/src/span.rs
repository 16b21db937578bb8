//! Spans of the traced run, recorded from the benchmark's own files around
//! the calls into each layer, kept in memory and written out at the end.
//!
//! The traced run walks a *ladder*: the same session goes through
//! successively taller stacks, one pass each. A span is one rung handling
//! one batch of the session (`request` is the index of the batch's first
//! line). Its `parent` is the span of the next-taller rung for the same
//! batch — the span that caused it: what the lower rung does for a batch is
//! what the taller rung does inside its own handling of that batch. Because
//! each rung is measured in its own pass, a child is re-based onto its
//! parent's start (siblings one after another); durations are as measured.
//! A rung's **self time** is its span minus the part of that interval its
//! children cover.

use std::fmt::Write as _;

/// Index of a span in its [`Spans`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    /// Where the next child of each span starts.
    cursor: Vec<u64>,
}

impl Spans {
    /// Records a root span.
    pub fn root(
        &mut self,
        name: &'static str,
        request: u64,
        start_ns: u64,
        duration_ns: u64,
    ) -> SpanId {
        self.push(Span {
            name,
            request,
            parent: None,
            start_ns,
            end_ns: start_ns + duration_ns,
        })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.cursor.push(span.start_ns);
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a child of `parent` lasting `duration_ns`, placed after the
    /// children `parent` already has.
    pub fn child(&mut self, parent: SpanId, name: &'static str, duration_ns: u64) -> SpanId {
        let start_ns = self.cursor[parent];
        self.cursor[parent] = start_ns + duration_ns;
        self.push(Span {
            name,
            request: self.spans[parent].request,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + duration_ns,
        })
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children count once,
    /// and a child reaching outside its parent counts only inside).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (
                    s.start_ns.max(self.spans[p].start_ns),
                    s.end_ns.min(self.spans[p].end_ns),
                );
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (lo, hi) in intervals {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_subtract_level_by_level() {
        let mut t = Spans::default();
        let top = t.root("bin", 0, 1_000, 100);
        let mid = t.child(top, "tcp", 70);
        let low = t.child(mid, "handle", 30);
        assert_eq!(t.self_ns(), vec![30, 40, 30]);
        assert_eq!(
            t.spans[low].start_ns, 1_000,
            "children are re-based onto the parent's start"
        );
    }

    #[test]
    fn adjacent_children_are_laid_end_to_end() {
        let mut t = Spans::default();
        let handle = t.root("handle", 32, 0, 100);
        let parse = t.child(handle, "parse", 25);
        let apply = t.child(handle, "apply", 40);
        assert_eq!((t.spans[parse].start_ns, t.spans[parse].end_ns), (0, 25));
        assert_eq!((t.spans[apply].start_ns, t.spans[apply].end_ns), (25, 65));
        assert_eq!(t.self_ns()[handle], 35);
        assert_eq!(t.spans[apply].request, 32);
    }

    #[test]
    fn zero_length_and_overlong_children() {
        let mut t = Spans::default();
        let a = t.root("a", 0, 10, 50);
        t.child(a, "nothing", 0);
        assert_eq!(t.self_ns()[a], 50, "a zero-length child covers nothing");
        // A child measured longer than its parent (noise between passes)
        // covers the parent entirely and no more.
        let b = t.root("b", 1, 100, 20);
        t.child(b, "slow", 35);
        assert_eq!(t.self_ns()[b], 0);
        // Overlapping children count once.
        let mut o = Spans::default();
        let p = o.root("p", 0, 0, 100);
        o.push(Span {
            name: "x",
            request: 0,
            parent: Some(p),
            start_ns: 10,
            end_ns: 60,
        });
        o.push(Span {
            name: "y",
            request: 0,
            parent: Some(p),
            start_ns: 40,
            end_ns: 80,
        });
        assert_eq!(o.self_ns()[p], 30);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Spans::default();
        let r = t.root("bin", 64, 5, 10);
        t.child(r, "tcp", 4);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .contains("\"name\":\"tcp\",\"request\":64,\"parent\":0,\"start_ns\":5,\"end_ns\":9"));
    }
}
