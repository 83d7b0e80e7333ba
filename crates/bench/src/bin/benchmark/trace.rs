//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Only the traced run (`--trace 1`) touches this module; the
//! untraced run times nothing but the user-level call.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one query share this.
    pub query_id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Tracers of several threads share `origin` so their spans line up.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query_id: u64) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            query_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent), self.spans[parent].query_id);
        let out = f();
        self.close(id);
        out
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// One JSON object per line: `name,start_ns,end_ns,parent,query_id`.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.query_id
            )?;
        }
        out.flush()
    }
}

/// Each span's duration minus the part of it its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("query", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            // Overlaps `parse` by 10 and sticks out of the parent by 20.
            span("run", 20, 120, Some(0)),
            span("task", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 20, 90, 10]);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let (mut a, mut b) = (Tracer::new(origin), Tracer::new(origin));
        let root = a.open("query", None, 1);
        a.close(root);
        let other = b.open("query", None, 2);
        b.child("fetch", other, || ());
        b.close(other);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].query_id, 2);
        assert!(a.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
