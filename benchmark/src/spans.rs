//! Benchmark-side spans: recorded in memory around calls into each
//! crate's public API, written to `trace-<workload>.jsonl` at exit.
//!
//! A span is `{id, parent, op_id, name, start_ns, end_ns}`; spans of
//! one client op (one read, one publish, one DDL round) share `op_id`.
//! A layer's self time is its span minus the part of it its children
//! cover. Two kinds of child exist: *nested* ones really ran inside
//! the parent's call (a closure the callee invoked), and *placed* ones
//! were measured by calling the inner layer on its own, right after
//! the parent call, with the same inputs — the parent's public API
//! offers no hook to time them in place — and are laid end to end from
//! the parent's start so the same self-time arithmetic applies.
//! `placed` marks them in the file.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub placed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a span whose children will be recorded before it ends;
    /// [`Spans::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: u32, op_id: u64, start: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent,
            op_id,
            name,
            start_ns,
            end_ns: start_ns,
            placed: false,
        });
        id
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.open(name, parent, op_id, start);
        self.close(id, end);
        id
    }

    /// Summed durations, in ns, of the direct children of `id`.
    pub fn children_ns(&self, id: u32) -> u64 {
        // children are recorded after their parent
        self.spans[id as usize..]
            .iter()
            .filter(|s| s.parent == id)
            .map(Span::duration_ns)
            .sum()
    }

    /// Times `f` as a leaf span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.add(name, parent, op_id, start, Instant::now());
        out
    }

    /// Records a child measured outside its parent's call (see the
    /// module docs): `nanos` long, laid at the parent's start — or
    /// after the parent's previous placed child, so several add up. It
    /// keeps its full length even past the parent's end (children the
    /// parent ran in parallel sum to more than the parent took);
    /// self-time arithmetic clips it.
    pub fn place(&mut self, name: &'static str, parent: u32, nanos: u64) -> u32 {
        let p = &self.spans[parent as usize - 1];
        let op_id = p.op_id;
        // children are recorded after their parent
        let start_ns = self.spans[parent as usize..]
            .iter()
            .filter(|s| s.parent == parent && s.placed)
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p.start_ns);
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            op_id,
            name,
            start_ns,
            end_ns: start_ns + nanos,
            placed: true,
        });
        id
    }

    /// Moves every span of `other` (recorded against the same origin)
    /// into `self`, renumbering ids.
    pub fn absorb(&mut self, other: Spans) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per op id (in order of first appearance), the summed duration
    /// in ms of its spans called `name`.
    pub fn sums_by_op_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let ms = s.duration_ns() as f64 / 1e6;
            match sums.iter_mut().find(|(op, _)| *op == s.op_id) {
                Some((_, sum)) => *sum += ms,
                None => sums.push((s.op_id, ms)),
            }
        }
        sums.into_iter().map(|(_, sum)| sum).collect()
    }

    /// Self time in ns per span, indexed by `id - 1`: the span's
    /// duration minus the union of its children's intervals (clipped
    /// to the span).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Self times in ms of every span called `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times_ns();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[s.id as usize - 1] as f64 / 1e6)
            .collect()
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self.self_times_ns();
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{},\"placed\":{}}}",
                s.id,
                s.parent,
                s.op_id,
                s.name,
                s.start_ns,
                s.end_ns,
                selfs[s.id as usize - 1],
                s.placed
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let o = Instant::now();
        let mut s = Spans::new(o);
        let root = s.add("root", 0, 1, at(o, 0), at(o, 100));
        // two overlapping children cover 10..50, one disjoint 60..70
        s.add("a", root, 1, at(o, 10), at(o, 40));
        s.add("b", root, 1, at(o, 30), at(o, 50));
        let c = s.add("c", root, 1, at(o, 60), at(o, 70));
        // a grandchild only reduces its own parent
        s.add("d", c, 1, at(o, 62), at(o, 66));
        let selfs = s.self_times_ns();
        assert_eq!(selfs[root as usize - 1], 50_000);
        assert_eq!(selfs[c as usize - 1], 6_000);
        assert_eq!(s.self_ms("a"), vec![0.03]);
        assert_eq!(s.durations_ms("root"), vec![0.1]);
        assert_eq!(s.children_ns(root), 60_000);
        // a second op with two spans of the same name
        s.add("a", 0, 2, at(o, 200), at(o, 201));
        s.add("a", 0, 2, at(o, 300), at(o, 302));
        assert_eq!(s.sums_by_op_ms("a"), vec![0.03, 0.003]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let o = Instant::now();
        let mut s = Spans::new(o);
        let root = s.add("root", 0, 1, at(o, 10), at(o, 20));
        s.add("early", root, 1, at(o, 0), at(o, 12));
        s.add("late", root, 1, at(o, 18), at(o, 30));
        assert_eq!(s.self_times_ns()[0], 6_000);
    }

    #[test]
    fn placed_children_are_laid_end_to_end() {
        let o = Instant::now();
        let mut s = Spans::new(o);
        let root = s.add("plan", 0, 7, at(o, 100), at(o, 200));
        let kid = s.place("enumerate", root, 60_000);
        let over = s.place("too_long", root, 500_000);
        let spans = &s.spans;
        assert_eq!(spans[kid as usize - 1].start_ns, 100_000);
        assert_eq!(spans[kid as usize - 1].end_ns, 160_000);
        assert_eq!(spans[kid as usize - 1].op_id, 7);
        assert!(spans[kid as usize - 1].placed);
        // the second is laid after the first and keeps its length;
        // only the parent's self time clips it
        assert_eq!(spans[over as usize - 1].start_ns, 160_000);
        assert_eq!(spans[over as usize - 1].end_ns, 660_000);
        assert_eq!(s.self_times_ns()[0], 0);
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let o = Instant::now();
        let mut a = Spans::new(o);
        a.add("x", 0, 1, at(o, 0), at(o, 1));
        let mut b = Spans::new(o);
        let r = b.add("root", 0, 2, at(o, 0), at(o, 10));
        b.add("kid", r, 2, at(o, 2), at(o, 4));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.spans[1].id, 2);
        assert_eq!(a.spans[2].parent, 2);
        assert_eq!(a.self_ms("root"), vec![0.008]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let o = Instant::now();
        let mut s = Spans::new(o);
        let r = s.add("root", 0, 3, at(o, 0), at(o, 5));
        s.place("kid", r, 1_000);
        let mut bytes = Vec::new();
        s.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"root\"") && lines[0].contains("\"self_ns\":4000"));
        assert!(lines[1].contains("\"placed\":true"));
        for l in lines {
            crate::json::parse(l).unwrap();
        }
    }
}
