//! In-memory spans for the traced run.
//!
//! A span records a name, the trace it belongs to (one request or one
//! round), its parent and its start and end on a clock shared by every
//! tracer of the run. Spans stay in memory while the workload runs and
//! are written out as JSON lines when it ends. A span's self time is its
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Index of an open or closed span in its tracer.
pub type SpanId = usize;

/// Records spans when enabled; costs one branch per call when not.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a span whose interval the caller already measured.
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        start: Instant,
        elapsed: Duration,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(start);
        let end_ns = start_ns + u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.record(name, trace, parent, start, elapsed);
        (out, elapsed)
    }

    /// Appends another tracer's spans (from another thread of the run).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// union of its children's intervals clipped to its own.
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: count, total milliseconds and self milliseconds.
    #[must_use]
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
            e.2 += self_ns as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: &Tracer, ns: u64) -> Instant {
        t.epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.record("round", 1, None, at(&t, 0), Duration::from_nanos(100));
        // Two overlapping children cover 10..50; one spills past the end.
        t.record("a", 1, Some(root), at(&t, 10), Duration::from_nanos(30));
        t.record("b", 1, Some(root), at(&t, 20), Duration::from_nanos(30));
        t.record("c", 1, Some(root), at(&t, 90), Duration::from_nanos(50));
        let selfs = t.self_times();
        assert_eq!(selfs[root], 100 - 40 - 10);
        assert_eq!(selfs[1], 30);
        let summary = t.summary();
        assert_eq!(summary["round"].0, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("x", 0, None);
        t.close(id);
        let ((), _) = t.time("y", 0, None, || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.record("a", 0, None, epoch, Duration::from_nanos(5));
        let mut b = Tracer::new(epoch, true);
        let p = b.record("p", 1, None, epoch, Duration::from_nanos(5));
        b.record("c", 1, Some(p), epoch, Duration::from_nanos(1));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
