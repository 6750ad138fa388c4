//! The traced run's own spans: name, start, end, parent and request
//! id, recorded around each call into the program and kept in memory
//! until the run writes them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start: f64,
    pub end: f64,
}

/// Collects spans from any thread. A tracer that is off records
/// nothing and never reads the clock.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it is recorded when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

/// The id of an open span (`None` when the tracer is off), to parent
/// child spans under it.
pub fn id_of(guard: &Option<Guard<'_>>) -> Option<u64> {
    guard.as_ref().map(|g| g.id)
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        self.tracer.push(
            self.id,
            self.parent,
            self.name,
            self.request,
            self.start,
            end,
        );
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span that ends when the guard drops; `None` when off.
    pub fn span(&self, name: &'static str, parent: Option<u64>, request: u64) -> Option<Guard<'_>> {
        self.on.then(|| Guard {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            request,
            start: Instant::now(),
        })
    }

    /// Record a span whose bounds were measured elsewhere; returns its
    /// id (`None` when off).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.on {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, request, start, end);
        Some(id)
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        let span = Span {
            id,
            parent,
            name,
            request,
            start: at(start),
            end: at(end).max(at(start)),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Count, total and self time of every span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per-name totals. A span's self time is its duration minus the part
/// of it that its children cover (children may overlap each other).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|c| union_within(c, s.start, s.end))
            .unwrap_or(0.0);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.end - s.start;
        t.self_s += (s.end - s.start - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Spans as JSON lines, for the file a traced run leaves behind.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_s\":{},\"end_s\":{}}}",
            s.id, parent, s.name, s.request, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "solve", 0.0, 10.0),
            span(2, Some(1), "sweep", 1.0, 4.0),
            span(3, Some(1), "sweep", 3.0, 6.0),
            span(4, Some(1), "sweep", 9.0, 12.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["solve"].count, 1);
        assert!((t["solve"].self_s - 4.0).abs() < 1e-12);
        assert_eq!(t["sweep"].count, 3);
        assert!((t["sweep"].total_s - 9.0).abs() < 1e-12);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert!(tracer.span("x", None, 0).is_none());
        let now = Instant::now();
        assert!(tracer.record("y", None, 0, now, now).is_none());
        assert!(tracer.spans().is_empty());
    }
}
