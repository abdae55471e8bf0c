//! Spans recorded from the benchmark side around calls into each layer.
//!
//! A span has a name, a start and end on one monotonic clock, and the
//! span that caused it. Spans stay in memory while a workload runs and
//! are summarized when it ends. A span's self time is its duration minus
//! the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock every
/// span and every latency sample is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or stage name (`request`, `queue`, `layer.fc0`, ...).
    pub name: String,
    /// Index of the causing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Start, on the [`now_ns`] clock.
    pub start_ns: u64,
    /// End, on the [`now_ns`] clock (`>= start_ns`).
    pub end_ns: u64,
}

/// An in-memory span log.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Records a finished span and returns its index.
    pub fn add(&mut self, name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in order: its duration minus the length of
/// the union of its children's intervals clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanSummary {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, in milliseconds.
    pub total_ms: f64,
    /// Summed self time, in milliseconds.
    pub self_ms: f64,
}

/// Count, total time and self time per span name, in name order.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, SpanSummary> {
    let mut out: BTreeMap<String, SpanSummary> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
        e.self_ms += own as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::default();
        let root = t.add("request", None, 0, 100);
        t.add("queue", Some(root), 10, 30);
        let fwd = t.add("forward", Some(root), 20, 50);
        t.add("layer.fc0", Some(fwd), 20, 35);
        t.add("layer.fc1", Some(fwd), 35, 60);
        // Partly outside its parent: only [90, 100] counts against it.
        t.add("late", Some(root), 90, 120);
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = sample();
        assert_eq!(self_times(t.spans()), vec![50, 20, 0, 15, 25, 30]);
    }

    #[test]
    fn self_times_are_deterministic() {
        let a = summarize(sample().spans());
        let b = summarize(sample().spans());
        assert_eq!(a, b);
        let req = a["request"];
        assert_eq!(req.count, 1);
        assert!((req.total_ms - 100e-6).abs() < 1e-12);
        assert!((req.self_ms - 50e-6).abs() < 1e-12);
        // The order children were recorded in does not change the result.
        let mut spans = sample().spans().to_vec();
        spans.swap(1, 5);
        assert_eq!(summarize(&spans), a);
    }

    #[test]
    fn spans_without_children_keep_their_duration() {
        let mut t = Trace::default();
        t.add("solo", None, 5, 9);
        t.add("backwards", None, 9, 5);
        assert_eq!(self_times(t.spans()), vec![4, 0]);
    }
}
