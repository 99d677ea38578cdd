//! Spans recorded around the benchmark's own calls into the service.
//!
//! A span has a name, a start and an end, the span that caused it, and a
//! trace id that every span of one session (or one enrollment, or one
//! set-up) shares. Spans stay in memory; the run writes them out as JSON
//! lines when it ends and computes each span's self time: its duration
//! minus the part of it that its children cover.

use crate::measure::json_str;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run; `0` is never used.
    pub id: u64,
    /// The causing span's id, `0` for a root.
    pub parent: u64,
    /// Shared by every span of one session, enrollment or set-up.
    pub trace: u64,
    /// The layer boundary the span covers.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// hands out id `0`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start above `lane << 40`, so tracers on
    /// different threads never collide.
    pub fn new(on: bool, epoch: Instant, lane: u64) -> Self {
        Tracer { on, epoch, next_id: (lane << 40) + 1, spans: Vec::new() }
    }

    /// Reserves a span id (also usable as a trace id).
    pub fn next_id(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(&mut self, id: u64, parent: u64, trace: u64, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                trace,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }

    /// Records a finished span under a fresh id and returns that id.
    pub fn span(&mut self, parent: u64, trace: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let id = self.next_id();
        self.record(id, parent, trace, name, start, end);
        id
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time in ns (same order as `spans`): its duration minus
/// the union of its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many, total time and self time, and the median self
/// time, all in ns.
#[derive(Debug, Default, Clone)]
pub struct NameSummary {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Median self time.
    pub self_p50_ns: f64,
}

/// Summarises `spans` by name.
pub fn summarise(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, NameSummary> {
    let mut by_name: BTreeMap<&'static str, (NameSummary, Vec<f64>)> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(selfs) {
        let (sum, samples) = by_name.entry(s.name).or_default();
        sum.count += 1;
        sum.total_ns += s.end_ns.saturating_sub(s.start_ns);
        sum.self_ns += self_ns;
        samples.push(self_ns as f64);
    }
    by_name
        .into_iter()
        .map(|(name, (mut sum, mut samples))| {
            sum.self_p50_ns = crate::measure::median(&mut samples);
            (name, sum)
        })
        .collect()
}

/// Writes one JSON object per span (with its self time) to `path`.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent,
            s.trace,
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, trace: 1, name: "x", start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30, 30]);
    }
}
