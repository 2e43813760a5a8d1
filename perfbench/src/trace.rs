//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own code around its calls into
//! each layer, kept in memory, and written out as JSON lines when the run
//! ends. A span's self time is its duration minus the part of its interval
//! that its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The circuit, pass or job the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span list with a shared monotonic epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = self.seconds(Instant::now());
        self.push(Span {
            name,
            start: now,
            end: now,
            parent,
            id,
        })
    }

    pub fn close(&self, span: usize) {
        let now = self.seconds(Instant::now());
        self.lock()[span].end = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, id);
        let result = f();
        self.close(span);
        result
    }

    /// Records an interval that was timed elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(Span {
            name,
            start: self.seconds(start),
            end: self.seconds(end),
            parent,
            id,
        })
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    fn seconds(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }
}

/// Runs `f` inside a span when `tracer` is set, and bare otherwise.
pub fn stage<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(tracer) => tracer.span(name, parent, id, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = span.start;
            for (start, end) in intervals {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Total duration of the spans named `name`.
pub fn busy(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(Span::duration)
        .sum()
}

/// Total self time of the spans named `name`.
pub fn self_time(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(span, _)| span.name == name)
        .map(|(_, own)| own)
        .sum()
}

/// Total duration of every span whose parent is named `parent`.
pub fn children_busy(spans: &[Span], parent: &str) -> f64 {
    spans
        .iter()
        .filter(|span| span.parent.is_some_and(|p| spans[p].name == parent))
        .map(Span::duration)
        .sum()
}

/// Writes the spans as JSON lines, followed by one line of self time per
/// span name.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    let own = self_times(spans);
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for (index, (span, own)) in spans.iter().zip(&own).enumerate() {
        *totals.entry(span.name).or_default() += own;
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\": {index}, \"name\": \"{}\", \"id\": {}, \"start\": {}, \"end\": {}, \
             \"parent\": {parent}, \"self_s\": {own}}}",
            span.name, span.id, span.start, span.end
        )?;
    }
    for (name, total) in totals {
        writeln!(out, "{{\"self_total\": \"{name}\", \"self_s\": {total}}}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("pass", 0.0, 10.0, None),
            span("circuit", 1.0, 5.0, Some(0)),
            span("circuit", 3.0, 7.0, Some(0)),
            span("atpg", 1.0, 4.0, Some(1)),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 4.0).abs() < 1e-12, "{own:?}");
        assert!((own[1] - 1.0).abs() < 1e-12, "{own:?}");
        assert!((own[2] - 4.0).abs() < 1e-12, "{own:?}");
        assert!((own[3] - 3.0).abs() < 1e-12, "{own:?}");
        assert!((children_busy(&spans, "pass") - 8.0).abs() < 1e-12);
        assert!((busy(&spans, "circuit") - 8.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let tracer = Tracer::new();
        let outer = tracer.open("outer", None, 7);
        let value = tracer.span("inner", Some(outer), 7, || 42);
        tracer.close(outer);
        let spans = tracer.spans();
        assert_eq!(value, 42);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(stage(None, "bare", None, 0, || 5), 5);
    }
}
