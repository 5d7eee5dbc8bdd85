//! In-memory span recorder for the traced run.
//!
//! Spans are opened only in the benchmark's own code, around its calls
//! into each crate; the name's prefix before the first `.` is the layer
//! (`sim.sweep` belongs to `sim`). Spans live in memory and are written
//! out once, when the run ends. With tracing off every call is a no-op,
//! so the untraced runs that give the end-to-end metrics pay nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (an index into the recorder).
pub type SpanId = usize;

/// Returned when tracing is off; `exit` ignores it.
const NO_SPAN: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<SpanId>,
    /// Spans of one job (a sweep of one app, one served job, one round)
    /// share this identifier.
    pub job: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn secs(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, job: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        self.spans[id].end = Instant::now();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, job);
        let value = f();
        self.exit(id);
        value
    }

    /// Records a span whose bounds were measured elsewhere (a served
    /// job's phases, timed by the client threads).
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let parent = if parent == Some(NO_SPAN) {
            None
        } else {
            parent.or_else(|| self.open.last().copied())
        };
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its children cover (children may overlap, so the
    /// union of their intervals is subtracted).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut intervals: Vec<(Instant, Instant)> = children[id]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start.max(span.start), c.end.min(span.end))
                    })
                    .filter(|(s, e)| s < e)
                    .collect();
                intervals.sort();
                let mut covered = 0.0;
                let mut cursor: Option<(Instant, Instant)> = None;
                for (s, e) in intervals {
                    match &mut cursor {
                        Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
                        _ => {
                            if let Some((cs, ce)) = cursor {
                                covered += (ce - cs).as_secs_f64();
                            }
                            cursor = Some((s, e));
                        }
                    }
                }
                if let Some((cs, ce)) = cursor {
                    covered += (ce - cs).as_secs_f64();
                }
                (span.secs() - covered).max(0.0)
            })
            .collect()
    }

    /// Self time summed per layer, in seconds.
    pub fn layer_self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_secs()) {
            *totals.entry(span.layer()).or_insert(0.0) += own;
        }
        totals
    }

    /// Writes one JSON object per span: name, layer, start and end in
    /// microseconds since the recorder was created, parent id, job id,
    /// and self time.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("writing spans to {}: {e}", path.display());
        let file = std::fs::File::create(path).map_err(err)?;
        let mut out = std::io::BufWriter::new(file);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (id, (span, own)) in self.spans.iter().zip(self.self_secs()).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}, \"job\": {}, \"self_us\": {:.3}}}",
                span.name,
                span.layer(),
                us(span.start),
                us(span.end),
                span.job,
                own * 1e6
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("bench.round", 0, at(0), at(100), Some(NO_SPAN));
        t.record("sim.a", 0, at(10), at(40), Some(root));
        t.record("sim.b", 0, at(30), at(50), Some(root));
        t.record("mem.c", 0, at(60), at(70), Some(root));
        let own = t.self_secs();
        assert!((own[root] - 0.050).abs() < 1e-9, "{}", own[root]);
        let layers = t.layer_self_secs();
        assert!((layers["sim"] - 0.050).abs() < 1e-9);
        assert!((layers["bench"] - 0.050).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("sim.x", 1);
        t.exit(id);
        assert!(t.layer_self_secs().is_empty());
    }
}
