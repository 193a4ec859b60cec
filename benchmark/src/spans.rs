//! Harness-side spans: one record around every call (or timed batch of
//! calls) the harness makes into a layer. Kept in memory and written out
//! once at exit, so recording costs the measured code two `Instant` reads.
//! Spans *inside* the program are a later issue (ROADMAP "phase-time
//! telemetry").

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span, times in nanoseconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. `parent` is the span new records hang under.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    rows: Vec<Span>,
    parent: Option<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            rows: Vec::new(),
            parent: None,
        }
    }

    /// Runs `f` inside a span named `name`; spans recorded by `f` become
    /// its children.
    pub fn record<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.rows.len();
        let outer = self.parent;
        self.rows.push(Span {
            name: name.to_string(),
            parent: outer,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.parent = Some(id);
        let out = f(self);
        self.parent = outer;
        self.rows[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn rows(&self) -> &[Span] {
        &self.rows
    }

    /// Writes one JSON object per span, tagged with the workload run the
    /// spans belong to.
    ///
    /// # Errors
    ///
    /// The I/O error of creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.rows.iter().enumerate() {
            let row = Json::obj([
                ("workload", Json::Str(workload.to_string())),
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::Str(span.name.clone())),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ]);
            writeln!(out, "{row}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_running_span() {
        let mut spans = Spans::new();
        spans.record("run", |s| {
            s.record("layer.a", |_| ());
            s.record("layer.b", |_| ());
        });
        spans.record("other", |_| ());
        let parents: Vec<Option<usize>> = spans.rows().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(spans.rows().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans.rows()[0].end_ns >= spans.rows()[2].end_ns);
    }
}
