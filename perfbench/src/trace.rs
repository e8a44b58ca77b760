//! Spans of the traced run: recorded in memory around calls into each
//! layer's public functions, written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent of a top-level span.
pub const ROOT: usize = usize::MAX;

/// One timed call. `id` names the load, trial or schedule it served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: usize,
    pub id: u64,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    /// Self time: the spans' durations minus the time their child spans
    /// cover — the time spent in this layer and not below it.
    pub busy_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: usize, id: u64) -> usize {
        let now = self.t0.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_s = self.t0.elapsed().as_secs_f64();
    }

    /// Duration of one span.
    pub fn duration(&self, span: usize) -> f64 {
        self.spans[span].end_s - self.spans[span].start_s
    }

    /// Aggregates every span called `name`. The run is single-threaded,
    /// so a span's children never overlap and their durations add up to
    /// the part of the span they cover.
    pub fn layer(&self, name: &str) -> Layer {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_s[s.parent] += s.end_s - s.start_s;
            }
        }
        let mut layer = Layer::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                let d = s.end_s - s.start_s;
                layer.calls += 1;
                layer.busy_s += d - child_s[i];
            }
        }
        layer
    }

    /// Writes every span as CSV (`name,start_s,end_s,parent,id`; a
    /// top-level span's parent is empty).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_s,end_s,parent,id")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{},{:.9},{:.9},{},{}",
                s.name, s.start_s, s.end_s, parent, s.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.open("outer", ROOT, 0);
        for id in 0..3 {
            let inner = t.open("inner", outer, id);
            std::hint::black_box((0..1000).sum::<u64>());
            t.close(inner);
        }
        t.close(outer);
        let o = t.layer("outer");
        let i = t.layer("inner");
        assert_eq!((o.calls, i.calls), (1, 3));
        let whole = t.duration(outer);
        assert!((whole - o.busy_s - i.busy_s).abs() < 1e-12);
        assert!(i.busy_s > 0.0);
        assert_eq!(t.layer("missing"), Layer::default());
    }
}
