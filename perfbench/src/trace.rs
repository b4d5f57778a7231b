//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public entry points; nothing inside the program is instrumented.
//! Each span keeps its name, start, end, parent and (on the serving
//! workload) the request it belongs to. They stay in memory while the run
//! measures and are written out as JSON lines when it ends.

use crate::report::Report;
use crate::Config;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Whether a span name belongs to one of the measured layers (the
/// repository's crates); other spans are the benchmark's own work.
fn is_layer(name: &str) -> bool {
    [
        "cfront.", "ir.", "cladb.", "core.", "snap.", "serve.", "hub.",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

/// No parent / no request.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// A single-threaded span stack. The traced runs are serial, so a plain
/// stack gives every span its parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with request id `id` (0 = none).
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        self.open.push((self.spans.len() - 1) as u32);
    }

    pub fn exit(&mut self) {
        let ix = self.open.pop().expect("exit without a matching enter") as usize;
        self.spans[ix].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        // Children of one parent never overlap (the stack is serial), so
        // their durations add up to the covered part of the parent.
        for s in &self.spans {
            if s.parent != NONE {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Busy seconds per span name: the sum of the durations of spans with
    /// that name (a layer's spans never nest inside each other).
    pub fn busy_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        out
    }

    /// Share of `wall_ns` covered by no layer span: the self time of every
    /// layer span is attributed, the rest of the wall is not.
    pub fn unattributed_frac(&self, wall_ns: u64) -> f64 {
        let attributed: u64 = self
            .spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| is_layer(s.name))
            .map(|(_, ns)| ns)
            .sum();
        1.0 - attributed as f64 / wall_ns.max(1) as f64
    }

    /// Reports the trace's own metrics — the unattributed share of the
    /// traced wall time and the overhead against the untraced run of the
    /// same work — and writes the spans out.
    pub fn report(
        &self,
        cfg: &Config,
        r: &mut Report,
        traced_s: f64,
        untraced_s: f64,
    ) -> Result<(), String> {
        r.metric(
            "trace.unattributed_frac",
            self.unattributed_frac((traced_s * 1e9) as u64),
            "frac",
        );
        r.metric("trace.overhead_frac", traced_s / untraced_s - 1.0, "frac");
        r.record_num("traced_s", traced_s);
        r.record_num("untraced_s", untraced_s);
        let path = cfg.trace_path();
        self.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.record_str("trace_file", &path.display().to_string());
        Ok(())
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, self_ns[i], s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let self_ns = t.self_ns();
        let outer = &t.spans[0];
        let inner = &t.spans[1];
        assert_eq!(inner.parent, 0);
        assert_eq!(
            self_ns[0],
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
        assert!(self_ns[1] >= 5_000_000);
    }
}
