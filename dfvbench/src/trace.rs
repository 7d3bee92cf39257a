//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer's public functions: name, start, end, parent span, and the job
//! they belong to. A finished job's spans are reduced to per-layer *self*
//! time (a span's duration minus the part its children cover) plus the
//! job's counters; the raw spans of the first [`KEEP_JOBS`] jobs are kept
//! in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// Jobs whose raw spans are kept for the span file (all jobs feed the
/// per-layer medians).
pub const KEEP_JOBS: u32 = 32;

#[derive(Debug, Clone)]
struct Span {
    parent: Option<u32>,
    job: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An open span, returned by [`Tracer::open`] and consumed by
/// [`Tracer::close`].
#[must_use]
pub struct Open(u32);

/// The in-memory span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    job: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    counters: BTreeMap<String, f64>,
    kept: Vec<Span>,
    per_job: Vec<BTreeMap<String, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            job: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counters: BTreeMap::new(),
            kept: Vec::new(),
            per_job: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span under the innermost open span of the current job.
    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            job: self.job,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Ends a span (spans close innermost first). Returns its duration in
    /// milliseconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let end = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.0), "spans close innermost first");
        let s = &mut self.spans[span.0 as usize];
        s.end_ns = end;
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Times `f` as one span with no children.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    /// Adds to a per-job counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name.to_string()).or_default() += v;
    }

    /// Closes the current job: reduces its spans to per-layer self time in
    /// milliseconds (keyed `<span name>_ms`) merged with its counters.
    pub fn end_job(&mut self) {
        // A job that failed part-way may leave spans open: end them here.
        while let Some(&id) = self.stack.last() {
            self.close(Open(id));
        }
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut row = std::mem::take(&mut self.counters);
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(*kids);
            *row.entry(format!("{}_ms", s.name)).or_default() += self_ns as f64 / 1e6;
        }
        self.per_job.push(row);
        if self.job < KEEP_JOBS {
            // Parent ids index the job's own spans; rebase them onto the
            // kept list's numbering.
            let base = self.kept.len() as u32;
            self.kept.extend(self.spans.drain(..).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        self.spans.clear();
        self.job += 1;
    }

    /// Jobs recorded so far.
    pub fn jobs(&self) -> usize {
        self.per_job.len()
    }

    /// The median across jobs of one per-job quantity (0 where a job has
    /// none).
    pub fn median_of(&self, key: &str) -> f64 {
        let xs: Vec<f64> = self
            .per_job
            .iter()
            .map(|row| row.get(key).copied().unwrap_or(0.0))
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    }

    /// The mean across jobs of one per-job quantity: for counts that are
    /// zero in most jobs, where the median says nothing.
    pub fn mean_of(&self, key: &str) -> f64 {
        let n = self.per_job.len().max(1) as f64;
        self.per_job
            .iter()
            .filter_map(|row| row.get(key))
            .sum::<f64>()
            / n
    }

    /// Writes the kept spans as JSON lines, times in microseconds from the
    /// start of the run.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.job,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let job = t.open("job");
        let child = t.open("sec.check");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner = t.close(child);
        let outer = t.close(job);
        t.count("sat.conflicts", 3.0);
        t.end_job();
        assert!(inner >= 5.0 && outer >= inner);
        assert!((t.median_of("sec.check_ms") - inner).abs() < 1e-9);
        assert!((t.median_of("job_ms") - (outer - inner)).abs() < 1e-6);
        assert_eq!(t.median_of("sat.conflicts"), 3.0);
        assert_eq!(t.median_of("rtl.node_evals"), 0.0);
    }
}
