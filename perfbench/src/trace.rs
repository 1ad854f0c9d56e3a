//! In-memory spans for the traced run.
//!
//! The benchmark opens one span around each public call into a layer.
//! A span records its name, start and end, its parent and the request it
//! belongs to, the calling thread's allocations during it, and an optional
//! work count (bytes written, ops lowered, ...). Spans stay in memory and
//! are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// Request id of spans recorded while a workload sets up.
pub const SETUP: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    pub work: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: SETUP,
        }
    }
}

impl Tracer {
    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_work(name, |t| (f(t), 0))
    }

    /// Runs `f` inside a span and records the work count it returns.
    pub fn span_work<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        let index = self.spans.len();
        let (allocs0, bytes0) = alloc::thread_counts();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: 0,
            bytes: 0,
            work: 0,
        });
        self.open.push(index);
        let (value, work) = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let (allocs1, bytes1) = alloc::thread_counts();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = allocs1 - allocs0;
        span.bytes = bytes1 - bytes0;
        span.work = work;
        value
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its children
    /// cover (children never overlap, since one thread records them).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self times grouped by layer name, per request.
    pub fn by_layer(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, LayerCalls> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, LayerCalls> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            if !keep(span) {
                continue;
            }
            out.entry(span.name)
                .or_default()
                .push(self_ns, span.allocs, span.work);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let request = if s.request == SETUP {
                "\"setup\"".to_string()
            } else {
                s.request.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{request},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"bytes\":{},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.allocs, s.bytes, s.work
            )?;
        }
        out.flush()
    }
}

/// The calls one layer received.
#[derive(Debug, Default, Clone)]
pub struct LayerCalls {
    pub self_ns: Vec<u64>,
    pub allocs: Vec<u64>,
    pub work: Vec<u64>,
}

impl LayerCalls {
    pub fn push(&mut self, self_ns: u64, allocs: u64, work: u64) {
        self.self_ns.push(self_ns);
        self.allocs.push(allocs);
        self.work.push(work);
    }

    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.set_request(3);
        t.span("outer", |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span_work("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                ((), 7)
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 3);
        assert_eq!(spans[1].work, 7);
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0] + selfs[1], spans[0].end_ns - spans[0].start_ns);
        assert!(selfs[1] >= 2_000_000);
    }
}
