//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans are recorded from the benchmark's files, around calls into
//! the layers' public functions; nothing inside the crates is
//! instrumented by this PR. A span is `{name, start_ns, end_ns,
//! parent, request_id}` kept in a `Vec` and written as Chrome
//! `trace_event` JSON when the run ends. A span's self time is its
//! duration minus the part its children cover. The replay that feeds
//! the recorder is single-threaded, so one open-span stack is enough.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The request this span belongs to (rungs of one request share
    /// it, whichever pass of the ladder issued them).
    pub request_id: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total self time and span count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request_id = id;
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it receives become children. Returns `f`'s result
    /// and the span's wall nanoseconds.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now();
        self.open.pop();
        self.spans[id as usize].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name self time: each span's duration minus its direct
    /// children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.wall_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.self_ns += s.wall_ns().saturating_sub(children);
            e.total_ns += s.wall_ns();
            e.count += 1;
        }
        out
    }

    /// Cost of one empty span (`bench.timer_overhead_ns`): what the
    /// recorder itself adds to every span it wraps.
    pub fn timer_overhead_ns() -> f64 {
        const N: u32 = 20_000;
        let mut rec = Recorder::new();
        let t = Instant::now();
        for _ in 0..N {
            rec.span("bench.empty", |_| std::hint::black_box(()));
        }
        t.elapsed().as_nanos() as f64 / f64::from(N)
    }

    /// Write the spans as Chrome `trace_event` JSON (complete events,
    /// microsecond timestamps; `args` carry the request id and the
    /// parent span index).
    pub fn write_chrome_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request_id\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.wall_ns() as f64 / 1e3,
                i,
                parent,
                s.request_id,
                sep
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_link_to_parents_and_self_time_excludes_them() {
        let mut rec = Recorder::new();
        rec.set_request(7);
        rec.span("outer", |rec| {
            spin(200_000);
            rec.span("inner", |_| spin(300_000));
            rec.span("inner", |_| spin(300_000));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request_id == 7));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let st = rec.self_times();
        assert_eq!(st["inner"].count, 2);
        assert!(st["inner"].self_ns >= 600_000);
        let outer = st["outer"];
        assert_eq!(outer.total_ns, spans[0].wall_ns());
        assert_eq!(
            outer.self_ns,
            spans[0].wall_ns() - spans[1].wall_ns() - spans[2].wall_ns()
        );
        assert!(outer.self_ns >= 200_000 && outer.self_ns < outer.total_ns);
    }

    #[test]
    fn chrome_json_lists_every_span() {
        let mut rec = Recorder::new();
        rec.span("a", |rec| {
            rec.span("b", |_| ());
        });
        let dir = std::env::temp_dir().join(format!("bfbench-trace-test-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        rec.write_chrome_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"b\"") && text.contains("\"parent\":0"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
