//! Harness-side spans: one around every call from the harness into a
//! product layer and one around each cell / job. Spans stay in memory and
//! are written as Chrome-trace JSON when the run ends. Tracing *inside* the
//! product crates is a later change; nothing here touches them.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (its position in the sink).
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>` for a layer call, or `cell` / `job` / `pass`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one cell / job share this identifier.
    pub unit: u64,
    /// Recording thread, numbered in order of first use.
    pub tid: u32,
}

struct Sink {
    spans: Vec<Span>,
    threads: Vec<std::thread::ThreadId>,
}

fn lock(sink: &Mutex<Sink>) -> std::sync::MutexGuard<'_, Sink> {
    sink.lock()
        .expect("span recording never panics while holding the sink")
}

/// The span sink. `Tracer::off()` records nothing, so the end-to-end
/// (untraced) measurements pay one branch per call site.
pub struct Tracer {
    epoch: Instant,
    sink: Option<Mutex<Sink>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            sink: None,
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            sink: Some(Mutex::new(Sink {
                spans: Vec::new(),
                threads: Vec::new(),
            })),
        }
    }

    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. The closure receives the span's id so nested
    /// calls can name it as their parent (`None` when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(sink) = &self.sink else {
            return f(None);
        };
        let id = {
            let mut s = lock(sink);
            let me = std::thread::current().id();
            let tid = match s.threads.iter().position(|t| *t == me) {
                Some(i) => i,
                None => {
                    s.threads.push(me);
                    s.threads.len() - 1
                }
            } as u32;
            let start_ns = self.now_ns();
            s.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                unit,
                tid,
            });
            (s.spans.len() - 1) as SpanId
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        lock(sink).spans[id as usize].end_ns = end_ns;
        out
    }

    /// Record a span whose interval was measured elsewhere (the service
    /// reports queue wait and service time as durations, not instants).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        unit: u64,
        start: Instant,
        dur_s: f64,
    ) {
        let Some(sink) = &self.sink else { return };
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        lock(sink).spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (dur_s.max(0.0) * 1e9) as u64,
            parent,
            unit,
            tid: 0,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.sink {
            Some(s) => lock(s).spans.clone(),
            None => Vec::new(),
        }
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of span durations.
    pub total_s: f64,
    /// Sum of self times: each span's duration minus the part of that
    /// interval its child spans cover.
    pub self_s: f64,
}

/// Total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            // Only the part inside the parent's interval counts against it.
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            child_ns[p as usize] += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
    }
    out
}

/// Chrome-trace (`chrome://tracing`, Perfetto) complete events, one per
/// span; `pid` distinguishes workloads when several are merged.
pub fn chrome_events(spans: &[Span], pid: u32, process_name: &str) -> Vec<Json> {
    let mut events = Vec::with_capacity(spans.len() + 1);
    let mut meta = Json::obj();
    let mut meta_args = Json::obj();
    meta_args.set("name", process_name);
    meta.set("name", "process_name")
        .set("ph", "M")
        .set("pid", pid as u64)
        .set("args", meta_args);
    events.push(meta);
    for (i, s) in spans.iter().enumerate() {
        let mut args = Json::obj();
        args.set("span", i).set("unit", s.unit);
        if let Some(p) = s.parent {
            args.set("parent", p as u64);
        }
        let mut e = Json::obj();
        e.set("name", s.name)
            .set("ph", "X")
            .set("pid", pid as u64)
            .set("tid", s.tid as u64)
            .set("ts", s.start_ns as f64 / 1e3)
            .set("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
            .set("args", args);
        events.push(e);
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_and_still_runs_the_closure() {
        let t = Tracer::off();
        let v = t.span("cell", None, 1, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            Span {
                name: "cell",
                start_ns: 0,
                end_ns: 1000,
                parent: None,
                unit: 1,
                tid: 0,
            },
            Span {
                name: "core.run",
                start_ns: 100,
                end_ns: 700,
                parent: Some(0),
                unit: 1,
                tid: 0,
            },
            Span {
                name: "verify",
                start_ns: 700,
                end_ns: 900,
                parent: Some(0),
                unit: 1,
                tid: 0,
            },
            Span {
                name: "gpusim.launch",
                start_ns: 200,
                end_ns: 500,
                parent: Some(1),
                unit: 1,
                tid: 0,
            },
        ];
        let t = totals_by_name(&spans);
        assert!((t["cell"].self_s - 200e-9).abs() < 1e-15);
        assert!((t["core.run"].self_s - 300e-9).abs() < 1e-15);
        assert!((t["core.run"].total_s - 600e-9).abs() < 1e-15);
        assert_eq!(t["gpusim.launch"].count, 1);
        // Self times partition the root's duration.
        let sum: f64 = t.values().map(|x| x.self_s).sum();
        assert!((sum - 1000e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_export() {
        let t = Tracer::on();
        t.span("cell", None, 3, |cell| {
            t.span("core.run", cell, 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let events = chrome_events(&spans, 2, "table2_gpu");
        let text = Json::Arr(events).compact();
        let back = Json::parse(&text).unwrap();
        let arr = back.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            arr[2].get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(0.0)
        );
    }
}
