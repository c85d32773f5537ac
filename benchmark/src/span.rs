//! In-memory spans around the benchmark's calls into each layer
//! (`std` only).
//!
//! A [`Lane`] is one thread's recorder: `begin`/`end` push a span whose
//! parent is the span open on that lane (or, for a top-level span of a
//! helper thread, the span of the thread it works for). Lanes are handed
//! back to the [`Tracer`] when their thread is done; nothing is written
//! until the benchmark ends. With tracing off every call is one branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Reference to a recorded span: lane id + index within the lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanRef {
    /// Lane (thread) that recorded the span.
    pub lane: u32,
    /// Index within the lane.
    pub idx: u32,
}

/// One finished (or still open, `end_ns == 0`) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `system.run_st_warm`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanRef>,
    /// Own identity.
    pub id: SpanRef,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Lane::begin`]; pass it to [`Lane::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// One thread's span recorder.
pub struct Lane {
    id: u32,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    root_parent: Option<SpanRef>,
}

impl Lane {
    /// Opens a span named `name` under the lane's innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = match self.stack.last() {
            Some(&top) => Some(SpanRef {
                lane: self.id,
                idx: top,
            }),
            None => self.root_parent,
        };
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            id: SpanRef { lane: self.id, idx },
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` (and, defensively, anything opened inside it that
    /// was left open).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The innermost open span, for handing to a helper thread's lane.
    pub fn current(&self) -> Option<SpanRef> {
        self.stack.last().map(|&idx| SpanRef { lane: self.id, idx })
    }

    /// Makes `caused_by` the parent of the lane's next top-level spans
    /// (a helper thread that outlives one pass of its spawner).
    pub fn set_cause(&mut self, caused_by: Option<SpanRef>) {
        self.root_parent = caused_by;
    }
}

/// Owner of every lane's spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_lane: AtomicU32,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; `enabled == false` makes every lane a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_lane: AtomicU32::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A recorder for the calling thread.
    pub fn lane(&self) -> Lane {
        Lane {
            // A statistic-like id: publishes no other data.
            id: self.next_lane.fetch_add(1, Ordering::Relaxed),
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            root_parent: None,
        }
    }

    /// Takes a finished lane's spans.
    pub fn collect(&self, mut lane: Lane) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        for idx in lane.stack.drain(..) {
            lane.spans[idx as usize].end_ns = now;
        }
        self.done
            .lock()
            .expect("a lane panicked while being collected")
            .append(&mut lane.spans);
    }

    /// Every collected span, ordered by (lane, index).
    pub fn finish(self) -> Vec<Span> {
        let mut spans = self
            .done
            .into_inner()
            .expect("a lane panicked while being collected");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (children on other lanes may overlap each other,
/// so coverage is the union of their intervals clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<SpanRef, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Host ns one `begin`/`end` pair costs on this machine (median of a few
/// batches on a scratch lane); the traced run charges this per span.
pub fn calibrate_span_cost_ns() -> f64 {
    const BATCH: usize = 20_000;
    let tracer = Tracer::new(true);
    let mut per_span = Vec::new();
    for _ in 0..5 {
        let mut lane = tracer.lane();
        let t = Instant::now();
        for _ in 0..BATCH {
            let open = lane.begin("calibrate");
            lane.end(std::hint::black_box(open));
        }
        per_span.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    crate::stats::median(&per_span)
}

/// Renders spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
/// one process `pid` named after the workload, one thread per lane,
/// complete (`"ph":"X"`) events with the span's id, its parent's id and
/// the workload in `args`.
pub fn chrome_trace_json(workload: &str, pid: usize, spans: &[Span]) -> String {
    let id = |r: SpanRef| format!("{}.{}", r.lane, r.idx);
    let mut out = format!(
        "{{\"traceEvents\":[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\
         \"args\":{{\"name\":\"{workload}\"}}}}"
    );
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| format!("\"{}\"", id(p)));
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{pid},\"tid\":{},\"args\":{{\"id\":\"{}\",\"parent\":{},\"workload\":\"{}\"}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id.lane,
            id(s.id),
            parent,
            workload
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(lane: u32, idx: u32, start: u64, end: u64, parent: Option<(u32, u32)>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent: parent.map(|(lane, idx)| SpanRef { lane, idx }),
            id: SpanRef { lane, idx },
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = vec![
            span(0, 0, 0, 100, None),
            span(0, 1, 10, 30, Some((0, 0))),
            span(0, 2, 40, 90, Some((0, 0))),
            span(0, 3, 50, 60, Some((0, 2))),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_uses_the_union_of_overlapping_children() {
        // Two helper-thread children overlap between 20 and 60, and one
        // sticks out past the parent's end; coverage is 10..80 = 70.
        let spans = vec![
            span(0, 0, 0, 80, None),
            span(1, 0, 10, 60, Some((0, 0))),
            span(2, 0, 20, 120, Some((0, 0))),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
        // A child whose parent was never collected is simply a root.
        let orphan = vec![span(3, 0, 5, 9, Some((9, 9)))];
        assert_eq!(self_times_ns(&orphan), vec![4]);
    }

    #[test]
    fn lanes_nest_and_link_across_threads() {
        let tracer = Tracer::new(true);
        let mut main = tracer.lane();
        let pass = main.begin("pass");
        let cause = main.current();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut lane = tracer.lane();
                lane.set_cause(cause);
                lane.span("client.run", || ());
                tracer.collect(lane);
            });
        });
        let inner = main.begin("system.run_st_warm");
        main.end(inner);
        main.end(pass);
        tracer.collect(main);
        let spans = tracer.finish();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("recorded");
        assert_eq!(by_name("pass").parent, None);
        assert_eq!(by_name("client.run").parent, Some(by_name("pass").id));
        assert_eq!(
            by_name("system.run_st_warm").parent,
            Some(by_name("pass").id)
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let json = chrome_trace_json("st_detail", 3, &spans);
        assert!(json.contains("\"name\":\"client.run\""));
        assert!(json.contains("\"workload\":\"st_detail\""));
        assert_eq!(
            json.matches("\"pid\":3,").count(),
            4,
            "process name + spans"
        );
        assert!(crate::json::parse(&json).is_ok(), "valid JSON: {json}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let mut lane = tracer.lane();
        let v = lane.span("x", || 7);
        assert_eq!(v, 7);
        assert_eq!(lane.current(), None);
        tracer.collect(lane);
        assert!(tracer.finish().is_empty());
    }

    #[test]
    fn end_closes_spans_left_open_inside() {
        let tracer = Tracer::new(true);
        let mut lane = tracer.lane();
        let outer = lane.begin("outer");
        let _leaked = lane.begin("inner");
        lane.end(outer);
        assert_eq!(lane.current(), None);
        tracer.collect(lane);
        assert!(tracer.finish().iter().all(|s| s.end_ns > 0));
    }
}
