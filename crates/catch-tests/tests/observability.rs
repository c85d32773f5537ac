//! Observability-layer regression tests.
//!
//! Three guarantees:
//!
//! 1. **Stats neutrality** — attaching a sink (even one receiving every
//!    event class) must not change a single simulation counter: the
//!    stats JSON of an observed run is byte-identical to a silent run.
//! 2. **Trace stability** — the event stream for a pinned workload,
//!    scale and seed is deterministic; a golden summary (event count,
//!    per-name taxonomy histogram, first/last records) guards it. To
//!    re-bless after an intended change:
//!
//!    ```sh
//!    CATCH_BLESS=1 cargo test -p catch-tests --test observability
//!    git diff crates/catch-tests/tests/golden/event_trace.txt
//!    ```
//!
//! 3. **Export integrity** — the Chrome exporter writes valid JSON, and
//!    the part-file merge produces byte-identical traces for every
//!    worker count (same mechanism the `--trace-events all` mode of the
//!    `run_experiment` example uses).

use catch_core::experiments::runner::Runner;
use catch_core::experiments::Fidelity;
use catch_core::report::json::run_results_to_json;
use catch_core::{
    merge_parts, part_path, ChromeTraceSink, EventClass, NullSink, Obs, System, SystemConfig,
    TraceFormat, VecSink,
};
use catch_obs::json_lint::validate_json;
use catch_workloads::suite;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const OPS: usize = 6_000;
const SEED: u64 = 42;
const WORKLOAD: &str = "tpcc_like";

const GOLDEN_PATH: &str = "tests/golden/event_trace.txt";
const GOLDEN: &str = include_str!("golden/event_trace.txt");

fn catch_system() -> System {
    System::new(SystemConfig::baseline_exclusive().with_catch())
}

fn golden_trace() -> Vec<catch_core::Event> {
    let trace = suite::by_name(WORKLOAD)
        .expect("golden workload exists")
        .generate(OPS, SEED);
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let obs = Obs::attached(sink.clone(), EventClass::ALL);
    let _ = catch_system().run_st_obs(trace, &obs);
    drop(obs);
    let events = sink.lock().expect("sink lock").take();
    events
}

/// Renders the trace summary the golden file pins: total event count,
/// the per-name histogram in taxonomy-name order, and the first/last
/// records verbatim.
fn trace_summary(events: &[catch_core::Event]) -> String {
    let mut out = String::new();
    out.push_str(&format!("workload {WORKLOAD} ops {OPS} seed {SEED}\n"));
    out.push_str(&format!("events {}\n", events.len()));
    let mut counts: Vec<(&'static str, u64)> = Vec::new();
    for e in events {
        match counts.iter_mut().find(|(n, _)| *n == e.name()) {
            Some((_, c)) => *c += 1,
            None => counts.push((e.name(), 1)),
        }
    }
    counts.sort();
    for (name, n) in counts {
        out.push_str(&format!("{name} {n}\n"));
    }
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        out.push_str(&format!("first {}\n", first.to_jsonl()));
        out.push_str(&format!("last {}\n", last.to_jsonl()));
    }
    out
}

#[test]
fn event_trace_matches_golden_snapshot() {
    let actual = trace_summary(&golden_trace());
    if std::env::var_os("CATCH_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden trace summary");
        eprintln!("blessed {GOLDEN_PATH} ({} bytes)", actual.len());
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "event-trace summary diverged from {GOLDEN_PATH}; \
         re-bless with CATCH_BLESS=1 if the change is intended"
    );
}

#[test]
fn event_trace_is_cycle_ordered_per_component_and_covers_taxonomy() {
    let events = golden_trace();
    assert!(!events.is_empty());
    // Cycle stamps never decrease (a single core drives every emit in
    // program order within a cycle).
    for w in events.windows(2) {
        assert!(
            w[0].cycle <= w[1].cycle,
            "events out of cycle order: {} then {}",
            w[0].to_jsonl(),
            w[1].to_jsonl()
        );
    }
    for class in [
        EventClass::CORE,
        EventClass::OCCUPANCY,
        EventClass::CACHE,
        EventClass::DRAM,
        EventClass::CRIT,
    ] {
        assert!(
            events.iter().any(|e| e.class() == class),
            "trace covers no {class:?} events"
        );
    }
}

#[test]
fn event_trace_is_byte_identical_across_cycle_engines() {
    // The event-driven skip jumps the clock between posted wake cycles;
    // a queue target even one cycle off would shift an event's stamp.
    // The full JSONL rendering of every event must match the naive
    // loop's byte for byte — and both must match the blessed golden
    // summary, so the snapshot never silently tracks a drifting skip.
    let collect = |skip: bool| {
        let trace = suite::by_name(WORKLOAD)
            .expect("golden workload exists")
            .generate(OPS, SEED);
        let mut config = SystemConfig::baseline_exclusive().with_catch();
        config.core.skip_ahead = skip;
        let sink = Arc::new(Mutex::new(VecSink::new()));
        let obs = Obs::attached(sink.clone(), EventClass::ALL);
        let _ = System::new(config).run_st_obs(trace, &obs);
        drop(obs);
        let events = sink.lock().expect("sink lock").take();
        events
    };
    let naive = collect(false);
    let skip = collect(true);
    let naive_bytes: Vec<String> = naive.iter().map(|e| e.to_jsonl()).collect();
    let skip_bytes: Vec<String> = skip.iter().map(|e| e.to_jsonl()).collect();
    assert_eq!(
        naive_bytes, skip_bytes,
        "event trace bytes diverged between the naive loop and skip-ahead"
    );
    assert_eq!(
        trace_summary(&skip),
        GOLDEN,
        "skip-ahead trace summary diverged from the blessed golden"
    );
}

#[test]
fn observed_run_stats_are_byte_identical_to_silent_run() {
    let spec = suite::by_name(WORKLOAD).expect("golden workload exists");
    let system = catch_system();
    let silent = system.run_st_warm(spec.generate(OPS, SEED), 1_000);
    let obs = Obs::attached(Arc::new(Mutex::new(NullSink)), EventClass::ALL);
    let observed = system.run(spec.generate(OPS, SEED), Fidelity::Ooo, 1_000, &obs);
    assert_eq!(
        run_results_to_json(std::slice::from_ref(&silent)),
        run_results_to_json(std::slice::from_ref(&observed)),
        "attaching a sink changed simulation statistics"
    );
}

#[test]
fn chrome_trace_export_is_valid_json() {
    let dir = std::env::temp_dir().join("catch-tests-chrome-export");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.json");
    let trace = suite::by_name(WORKLOAD)
        .expect("golden workload exists")
        .generate(OPS, SEED);
    let sink = Arc::new(Mutex::new(
        ChromeTraceSink::create(&path).expect("create trace file"),
    ));
    let obs = Obs::attached(sink.clone(), EventClass::ALL);
    let _ = catch_system().run_st_obs(trace, &obs);
    obs.finish().expect("flush trace file");
    let events = sink.lock().expect("sink lock").events();
    assert!(events > 0);
    let text = std::fs::read_to_string(&path).expect("read trace file");
    validate_json(&text).expect("chrome trace is valid JSON");
    assert!(text.starts_with("{\"traceEvents\":["));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_trace_is_byte_identical_across_job_counts() {
    let workloads = ["xalanc_like", "astar_like", "tpcc_like"];
    let dir = std::env::temp_dir().join("catch-tests-trace-merge");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let system = catch_system();
    let run_with_jobs = |jobs: usize| -> Vec<u8> {
        let out = dir.join(format!("trace-j{jobs}.json"));
        let parts: Vec<PathBuf> = (0..workloads.len()).map(|i| part_path(&out, i)).collect();
        Runner::with_jobs(jobs).run(&workloads, |i, name| {
            let trace = suite::by_name(name)
                .expect("known workload")
                .generate(2_000, SEED);
            let sink = Arc::new(Mutex::new(
                ChromeTraceSink::create_fragment(&part_path(&out, i)).expect("create part"),
            ));
            let obs = Obs::attached(sink, EventClass::ALL);
            let _ = system.run_st_obs(trace, &obs);
            obs.finish().expect("flush part");
        });
        let merged = merge_parts(&parts, &out, TraceFormat::Chrome).expect("merge parts");
        assert!(merged > 0);
        std::fs::read(&out).expect("read merged trace")
    };
    let serial = run_with_jobs(1);
    let parallel = run_with_jobs(4);
    assert_eq!(
        serial, parallel,
        "merged trace bytes depend on the worker count"
    );
    validate_json(&String::from_utf8(serial).expect("utf8 trace")).expect("merged trace parses");
    std::fs::remove_dir_all(&dir).ok();
}
