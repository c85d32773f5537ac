//! Trace lifetime: a trace lives as long as the call that replays it.
//!
//! `experiments::run` and `run_all` each lease their traces from the
//! process-wide run cache: within one call every configuration replays one
//! generation of each workload's trace, and nothing outlives the call.
//! The cache's counters are process-wide, so this binary holds one test.

use catch_core::experiments::{self, EvalConfig, Fidelity};
use catch_core::{CacheMode, RunCache};

/// Two suite experiments with no configuration in common, so the second
/// simulates (and needs traces) even right after the first.
const IDS: [&str; 2] = ["fig1", "fig11"];

fn eval(seed: u64) -> EvalConfig {
    EvalConfig {
        ops: 1_000,
        warmup: 250,
        seed,
        sample: None,
        fidelity: Fidelity::Ooo,
    }
}

/// `f`'s value and the number of traces generated while it ran.
fn built<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = RunCache::global().summary().trace_misses;
    let value = f();
    (value, RunCache::global().summary().trace_misses - before)
}

#[test]
fn each_call_builds_its_own_traces_once() {
    let workloads = catch_workloads::suite::all().len() as u64;

    // Back to back at one seed: the second call finds none of the
    // first's traces.
    let separate = eval(7_001);
    for id in IDS {
        let (_, n) = built(|| experiments::run(id, &separate));
        assert_eq!(n, workloads, "{id}: one build per workload");
    }

    // One call over both: every trace is built once and shared.
    let together = eval(7_002);
    let (reports, n) = built(|| experiments::run_all(&IDS, &together, Some(2)));
    assert_eq!(n, workloads, "run_all: one build per workload");

    // Sharing changes no byte: each report equals a run with no cache.
    let cache = RunCache::global();
    cache.set_mode(CacheMode::Off);
    for (id, report) in &reports {
        let alone = experiments::run(id, &together).to_string();
        assert_eq!(report.to_string(), alone, "{id}: report differs");
    }
    cache.set_mode(CacheMode::Memory);
}
