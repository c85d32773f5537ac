//! Cycle-loop parity: stall skip-ahead over the `timeq` calendar queue
//! must be *bit-identical* to the naive one-cycle-at-a-time loop —
//! every counter, every occupancy histogram bucket, and every emitted
//! observability event, on every golden workload, in every run mode
//! (ST, CATCH, MP, sampled, observed) and on the timing-lite rung.
//!
//! When a tick makes no progress, the skip jumps the clock to the
//! earliest wake reservation the core posted when it armed an event
//! (a µop's completion, an I-cache stall's end, a redirect resume),
//! bulk-reproducing the per-cycle side effects (occupancy samples,
//! I-cache stall accounting, periodic maintenance) the naive loop
//! would have performed. Every reservation is a lower bound on the
//! next progress cycle, so any divergence here means a wake was posted
//! on the wrong side of an event — or not at all.
//!
//! `CoreConfig::skip_ahead` (env: `CATCH_NO_SKIP=1` for the naive
//! loop) exists so both loops stay runnable forever.

use catch_core::report::json::run_results_to_json;
use catch_core::{EventClass, Obs, SampleConfig, System, SystemConfig, VecSink};
use catch_workloads::suite;
use std::sync::{Arc, Mutex};

/// Same slice, scale and seed as the golden-stats snapshot.
const SLICE: [&str; 6] = [
    "xalanc_like",
    "astar_like",
    "bio_like",
    "sysmark_like",
    "tpcc_like",
    "excel_like",
];
const OPS: usize = 25_000;
const WARMUP: usize = 8_000;
const SEED: u64 = 42;

/// The naive loop (`false`) or the event-driven skip (`true`),
/// regardless of `CATCH_NO_SKIP`.
fn with_skip(mut config: SystemConfig, skip: bool) -> System {
    config.core.skip_ahead = skip;
    System::new(config)
}

#[test]
fn st_counters_bit_identical_on_every_golden_workload() {
    let naive = with_skip(SystemConfig::baseline_exclusive(), false);
    let skip = with_skip(SystemConfig::baseline_exclusive(), true);
    for name in SLICE {
        let trace = suite::by_name(name)
            .expect("known workload")
            .generate(OPS, SEED);
        let a = naive.run_st_warm(trace.clone(), WARMUP);
        let b = skip.run_st_warm(trace, WARMUP);
        assert_eq!(
            run_results_to_json(&[a]),
            run_results_to_json(&[b]),
            "skip-ahead diverged from the naive loop on {name}"
        );
    }
}

#[test]
fn catch_config_counters_bit_identical() {
    // The full CATCH machine adds the TACT prefetchers (whose arrivals
    // gate nothing and post no wake) and the criticality detector on
    // top of the baseline pipeline.
    let naive = with_skip(SystemConfig::baseline_exclusive().with_catch(), false);
    let skip = with_skip(SystemConfig::baseline_exclusive().with_catch(), true);
    for name in ["tpcc_like", "xalanc_like"] {
        let trace = suite::by_name(name)
            .expect("known workload")
            .generate(OPS, SEED);
        let a = naive.run_st_warm(trace.clone(), WARMUP);
        let b = skip.run_st_warm(trace, WARMUP);
        assert_eq!(
            run_results_to_json(&[a]),
            run_results_to_json(&[b]),
            "skip-ahead diverged under CATCH on {name}"
        );
    }
}

#[test]
fn lite_counters_bit_identical_on_every_golden_workload() {
    // The timing-lite rung posts its own gate wakes (window, MSHR,
    // fetch stall, redirect); its skip must be exact too.
    for config in [
        SystemConfig::baseline_exclusive(),
        SystemConfig::baseline_exclusive().with_catch(),
    ] {
        let naive = with_skip(config.clone(), false);
        let skip = with_skip(config, true);
        for name in SLICE {
            let trace = suite::by_name(name)
                .expect("known workload")
                .generate(OPS, SEED);
            let a = naive.run_st_lite(trace.clone(), WARMUP);
            let b = skip.run_st_lite(trace, WARMUP);
            assert_eq!(
                run_results_to_json(&[a]),
                run_results_to_json(&[b]),
                "lite skip-ahead diverged on {name} under {}",
                naive.config().name
            );
        }
    }
}

#[test]
fn event_streams_bit_identical() {
    // Every observability event — cycle stamps included — must match,
    // exactly as `--trace-events all` would record them. This is the
    // strongest form of the parity claim: a wake one cycle late moves
    // an occupancy sample or stall increment even when the final
    // counters happen to agree.
    let collect = |skip: bool| {
        let system = with_skip(SystemConfig::baseline_exclusive().with_catch(), skip);
        let trace = suite::by_name("tpcc_like")
            .expect("known workload")
            .generate(6_000, SEED);
        let sink = Arc::new(Mutex::new(VecSink::new()));
        let obs = Obs::attached(sink.clone(), EventClass::ALL);
        let _ = system.run_st_obs(trace, &obs);
        drop(obs);
        let events = sink.lock().expect("sink lock").take();
        events
    };
    let naive = collect(false);
    let skip = collect(true);
    assert_eq!(naive.len(), skip.len(), "event counts diverged");
    for (i, (a, b)) in naive.iter().zip(skip.iter()).enumerate() {
        assert_eq!(a, b, "event {i} diverged");
    }
}

#[test]
fn mp_counters_bit_identical() {
    // The lockstep driver jumps only when every live core is idle, and
    // only to the minimum wake across cores.
    let mix = catch_workloads::mp::rate4_mixes()
        .into_iter()
        .find(|m| m.name == "rate4_xalanc_like")
        .expect("rate4 mix exists");
    let naive = with_skip(SystemConfig::baseline_exclusive().with_cores(4), false);
    let skip = with_skip(SystemConfig::baseline_exclusive().with_cores(4), true);
    let a = naive.run_mp(mix.generate(6_000, SEED));
    let b = skip.run_mp(mix.generate(6_000, SEED));
    assert_eq!(
        run_results_to_json(&a.per_core),
        run_results_to_json(&b.per_core),
        "skip-ahead diverged on the MP lockstep loop"
    );
}

#[test]
fn sampled_runs_bit_identical() {
    // Sampled mode exercises drain (fetchless skips) and fast-forward
    // (which must discard stale reservations).
    let sample = SampleConfig::new(5_000).with_max_clusters(10);
    let trace = suite::by_name("astar_like")
        .expect("known workload")
        .generate(OPS, SEED);
    let naive =
        with_skip(SystemConfig::baseline_exclusive(), false).run_sampled(trace.clone(), &sample);
    let skip = with_skip(SystemConfig::baseline_exclusive(), true).run_sampled(trace, &sample);
    assert_eq!(
        run_results_to_json(&[naive.result]),
        run_results_to_json(&[skip.result]),
        "skip-ahead diverged in sampled mode"
    );
}
