//! Stall skip-ahead parity across hierarchies: the skip-ahead cycle
//! loop must be *bit-identical* to the naive one-cycle-at-a-time loop —
//! every counter, every occupancy histogram bucket, and every emitted
//! observability event — on the hierarchies `engine_parity` does not
//! cover.
//!
//! `engine_parity` pins the skip on the large-L2 exclusive server
//! hierarchy. The wake reservations the skip jumps to are posted from
//! completion latencies the hierarchy computes, so a different shape —
//! the small-L2 inclusive client (back-invalidations, a bigger LLC) and
//! the paper's two-level no-L2 CATCH machine — is a different set of
//! latencies for a reservation to land on the wrong side of. These
//! tests run the same modes (ST, CATCH, MP, sampled, observed) there.
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

/// The two-level CATCH machine: no L2, 6.5 MB shared LLC.
fn no_l2_catch() -> SystemConfig {
    SystemConfig::baseline_exclusive()
        .without_l2(6656 << 10)
        .with_catch()
}

/// The naive loop (`false`) or the event-driven skip (`true`),
/// regardless of `CATCH_NO_SKIP`.
fn with_skip(mut config: SystemConfig, skip: bool) -> System {
    config.core.skip_ahead = skip;
    System::new(config)
}

#[test]
fn st_counters_bit_identical_on_every_golden_workload() {
    let naive = with_skip(SystemConfig::baseline_inclusive(), false);
    let skip = with_skip(SystemConfig::baseline_inclusive(), true);
    for name in SLICE {
        let trace = suite::by_name(name)
            .expect("known workload")
            .generate(OPS, SEED);
        let a = naive.run_st_warm(trace.clone(), WARMUP);
        let b = skip.run_st_warm(trace, WARMUP);
        assert_eq!(
            run_results_to_json(&[a]),
            run_results_to_json(&[b]),
            "skip-ahead diverged from the naive loop on {name} (inclusive)"
        );
    }
}

#[test]
fn catch_config_counters_bit_identical() {
    // The paper's target machine: TACT prefetchers and the criticality
    // detector over a two-level hierarchy.
    let naive = with_skip(no_l2_catch(), false);
    let skip = with_skip(no_l2_catch(), true);
    for name in ["tpcc_like", "xalanc_like", "sysmark_like"] {
        let trace = suite::by_name(name)
            .expect("known workload")
            .generate(OPS, SEED);
        let a = naive.run_st_warm(trace.clone(), WARMUP);
        let b = skip.run_st_warm(trace, WARMUP);
        assert_eq!(
            run_results_to_json(&[a]),
            run_results_to_json(&[b]),
            "skip-ahead diverged under no-L2 CATCH on {name}"
        );
    }
}

#[test]
fn event_streams_bit_identical() {
    // Every observability event — cycle stamps included — must match,
    // exactly as `--trace-events all` would record them.
    let collect = |skip: bool| {
        let system = with_skip(no_l2_catch(), skip);
        let trace = suite::by_name("xalanc_like")
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
    // Four cores sharing an inclusive LLC: one core's fill can
    // back-invalidate another's lines while both are idle.
    let mix = catch_workloads::mp::rate4_mixes()
        .into_iter()
        .find(|m| m.name == "rate4_tpcc_like")
        .expect("rate4 mix exists");
    let naive = with_skip(SystemConfig::baseline_inclusive().with_cores(4), false);
    let skip = with_skip(SystemConfig::baseline_inclusive().with_cores(4), true);
    let a = naive.run_mp(mix.generate(6_000, SEED));
    let b = skip.run_mp(mix.generate(6_000, SEED));
    assert_eq!(
        run_results_to_json(&a.per_core),
        run_results_to_json(&b.per_core),
        "skip-ahead diverged on the inclusive MP lockstep loop"
    );
}

#[test]
fn skip_and_engine_matrix_bit_identical() {
    // Skip on/off across every hierarchy × CATCH on/off: the naive loop
    // is the reference for each of the six machines.
    let trace = suite::by_name("bio_like")
        .expect("known workload")
        .generate(OPS, SEED);
    for base in [
        SystemConfig::baseline_exclusive(),
        SystemConfig::baseline_inclusive(),
        SystemConfig::baseline_exclusive().without_l2(6656 << 10),
    ] {
        for config in [base.clone(), base.with_catch()] {
            let name = config.name.clone();
            let a = with_skip(config.clone(), false).run_st_warm(trace.clone(), WARMUP);
            let b = with_skip(config, true).run_st_warm(trace.clone(), WARMUP);
            assert_eq!(
                run_results_to_json(&[a]),
                run_results_to_json(&[b]),
                "skip-ahead diverged from the naive loop under {name}"
            );
        }
    }
}

#[test]
fn sampled_runs_bit_identical() {
    // Sampled mode mixes fast-forward with detailed windows; both must
    // land on the same reconstruction regardless of the loop.
    let sample = SampleConfig::new(5_000).with_max_clusters(10);
    let trace = suite::by_name("excel_like")
        .expect("known workload")
        .generate(OPS, SEED);
    let naive = with_skip(no_l2_catch(), false).run_sampled(trace.clone(), &sample);
    let skip = with_skip(no_l2_catch(), true).run_sampled(trace, &sample);
    assert_eq!(
        run_results_to_json(&[naive.result]),
        run_results_to_json(&[skip.result]),
        "skip-ahead diverged in sampled mode under no-L2 CATCH"
    );
}
