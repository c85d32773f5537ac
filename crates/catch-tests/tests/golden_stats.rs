//! Golden-stats regression test: a fixed six-workload slice of the
//! suite, simulated at a pinned scale and seed, must reproduce the
//! committed per-counter JSON snapshot *byte for byte*.
//!
//! Every counter of every stats block flows through [`Counters`] into
//! the snapshot, so any behavioural change to the core, hierarchy,
//! criticality or prefetch models — intended or not — shows up as a
//! diff here. To re-bless after an intended change:
//!
//! ```sh
//! CATCH_BLESS=1 cargo test -p catch-tests --test golden_stats
//! git diff crates/catch-tests/tests/golden/
//! ```

use catch_core::report::json::run_results_to_json;
use catch_core::{RunResult, System, SystemConfig};
use catch_workloads::suite;

/// Pinned scale: large enough to exercise steady-state behaviour of
/// every model, small enough to keep the test quick.
const OPS: usize = 25_000;
const WARMUP: usize = 8_000;
const SEED: u64 = 42;

/// Behaviour-diverse slice: one workload per paper category plus the
/// two headline SPEC-like traces (same slice as the end-to-end tests).
const SLICE: [&str; 6] = [
    "xalanc_like",
    "astar_like",
    "bio_like",
    "sysmark_like",
    "tpcc_like",
    "excel_like",
];

const GOLDEN_PATH: &str = "tests/golden/suite_slice.json";
const GOLDEN: &str = include_str!("golden/suite_slice.json");

/// MP snapshot: one RATE-4 mix (four copies of xalanc_like sharing the
/// LLC) at a reduced per-core scale. Guards the multi-programmed path —
/// round-robin core interleaving, shared-LLC contention and the per-copy
/// address rebasing — which the ST snapshot cannot see.
const MP_OPS: usize = 6_000;
const MP_GOLDEN_PATH: &str = "tests/golden/mp_rate4.json";
const MP_GOLDEN: &str = include_str!("golden/mp_rate4.json");

/// Cheap-rung snapshot: the lite and fast rungs over [`SLICE`] at the
/// same scale under exclusive+CATCH, so the scoreboard core's timing and
/// the functional path's warm accesses are pinned counter for counter
/// (the parity tests only compare a rung with itself).
const RUNGS_GOLDEN_PATH: &str = "tests/golden/rungs_slice.json";
const RUNGS_GOLDEN: &str = include_str!("golden/rungs_slice.json");

fn slice_runs() -> Vec<RunResult> {
    let system = System::new(SystemConfig::baseline_exclusive());
    SLICE
        .iter()
        .map(|n| {
            let trace = suite::by_name(n)
                .expect("known workload")
                .generate(OPS, SEED);
            system.run_st_warm(trace, WARMUP)
        })
        .collect()
}

/// Blesses (under `CATCH_BLESS=1`) or byte-compares one snapshot,
/// reporting the first diverging line on mismatch.
fn check_golden(actual: &str, golden: &str, path: &str) {
    if std::env::var_os("CATCH_BLESS").is_some() {
        std::fs::write(path, actual).expect("write golden snapshot");
        eprintln!("blessed {path} ({} bytes)", actual.len());
        return;
    }
    if actual != golden {
        // Locate the first diverging line for a readable failure.
        let mismatch = actual
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, g))| a != g);
        if let Some((i, (a, g))) = mismatch {
            panic!(
                "golden-stats mismatch in {path} at line {}:\n  actual: {a}\n  golden: {g}\n\
                 re-bless with CATCH_BLESS=1 if the change is intended",
                i + 1
            );
        }
        panic!(
            "golden-stats mismatch in {path}: lengths differ (actual {} bytes, golden {} bytes); \
             re-bless with CATCH_BLESS=1 if the change is intended",
            actual.len(),
            golden.len()
        );
    }
}

#[test]
fn suite_slice_matches_golden_snapshot() {
    let actual = run_results_to_json(&slice_runs());
    check_golden(&actual, GOLDEN, GOLDEN_PATH);
}

#[test]
fn mp_rate4_matches_golden_snapshot() {
    let mix = catch_workloads::mp::rate4_mixes()
        .into_iter()
        .find(|m| m.name == "rate4_xalanc_like")
        .expect("rate4 mix exists for every suite workload");
    let system = System::new(SystemConfig::baseline_exclusive().with_cores(4));
    let mp = system.run_mp(mix.generate(MP_OPS, SEED));
    let actual = run_results_to_json(&mp.per_core);
    check_golden(&actual, MP_GOLDEN, MP_GOLDEN_PATH);
}

#[test]
fn cheap_rungs_match_snapshot() {
    let system = System::new(SystemConfig::baseline_exclusive().with_catch());
    let trace = |n: &str| {
        suite::by_name(n)
            .expect("known workload")
            .generate(OPS, SEED)
    };
    // Lite runs first, then fast, each in slice order.
    let runs: Vec<RunResult> = SLICE
        .iter()
        .map(|n| system.run_st_lite(trace(n), WARMUP))
        .chain(SLICE.iter().map(|n| system.run_st_fast(trace(n), WARMUP)))
        .collect();
    let actual = run_results_to_json(&runs);
    check_golden(&actual, RUNGS_GOLDEN, RUNGS_GOLDEN_PATH);
}

#[test]
fn golden_snapshot_covers_every_slice_workload() {
    // Guards against a stale snapshot silently shrinking coverage.
    for name in SLICE {
        assert!(
            GOLDEN.contains(&format!("\"workload\": \"{name}\"")),
            "snapshot is missing workload {name}"
        );
    }
}
