//! End-to-end guarantees of the design-space sweep engine (DESIGN.md
//! §13) and the fair-share cost reconciliation it leans on:
//!
//! * an interrupted sweep resumes from its checkpoint journal with
//!   **zero recompute** (run-cache miss delta) and a final report
//!   **byte-identical** to an uninterrupted run;
//! * a daemon serves the Pareto report through the `sweep` priority
//!   class, byte-identical to a local `run_sweep`;
//! * a client replaying warm (fully cached) work is billed its
//!   *measured* cost (~zero), not the nominal dispatch charge.
//!
//! The tests in this binary share one process and therefore one global
//! [`RunCache`]; a file-level mutex serializes them so miss-delta
//! assertions stay exact.

use catch_core::experiments::{EvalConfig, Fidelity};
use catch_core::sweep::{run_sweep, SweepOptions, SweepSpec};
use catch_core::RunCache;
use catch_server::{Client, Priority, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Mutex;

static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> EvalConfig {
    EvalConfig {
        ops: 2_000,
        warmup: 500,
        seed: 42,
        sample: None,
        fidelity: Fidelity::Ooo,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("catch-sweep-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(tag)
}

#[test]
fn interrupted_sweep_resumes_byte_identically_with_zero_recompute() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let spec = SweepSpec::quick();
    let eval = tiny();
    let workloads = spec.workloads.len() as u64;

    // Reference: one uninterrupted run against its own journal.
    let ref_journal = scratch("reference.journal");
    let _ = std::fs::remove_file(&ref_journal);
    let reference = run_sweep(
        &spec,
        &eval,
        &SweepOptions {
            jobs: None,
            checkpoint: Some(ref_journal),
            limit: None,
        },
    )
    .expect("reference sweep");
    assert_eq!(reference.computed, reference.total);
    assert_eq!(reference.remaining, 0);

    // "Kill" a second sweep after 5 points (cooperative interruption:
    // exactly what a SIGKILL mid-run leaves behind, since every
    // completed point is journaled before the next one starts).
    let journal = scratch("interrupted.journal");
    let _ = std::fs::remove_file(&journal);
    let opts = SweepOptions {
        jobs: None,
        checkpoint: Some(journal),
        limit: None,
    };
    let partial = run_sweep(
        &spec,
        &eval,
        &SweepOptions {
            limit: Some(5),
            ..opts.clone()
        },
    )
    .expect("interrupted sweep");
    assert_eq!(partial.computed, 5);
    assert_eq!(partial.remaining, reference.total - 5);
    let partial_text = partial.report.to_string();
    assert!(
        partial_text.contains("partial sweep"),
        "interrupted reports say so: {partial_text}"
    );

    // Resume with a cold in-memory cache: the journaled 5 points must
    // come back without a single simulation; only the rest computes.
    RunCache::global().reset_memory();
    let before = RunCache::global().summary().misses;
    let resumed = run_sweep(&spec, &eval, &opts).expect("resumed sweep");
    let miss_delta = RunCache::global().summary().misses - before;
    assert_eq!(resumed.resumed, 5, "journaled points restored");
    assert_eq!(resumed.computed, reference.total - 5);
    assert_eq!(
        miss_delta,
        (reference.total as u64 - 5) * workloads,
        "resume simulated only the unjournaled points (baseline came from the header)"
    );
    assert_eq!(
        resumed.report.to_string(),
        reference.report.to_string(),
        "resumed report is byte-identical to the uninterrupted run"
    );

    // A second resume of the now-complete journal is pure replay.
    RunCache::global().reset_memory();
    let before = RunCache::global().summary().misses;
    let replay = run_sweep(&spec, &eval, &opts).expect("replayed sweep");
    assert_eq!(
        RunCache::global().summary().misses,
        before,
        "zero recompute"
    );
    assert_eq!((replay.computed, replay.resumed), (0, reference.total));
    assert_eq!(replay.report.to_string(), reference.report.to_string());
}

#[test]
fn daemon_serves_sweep_reports_through_the_sweep_priority_class() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let eval = tiny();
    let local = run_sweep(&SweepSpec::quick(), &eval, &SweepOptions::default())
        .expect("local sweep")
        .report
        .to_string();

    let sock = scratch("sweep-daemon.sock");
    let handle = Server::bind(
        &sock,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind daemon");
    let served = Client::connect(&sock)
        .expect("connect")
        .with_identity("carol", Priority::Sweep)
        .run("sweep", &eval)
        .expect("served sweep");
    assert_eq!(served, local, "served Pareto report matches a local run");
    handle.begin_drain();
    handle.wait().expect("clean drain");
}

#[test]
fn warm_replays_are_billed_measured_cost_not_nominal() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let eval = tiny();
    let sock = scratch("fair-share.sock");
    let handle = Server::bind(
        &sock,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind daemon");
    let run_as = |name: &str| {
        Client::connect(&sock)
            .expect("connect")
            .with_identity(name, Priority::Sweep)
            .run("fig1", &eval)
            .expect("run succeeds")
    };
    // dana pays for the cold simulations; erin replays them warm.
    let cold = run_as("dana");
    let warm = run_as("erin");
    assert_eq!(cold, warm, "warm replay returns identical bytes");

    let mut client = Client::connect(&sock).expect("connect");
    let (sched, _, _) = client.stats().expect("stats");
    let share = |who: &str| {
        sched
            .shares
            .iter()
            .find(|(c, _)| c == who)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    assert!(
        share("dana") > eval.ops as u64,
        "cold work bills at least one simulation beyond the nominal charge \
         (got {})",
        share("dana")
    );
    assert_eq!(
        share("erin"),
        0,
        "a fully warm replay reconciles to zero instead of the nominal {}",
        eval.ops
    );
    handle.begin_drain();
    handle.wait().expect("clean drain");
}
