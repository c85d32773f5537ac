//! Fidelity-ladder guarantees (DESIGN.md §14):
//!
//! * the `timing-lite` rung tracks the OOO reference within its
//!   published error budgets on all six golden workloads at the
//!   standard evaluation scale (the acceptance criterion the
//!   `ladder-smoke` CI gate enforces);
//! * the `fast` rung's counters are bit-identical to the existing
//!   functional fast-forward path — it *is* that path, not a model of
//!   it;
//! * a ladder-mode sweep's Pareto frontier is OOO-revalidated: the
//!   frontier table renders byte-identical to an all-OOO sweep of the
//!   same grid, because every frontier candidate is re-run at the
//!   reference fidelity before it may appear;
//! * a checkpoint journal written under one fidelity plan refuses to
//!   resume under another, by name, instead of silently mixing rungs.
//!
//! Sweep tests share the process-global [`RunCache`] with
//! `tests/sweep.rs` conventions: a file-level mutex serializes them.

use catch_cache::{CacheHierarchy, FixedLatencyBackend, HierarchyConfig};
use catch_core::experiments::{
    ladder_errors, EvalConfig, Fidelity, GOLDEN_WORKLOADS, LITE_IPC_ERR_BUDGET_PCT,
    LITE_MPKI_ERR_BUDGET_PCT,
};
use catch_core::sweep::{run_sweep, SweepOptions, SweepSpec};
use catch_cpu::{run_fast_functional, Core, CoreConfig};
use catch_workloads::suite;
use std::path::PathBuf;
use std::sync::Mutex;

static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("catch-ladder-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(tag)
}

/// The lite rung's IPC and MPKI errors stay within the CI budgets on
/// every golden workload at the standard scale — the scale every
/// experiment and the `ladder-smoke` gate run at.
#[test]
fn lite_rung_is_within_error_budgets_on_the_golden_six() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let errs = ladder_errors(&EvalConfig::standard());
    assert_eq!(errs.lite.len(), GOLDEN_WORKLOADS.len());
    for rung in &errs.lite {
        assert!(
            rung.ipc_pct <= LITE_IPC_ERR_BUDGET_PCT,
            "{}: lite IPC error {:.2}% over the {LITE_IPC_ERR_BUDGET_PCT}% budget",
            rung.workload,
            rung.ipc_pct
        );
        assert!(
            rung.l2_mpki_pct <= LITE_MPKI_ERR_BUDGET_PCT
                && rung.llc_mpki_pct <= LITE_MPKI_ERR_BUDGET_PCT,
            "{}: lite MPKI error (L2 {:.2}%, LLC {:.2}%) over the \
             {LITE_MPKI_ERR_BUDGET_PCT}% budget",
            rung.workload,
            rung.l2_mpki_pct,
            rung.llc_mpki_pct
        );
    }
    let violations = errs.violations();
    assert!(violations.is_empty(), "gate violations: {violations:?}");
}

/// The fast rung is the existing functional fast-forward path, verified
/// bitwise on a real golden workload: driving [`Core::fast_forward`] by
/// hand over the same trace and hierarchy produces identical core
/// counters.
#[test]
fn fast_rung_counters_are_bit_identical_to_fast_forward() {
    let trace = || {
        suite::by_name("xalanc_like")
            .expect("golden workload exists")
            .generate(6_000, 42)
    };
    let hier = || {
        CacheHierarchy::new(
            &HierarchyConfig::skylake_server(1),
            Box::new(FixedLatencyBackend::new(200)),
        )
    };
    let config = CoreConfig::baseline();
    let via_rung = run_fast_functional(0, trace(), config.clone(), &mut hier(), 1_500);
    let manual = {
        let mut h = hier();
        let mut core = Core::new(0, trace(), config);
        core.fast_forward(&mut h, 1_500);
        core.end_warmup();
        h.reset_stats();
        core.fast_forward(&mut h, usize::MAX);
        core.stats()
    };
    assert_eq!(via_rung, manual, "fast rung is the fast-forward path");
}

/// Ladder-mode sweeps OOO-revalidate the frontier: on the same grid,
/// the lite-rung sweep's Pareto frontier table is byte-identical to the
/// all-OOO sweep's, and the report says how many points were validated.
#[test]
fn ladder_sweep_frontier_is_byte_identical_to_all_ooo() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let spec = SweepSpec::quick();
    let eval = EvalConfig {
        ops: 2_000,
        warmup: 500,
        seed: 42,
        sample: None,
        fidelity: Fidelity::Ooo,
    };
    let opts = SweepOptions::default;
    let reference = run_sweep(&spec, &eval, &opts()).expect("all-OOO sweep");
    assert_eq!(reference.validated, 0, "plain sweeps validate nothing");

    let ladder =
        run_sweep(&spec, &eval.with_fidelity(Fidelity::Lite), &opts()).expect("ladder sweep");
    assert!(
        ladder.validated > 0 && ladder.validated <= ladder.total,
        "ladder sweeps validate spot checks and frontier candidates \
         (got {} of {})",
        ladder.validated,
        ladder.total
    );

    let frontier_of = |report: &str| {
        report
            .split("All completed points")
            .next()
            .expect("frontier table precedes the full table")
            .to_string()
    };
    assert_eq!(
        frontier_of(&ladder.report.to_string()),
        frontier_of(&reference.report.to_string()),
        "OOO-revalidated frontier renders byte-identical to the all-OOO sweep"
    );
    let note = ladder
        .report
        .notes
        .iter()
        .find(|n| n.contains("fidelity ladder"))
        .expect("ladder reports carry the validation note");
    assert!(note.contains("'lite' rung"), "note names the rung: {note}");
}

/// A checkpoint journal records its fidelity plan and refuses to resume
/// under a different one, with a diagnostic that names both plans.
#[test]
fn journal_written_under_one_fidelity_plan_rejects_another() {
    let _guard = CACHE_LOCK.lock().unwrap();
    let spec = SweepSpec::quick();
    let eval = EvalConfig {
        ops: 2_000,
        warmup: 500,
        seed: 42,
        sample: None,
        fidelity: Fidelity::Lite,
    };
    let journal = scratch("fidelity-plan.journal");
    let _ = std::fs::remove_file(&journal);
    let opts = |limit| SweepOptions {
        jobs: None,
        checkpoint: Some(journal.clone()),
        limit,
    };
    run_sweep(&spec, &eval, &opts(Some(3))).expect("partial lite sweep");

    let err = run_sweep(&spec, &eval.with_fidelity(Fidelity::Ooo), &opts(None))
        .expect_err("a foreign fidelity plan must be rejected");
    assert!(
        err.contains("fidelity plan 'lite'") && err.contains("runs 'ooo'"),
        "diagnostic names both plans: {err}"
    );

    // The same plan still resumes cleanly.
    let resumed = run_sweep(&spec, &eval, &opts(None)).expect("same-plan resume");
    assert_eq!(resumed.resumed, 3, "journaled points restored");
    assert_eq!(resumed.remaining, 0);
}
