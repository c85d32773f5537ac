//! Shared driver for the figure-regeneration bench targets.
//!
//! Each `cargo bench` target under `benches/` regenerates one table or
//! figure of the CATCH paper by calling [`run_experiment`] with its
//! experiment id, timed by the first-party [`catch_harness`] bench
//! harness (warm-up + timed iterations, min/median/mean wall clock and
//! throughput; no external bench framework). The evaluation scale can be
//! adjusted with environment variables:
//!
//! * `CATCH_OPS` — micro-ops per workload (default: the standard scale).
//! * `CATCH_WARMUP` — warm-up micro-ops excluded from measurement.
//! * `CATCH_SEED` — trace-generation seed.
//! * `CATCH_FIDELITY` — model rung (`fast` | `lite` | `ooo`; default
//!   `ooo`). The two throughput-tracking benches (`sim_throughput`,
//!   `suite_throughput`) ignore this and pin the OOO reference rung so
//!   their checked-in baselines stay comparable across runs.
//! * `CATCH_JOBS` — worker threads for suite runs (default: all cores).
//! * `CATCH_BENCH_ITERS` / `CATCH_BENCH_WARMUP_ITERS` — timed and
//!   warm-up iterations of the whole experiment (defaults 3 and 1).
//! * `CATCH_BENCH_JSON` — also print a machine-readable JSON summary.
//!
//! Unset variables keep their defaults; a malformed value (say
//! `CATCH_OPS=80k` or `CATCH_FIDELITY=lightning`) panics naming the
//! variable instead of silently running the default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use catch_core::experiments::{self, EvalConfig, Fidelity};
use catch_harness::{env_var, Harness};

/// Reads the evaluation scale from the environment (see crate docs).
///
/// # Panics
///
/// Panics on a malformed value, naming the variable.
pub fn eval_from_env() -> EvalConfig {
    let mut eval = EvalConfig::standard();
    if let Some(ops) = env_var("CATCH_OPS", str::parse) {
        eval.ops = ops;
    }
    if let Some(warmup) = env_var("CATCH_WARMUP", str::parse) {
        eval.warmup = warmup;
    }
    if let Some(seed) = env_var("CATCH_SEED", str::parse) {
        eval.seed = seed;
    }
    if let Some(fidelity) = env_var("CATCH_FIDELITY", Fidelity::parse) {
        eval.fidelity = fidelity;
    }
    eval
}

/// Forces the OOO reference rung, warning when the environment asked
/// for another one. The throughput-tracking benches call this so their
/// checked-in `reference` blocks always measure the same model.
pub fn pin_ooo(eval: &mut EvalConfig) {
    if eval.fidelity != Fidelity::Ooo {
        eprintln!(
            "[catch-bench] CATCH_FIDELITY={} ignored: throughput baselines are \
             measured on the ooo reference rung",
            eval.fidelity.label()
        );
        eval.fidelity = Fidelity::Ooo;
    }
}

/// Runs one experiment by id, prints its report (the same rows/series
/// the paper's figure or table reports) and a wall-clock summary from
/// the bench harness.
pub fn run_experiment(id: &str) {
    let eval = eval_from_env();
    eprintln!(
        "[catch-bench] running {id} at ops={} warmup={} seed={}",
        eval.ops, eval.warmup, eval.seed
    );
    let mut harness = Harness::new(format!("experiment {id}"));
    let mut report = None;
    // Nominal throughput unit: µops of one workload trace (experiments
    // differ in how many (workload, config) runs they fan out, so this is
    // a relative, not absolute, simulation rate).
    harness.bench(id, eval.ops as u64, || {
        report = Some(experiments::run(id, &eval));
    });
    println!("{}", report.expect("at least one timed iteration"));
    harness.report();
}
