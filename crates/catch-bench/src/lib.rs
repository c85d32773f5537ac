//! Shared scale knobs for the simulator benches.
//!
//! The `cargo bench` targets under `benches/` measure the simulator
//! itself (throughput, sampling speedup, microbenchmarks) on the
//! first-party [`catch_harness`] harness; no external bench framework.
//! The paper's tables and figures are regenerated by the experiment
//! CLI instead: `cargo run --release --example run_experiment -- fig10`
//! (or `all`). The benches read their scale from the environment:
//!
//! * `CATCH_OPS` — micro-ops per workload (default: the standard scale).
//! * `CATCH_SEED` — trace-generation seed.
//! * `CATCH_BENCH_ITERS` / `CATCH_BENCH_WARMUP_ITERS` — timed and
//!   warm-up iterations (defaults 3 and 1).
//! * `CATCH_BENCH_JSON` — also print a machine-readable JSON summary.
//!
//! Unset variables keep their defaults; a malformed value (say
//! `CATCH_OPS=80k`) panics naming the variable instead of silently
//! running the default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use catch_core::experiments::EvalConfig;
use catch_harness::env_var;

/// Reads the evaluation scale (`ops`, `seed`) from the environment (see
/// crate docs); every other field keeps its standard value.
///
/// # Panics
///
/// Panics on a malformed value, naming the variable.
pub fn eval_from_env() -> EvalConfig {
    let mut eval = EvalConfig::standard();
    if let Some(ops) = env_var("CATCH_OPS", str::parse) {
        eval.ops = ops;
    }
    if let Some(seed) = env_var("CATCH_SEED", str::parse) {
        eval.seed = seed;
    }
    eval
}
