//! CATCH — Criticality Aware Tiered Cache Hierarchy simulator.
//!
//! This crate is the public facade of the workspace: it assembles the
//! substrate crates (trace model, caches, DRAM, OOO core, criticality
//! detection, TACT prefetchers, workload suite) into runnable systems and
//! hosts the paper's full experiment registry.
//!
//! * [`SystemConfig`] describes one machine configuration (hierarchy
//!   organisation + core features); presets cover every configuration the
//!   paper evaluates.
//! * [`System`] runs a single-thread trace or a 4-way multi-programmed
//!   mix against a configuration, producing a [`RunResult`]; sampled
//!   execution ([`System::run_sampled`]) trades detail for speed with a
//!   reported error estimate.
//! * [`experiments`] regenerates every table and figure of the paper; the
//!   `run_experiment` example runs any of them by id.
//! * [`energy`] implements the CACTI/Orion/Micron-inspired energy model
//!   behind Figure 16.
//! * [`sweep`] expands declarative design-space grids into hundreds of
//!   configurations and evaluates them through the run cache with a
//!   resumable checkpoint journal and Pareto-frontier reports.
//!
//! # Quickstart
//!
//! ```
//! use catch_core::{System, SystemConfig};
//! use catch_workloads::suite;
//!
//! let trace = suite::by_name("xalanc_like")?.generate(20_000, 42);
//! let baseline = System::new(SystemConfig::baseline_exclusive()).run_st(trace.clone());
//! let catch = System::new(SystemConfig::baseline_exclusive().with_catch()).run_st(trace);
//! // CATCH should not be slower than the baseline on this workload.
//! assert!(catch.ipc() > 0.9 * baseline.ipc());
//! # Ok::<(), catch_workloads::WorkloadsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod cli;
pub mod energy;
pub mod experiments;
mod metrics;
pub mod report;
pub mod runcache;
mod sampling;
pub mod sweep;
mod system;

pub use metrics::{geomean, geomean_ratio, try_geomean, MpResult, RunResult};
pub use runcache::{
    run_fingerprint, CacheMode, CacheSummary, Fingerprint, RunCache, RUN_CACHE_ENV,
};
pub use sampling::{SampledRun, SamplingSummary};
pub use system::{System, SystemConfig};

// Sampling configuration lives in `catch-sample`; re-export the types a
// `run_sampled` caller needs.
pub use catch_sample::{SampleConfig, SamplePlan};

// Re-export the pieces users commonly need alongside the facade.
pub use catch_cache::{HierarchyConfig, HierarchyKind, Level};
pub use catch_cpu::{CoreConfig, LoadOracle, TactMode};
pub use catch_obs::{
    merge_parts, part_path, ChromeTraceSink, CountingSink, Event, EventClass, EventKind, EventSink,
    JsonlSink, NullSink, Obs, OccupancyHist, TraceFormat, VecSink,
};
pub use catch_trace::hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use catch_trace::{Category, Trace};
pub use catch_workloads::WorkloadSpec;
