//! Cycle-level out-of-order core model.
//!
//! Models a Skylake-like core (4-wide, 224-entry ROB, 3.2 GHz) executing a
//! retired-path trace against the `catch-cache` hierarchy. Both detailed
//! cores are one [`Pipeline`] shell (front end, fetch buffer, memory
//! interface, detector feed, clock and skip-ahead, occupancy samples)
//! around a [`BackEnd`]; [`run_lockstep`] is the one cycle loop for both:
//!
//! * **Front end** ([`Frontend`]): in-order fetch with a gshare branch
//!   predictor and L1I accesses; an L1I miss stalls fetch, optionally
//!   triggering the TACT code-runahead prefetcher; a mispredicted branch
//!   blocks fetch until it resolves plus a redirect penalty.
//! * **Back end** ([`Core`] = `Pipeline<`[`Ooo`]`>`): in-order allocation
//!   into the ROB, age-ordered scheduling with per-class execution-port
//!   limits, loads/stores against the hierarchy with store-to-load
//!   forwarding, in-order retirement. [`LiteCore`] =
//!   `Pipeline<`[`Scoreboard`]`>` swaps it for the timing-lite
//!   in-order-issue scoreboard.
//! * **Criticality & TACT**: retired instructions feed the
//!   `catch-criticality` detector; detected critical PCs arm the TACT
//!   prefetchers which inject L1 prefetches on load execution.
//! * **Oracles** ([`LoadOracle`]): the latency-demotion and zero-time
//!   prefetch oracles behind the paper's Figures 4 and 5.
//!
//! # Example
//!
//! ```
//! use catch_cpu::{Core, CoreConfig};
//! use catch_cache::{CacheHierarchy, HierarchyConfig, FixedLatencyBackend};
//! use catch_trace::{TraceBuilder, ArchReg, Addr};
//!
//! let mut b = TraceBuilder::new("demo");
//! for i in 0..100u64 {
//!     b.load(ArchReg::new(1), Addr::new(i * 64), 0);
//!     b.alu(ArchReg::new(2), &[ArchReg::new(1)]);
//! }
//! let trace = b.build();
//!
//! let hcfg = HierarchyConfig::skylake_server(1);
//! let mut hier = CacheHierarchy::new(&hcfg, Box::new(FixedLatencyBackend::new(200)));
//! let mut core = Core::new(0, trace, CoreConfig::default());
//! let stats = core.run_to_completion(&mut hier);
//! assert_eq!(stats.instructions, 200);
//! // Everything is cold (code and data fetch from DRAM), so the IPC of
//! // this tiny straight-line kernel is low but non-zero.
//! assert!(stats.ipc() > 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod config;
mod core;
mod frontend;
mod lite;
mod memory;
mod pipeline;
mod rob;
mod stats;

pub use branch::BranchUnit;
pub use config::{CoreConfig, DetectorKind, ExecLatencies, LoadOracle, PortConfig, TactMode};
pub use core::{Core, Ooo};
pub use frontend::Frontend;
pub use lite::{run_fast_functional, LiteCore, Scoreboard};
pub use memory::MemoryInterface;
pub use pipeline::{run_lockstep, BackEnd, Pipeline};
pub use rob::{Rob, RobEntry};
pub use stats::CoreStats;
