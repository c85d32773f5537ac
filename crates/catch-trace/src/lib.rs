//! Instruction and trace model for the CATCH simulator.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: addresses, program counters, architectural registers, micro-op
//! records, and the [`Trace`] container that the cycle-level core model
//! consumes.
//!
//! The CATCH paper (Nori et al., ISCA 2018) evaluates its proposal with a
//! trace-driven cycle-accurate simulator. A trace here is a sequence of
//! retired-path [`MicroOp`]s carrying:
//!
//! * the program counter (so PC-indexed structures — stride prefetchers,
//!   critical-load tables, TACT tables — behave as in hardware),
//! * architectural register sources/destination (so the data-dependence
//!   graph of Fields et al. can be rebuilt),
//! * memory address *and loaded value* for loads (so the TACT-Feeder
//!   prefetcher can learn `address = scale * data + base` relations from
//!   real pointer dereferences),
//! * branch direction and target (so the front end can mispredict).
//!
//! # Example
//!
//! ```
//! use catch_trace::{ArchReg, TraceBuilder, Addr};
//!
//! let mut b = TraceBuilder::new("demo");
//! let r1 = ArchReg::new(1);
//! b.load(r1, Addr::new(0x1000), 42);
//! b.alu(ArchReg::new(2), &[r1]);
//! let trace = b.build();
//! assert_eq!(trace.len(), 2);
//! assert!(trace.ops()[1].reads(r1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod counters;
pub mod hash;
mod ids;
mod io;
pub mod key;
mod op;
pub mod rng;
mod stats;
mod trace;

pub use builder::{Label, TraceBuilder};
pub use ids::{Addr, ArchReg, LineAddr, PageAddr, Pc, LINE_BYTES, PAGE_BYTES};
pub use io::TraceIoError;
pub use op::{BranchInfo, BranchKind, MemRef, MicroOp, OpClass, SrcRegs};
pub use stats::TraceStats;
pub use trace::{Category, Trace};
