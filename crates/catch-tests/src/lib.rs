//! Workspace-level test suites for the CATCH simulator.
//!
//! This crate carries no library code of its own: it exists so the
//! integration, end-to-end, property and golden-stats regression suites
//! under `tests/` build against the *public* API of the workspace crates,
//! exactly as an external user would drive them.
//!
//! Suites:
//!
//! * `integration` — cross-crate smoke tests of the `catch-core` facade.
//! * `end_to_end_catch` — full CATCH-vs-baseline experiment runs.
//! * `oracle_semantics` — criticality-oracle semantics against the
//!   detector.
//! * `properties` — randomized invariants on the deterministic in-repo
//!   case driver.
//! * `golden_stats` — byte-exact per-counter regression snapshot of a
//!   six-workload suite slice.
//! * `harness_parity` — the parallel suite runner must reproduce the
//!   serial runner's counters bit-for-bit.
//! * `codec_boundaries` — generated inputs against the JSON codec:
//!   string round trips, frames and shards cut at every byte, shards
//!   with every byte flipped.
//! * `cache_compat` — a committed shard from an earlier build loads and
//!   is reproduced byte for byte; a committed fingerprint snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
