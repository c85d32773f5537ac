//! Allocation census: a detailed run's steady state must not allocate.
//!
//! The criticality detector, TACT, the baseline prefetchers and the
//! core are fixed-size hardware tables, so simulating more µops should
//! cost no more heap allocations. A counting `#[global_allocator]`
//! measures every allocation a detailed run makes (the trace is
//! generated outside the counted region). Each golden workload runs at
//! 100 K and 200 K µops (seed 42) under three organisations, and the
//! *marginal* count, the difference divided by the extra µops, must stay
//! at or below [`MAX_PER_KILO_OP`] per 1 000 µops. Fixed set-up costs
//! (tables, caches, the lazily built memory image's growth) cancel in the
//! difference; a per-event `Vec`, `clone` or `collect` does not.
//!
//! A failure names the (workload, organisation) pairs over the bound:
//! some per-µop or per-event path allocates again. The table prints with
//! `--nocapture`.
//!
//! This file holds exactly one test so no other test thread allocates
//! while a run is being counted.

use catch_core::experiments::GOLDEN_WORKLOADS;
use catch_core::{System, SystemConfig};
use catch_workloads::suite;
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation, zeroed allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a relaxed atomic that never touches the heap.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        Heap.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        Heap.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        Heap.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Heap.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 42;
const SHORT_OPS: usize = 100_000;
const LONG_OPS: usize = 200_000;

/// Marginal allocations allowed per 1 000 simulated µops.
const MAX_PER_KILO_OP: f64 = 5.0;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn detailed_runs_allocate_nothing_per_uop() {
    let organisations = [
        ("excl", SystemConfig::baseline_exclusive()),
        (
            "excl+CATCH",
            SystemConfig::baseline_exclusive().with_catch(),
        ),
        (
            "incl+CATCH",
            SystemConfig::baseline_inclusive().with_catch(),
        ),
    ];
    println!(
        "{:<14} {:<11} {:>10} {:>10} {:>12}",
        "workload", "org", "allocs@S", "allocs@L", "per 1000 µop"
    );
    let mut over = Vec::new();
    for name in GOLDEN_WORKLOADS {
        let spec = suite::by_name(name).expect("golden workload");
        let short = spec.generate(SHORT_OPS, SEED);
        let long = spec.generate(LONG_OPS, SEED);
        let extra_ops = (long.len() - short.len()) as f64;
        for (org, config) in &organisations {
            let system = System::new(config.clone());
            let at_short = allocations_during(|| drop(system.run_st(short.clone())));
            let at_long = allocations_during(|| drop(system.run_st(long.clone())));
            let per_kilo = at_long.saturating_sub(at_short) as f64 / extra_ops * 1000.0;
            println!("{name:<14} {org:<11} {at_short:>10} {at_long:>10} {per_kilo:>12.2}");
            if per_kilo > MAX_PER_KILO_OP {
                over.push(format!("{name} under {org}: {per_kilo:.1}"));
            }
        }
    }
    assert!(
        over.is_empty(),
        "marginal allocations above {MAX_PER_KILO_OP} per 1000 µops: {over:?}"
    );
}
