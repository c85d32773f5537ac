//! Trace memory: generating the golden six again after dropping them
//! must cost no more resident memory than the traces themselves.
//!
//! Trace bytes set the simulator's memory ceiling. The generators build
//! each trace at its final size (`TraceBuilder::with_capacity`), so no
//! doubling buffer is freed along the way. A freed buffer below the
//! allocator's mmap threshold stays resident: a caller that drops its
//! traces and generates them again, as the run cache's leases and the
//! benchmark's set-up do, would carry that slack on top of the next set.
//!
//! The test reads the process's peak resident set (`VmHWM` in
//! `/proc/self/status`), generates the golden six at 1 M µops, drops
//! them, generates them again and checks that the peak grew by at most
//! one set's `heap_bytes()` plus [`SLACK_KIB`].
//!
//! This file holds exactly one test so no other test thread allocates
//! while the peak is measured.

#![cfg(target_os = "linux")]

use catch_core::experiments::GOLDEN_WORKLOADS;
use catch_trace::Trace;
use catch_workloads::suite;

const OPS: usize = 1_000_000;
const SEED: u64 = 42;

/// Growth allowed beyond the traces' own bytes: the harness, the names
/// and the allocator's bookkeeping.
const SLACK_KIB: u64 = 4 * 1024;

/// `VmHWM` of this process in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line in /proc/self/status");
    line.trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a number of kB")
}

fn golden_six() -> Vec<Trace> {
    GOLDEN_WORKLOADS
        .iter()
        .map(|name| {
            suite::by_name(name)
                .expect("golden workload")
                .generate(OPS, SEED)
        })
        .collect()
}

#[test]
fn regenerated_traces_cost_only_their_own_bytes() {
    let before = peak_rss_kib();
    drop(golden_six());
    let traces = golden_six();
    let grew = peak_rss_kib() - before;
    let trace_kib = traces.iter().map(Trace::heap_bytes).sum::<usize>() as u64 / 1024;
    println!("VmHWM grew {grew} KiB for {trace_kib} KiB of traces");
    assert!(
        grew <= trace_kib + SLACK_KIB,
        "VmHWM grew {grew} KiB, over {trace_kib} KiB of traces + {SLACK_KIB} KiB: \
         freed generator buffers stayed resident"
    );
}
