//! Per-rung wall-clock comparison on the golden six: how much cheaper
//! each fidelity rung is per simulation, on the configuration the
//! design-space sweep runs hottest (exclusive + CATCH). Feeds the
//! DESIGN.md §14 / EXPERIMENTS.md ladder measurements.
//!
//! ```text
//! cargo run --release --example rung_timing [OPS [WARMUP]]
//! ```

use catch_core::cli::parse_arg;
use catch_core::experiments::{Fidelity, GOLDEN_WORKLOADS};
use catch_core::{System, SystemConfig};
use catch_obs::Obs;
use catch_workloads::suite;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let ops = parse_arg("ops", args.next().as_deref(), str::parse)
        .unwrap_or_else(|e| e.exit())
        .unwrap_or(80_000);
    let warmup = parse_arg("warmup", args.next().as_deref(), str::parse)
        .unwrap_or_else(|e| e.exit())
        .unwrap_or(30_000);
    let traces: Vec<_> = GOLDEN_WORKLOADS
        .iter()
        .map(|name| {
            suite::by_name(name)
                .expect("golden workload exists")
                .generate(ops, 42)
        })
        .collect();
    println!("rung_timing: golden six, ops={ops} warmup={warmup}");
    for (label, config) in [
        (
            "exclusive+CATCH",
            SystemConfig::baseline_exclusive().with_catch(),
        ),
        ("exclusive plain", SystemConfig::baseline_exclusive()),
    ] {
        println!("{label}:");
        let system = System::new(config);
        let mut per_rung = Vec::new();
        for rung in Fidelity::ALL {
            // One untimed warm-up pass, then two timed passes over all six.
            let run_all = |sys: &System| {
                for trace in &traces {
                    std::hint::black_box(sys.run(trace.clone(), rung, warmup, &Obs::off()));
                }
            };
            run_all(&system);
            let t = Instant::now();
            run_all(&system);
            run_all(&system);
            let ms = t.elapsed().as_secs_f64() * 1000.0 / (2.0 * traces.len() as f64);
            let name = rung.label();
            per_rung.push((name, ms));
            println!("  {name:<5} {ms:8.2} ms/run");
        }
        let ooo = per_rung.last().expect("three rungs").1;
        for (rung, ms) in &per_rung[..2] {
            println!("  {rung} speedup vs ooo: {:.2}x", ooo / ms.max(1e-9));
        }
    }
}
