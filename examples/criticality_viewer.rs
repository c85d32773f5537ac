//! Criticality viewer: run a workload and dump what the hardware
//! criticality detector learned — the critical load PCs, detector
//! counters, and the Table I area budget.
//!
//! ```sh
//! cargo run --release --example criticality_viewer [workload] [ops]
//! ```

use catch_cache::{CacheHierarchy, HierarchyConfig};
use catch_core::cli::parse_arg;
use catch_cpu::{Core, CoreConfig};
use catch_criticality::area::AreaBudget;
use catch_dram::{DramConfig, DramSystem};
use catch_workloads::suite;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "astar_like".to_string());
    let ops = parse_arg("ops", args.next().as_deref(), str::parse)
        .unwrap_or_else(|e| e.exit())
        .unwrap_or(60_000);

    let spec = suite::by_name(&name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let trace = spec.generate(ops, 42);

    let hcfg = HierarchyConfig::skylake_server(1);
    let mut hier = CacheHierarchy::new(&hcfg, Box::new(DramSystem::new(DramConfig::ddr4_2400())));
    let mut core = Core::new(0, trace, CoreConfig::catch());
    let stats = core.run_to_completion(&mut hier);

    println!("== {} ==", name);
    println!("{stats}");
    let d = stats.detector;
    println!(
        "\ndetector: {} retired, {} walks, {} critical-load observations, {} re-learns, {} graph overflows",
        d.retired, d.walks, d.critical_load_observations, d.relearns, d.overflows
    );

    let pcs: Vec<_> = core.detector().critical_pcs().collect();
    println!("\ncritical load PCs ({}):", pcs.len());
    for pc in pcs {
        println!("  {pc}");
    }

    let budget = AreaBudget::for_rob(224);
    println!(
        "\ndetector hardware budget: graph {:.2} KB + PCs {:.2} KB + table {:.2} KB = {:.2} KB",
        budget.graph_bytes as f64 / 1024.0,
        budget.pc_bytes as f64 / 1024.0,
        budget.table_bytes as f64 / 1024.0,
        budget.total_bytes() as f64 / 1024.0
    );

    let hist = stats.memory.load_latency_hist;
    println!(
        "\nload latency histogram (cycles): ≤5:{} ≤15:{} ≤40:{} ≤100:{} ≤250:{} >250:{}",
        hist[0], hist[1], hist[2], hist[3], hist[4], hist[5]
    );

    let t = stats.tact;
    println!(
        "\nTACT: {} targets, deep {} / cross {} / feeder {} prefetches, {} cross assocs, {} feeder relations",
        t.targets_allocated, t.deep_issued, t.cross_issued, t.feeder_issued,
        t.cross_learned, t.feeder_learned
    );
    let timeliness = hier.stats().timeliness;
    println!(
        "timeliness: {} issued, {:.0}% from LLC, {} used ({:.0}% saved >80% of LLC latency)",
        timeliness.issued,
        100.0 * timeliness.llc_fraction(),
        timeliness.used,
        100.0 * timeliness.over_80_fraction(),
    );
}
