//! Quickstart: run one workload on the baseline and on CATCH, and print
//! the comparison.
//!
//! ```sh
//! cargo run --release --example quickstart [workload] [ops]
//! ```

use catch_core::cli::parse_arg;
use catch_core::{System, SystemConfig};
use catch_workloads::suite;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "xalanc_like".to_string());
    let ops = parse_arg("ops", args.next().as_deref(), str::parse)
        .unwrap_or_else(|e| e.exit())
        .unwrap_or(60_000);

    let spec = match suite::by_name(&name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}. Available workloads:");
            for w in suite::all() {
                eprintln!("  {} [{}]", w.name, w.category);
            }
            std::process::exit(1);
        }
    };
    let trace = spec.generate(ops, 42);
    println!("workload: {trace}");
    println!("  {}", trace.stats());

    let configs = [
        SystemConfig::baseline_exclusive(),
        SystemConfig::baseline_exclusive().with_catch(),
        SystemConfig::baseline_exclusive()
            .without_l2(9728 << 10)
            .with_catch(),
    ];

    let mut baseline_ipc = None;
    for config in configs {
        let name = config.name.clone();
        let result = System::new(config).run_st(trace.clone());
        let ipc = result.ipc();
        let delta = baseline_ipc
            .map(|b: f64| format!("{:+.2}%", (ipc / b - 1.0) * 100.0))
            .unwrap_or_else(|| "baseline".to_string());
        baseline_ipc.get_or_insert(ipc);
        let lv = result.core.memory.loads_by_level;
        println!(
            "{name:>24}: IPC {ipc:.3} ({delta})  loads L1/L2/LLC/MEM = {}/{}/{}/{}  \
             [{} TACT pf, {} fwd, {:.2}% br-miss, {} I$ miss]",
            lv[0],
            lv[1],
            lv[2],
            lv[3],
            result.core.memory.tact_prefetches,
            result.core.memory.forwarded,
            100.0 * result.core.branches.mispredict_rate(),
            result.core.frontend.icache_misses,
        );
    }
}
