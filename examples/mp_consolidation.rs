//! Multi-programmed consolidation: run a 4-way mix on the baseline and on
//! CATCH configurations and compare weighted speedups.
//!
//! ```sh
//! cargo run --release --example mp_consolidation [workload] [ops]
//! ```

use catch_core::cli::parse_arg;
use catch_core::{System, SystemConfig};
use catch_workloads::{mp, suite};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "xalanc_like".to_string());
    let ops = parse_arg("ops", args.next().as_deref(), str::parse)
        .unwrap_or_else(|e| e.exit())
        .unwrap_or(30_000);

    let spec = suite::by_name(&name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let mix = mp::MpMix {
        name: format!("rate4_{}", spec.name),
        members: [spec; 4],
    };
    let traces = mix.generate(ops, 42);
    println!("mix: {} (4 copies, distinct seeds)", mix.name);

    // Alone IPCs on the single-core baseline.
    let alone_sys = System::new(SystemConfig::baseline_exclusive());
    let alone: Vec<f64> = traces
        .iter()
        .map(|t| alone_sys.run_st(t.clone()).ipc())
        .collect();
    println!(
        "alone IPCs: {:?}",
        alone
            .iter()
            .map(|i| (i * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );

    let configs = [
        SystemConfig::baseline_exclusive().with_cores(4),
        SystemConfig::baseline_exclusive()
            .with_cores(4)
            .without_l2(6656 << 10),
        SystemConfig::baseline_exclusive()
            .with_cores(4)
            .without_l2(9728 << 10)
            .with_catch(),
        SystemConfig::baseline_exclusive()
            .with_cores(4)
            .with_catch(),
    ];

    let mut base_ws = None;
    for config in configs {
        let name = config.name.clone();
        let result = System::new(config).run_mp(traces.clone());
        let ws = result.weighted_speedup(&alone);
        let delta = base_ws
            .map(|b: f64| format!("{:+.2}%", (ws / b - 1.0) * 100.0))
            .unwrap_or_else(|| "baseline".to_string());
        base_ws.get_or_insert(ws);
        println!("{name:>28}: weighted speedup {ws:.3} ({delta})");
    }
}
