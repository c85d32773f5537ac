//! Design-space exploration: the area/performance trade-off CATCH opens
//! up (Section VI-E narrative), driven through the sweep engine — the
//! same grid expansion, run-cache-backed parallel frontier and Pareto
//! report `run_experiment sweep` and the `catch-server` sweep class use,
//! so this example can never drift from the product path.
//!
//! ```sh
//! cargo run --release --example design_space [ops] [grid]
//! ```
//!
//! `grid` is a sweep preset (`quick` by default, `paper` for the full
//! 600-point grid). Add `--md` for markdown output. Pass a checkpoint
//! through the full CLI instead: `run_experiment --checkpoint f sweep`.

use catch_core::cli::parse_arg;
use catch_core::experiments::{EvalConfig, Fidelity};
use catch_core::sweep::{run_sweep, SweepOptions, SweepSpec};
use catch_core::RunCache;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let md = args.iter().any(|a| a == "--md");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let ops = parse_arg("ops", positional.first().map(|s| s.as_str()), str::parse)
        .unwrap_or_else(|e| e.exit())
        .unwrap_or(30_000);
    let grid = positional.get(1).map(|s| s.as_str()).unwrap_or("quick");

    let Some(spec) = SweepSpec::by_name(grid) else {
        eprintln!("unknown sweep grid '{grid}' (try: quick, paper)");
        std::process::exit(2);
    };
    let eval = EvalConfig {
        ops,
        warmup: ops / 4,
        seed: 42,
        sample: None,
        fidelity: Fidelity::Ooo,
    };

    match run_sweep(&spec, &eval, &SweepOptions::default()) {
        Ok(outcome) => {
            if md {
                print!("{}", outcome.report.to_markdown());
            } else {
                print!("{}", outcome.report);
            }
            let cache = RunCache::global().summary();
            eprintln!(
                "sweep: {} points ({} computed, {} resumed); cache {} hits / {} misses",
                outcome.total, outcome.computed, outcome.resumed, cache.hits, cache.misses
            );
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    }
}
