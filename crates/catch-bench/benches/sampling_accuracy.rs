//! Sampled-vs-full simulation: wall-clock speedup and reconstruction
//! error per golden workload.
//!
//! For each of the six golden workloads this target times a full
//! detailed run and a sampled run (`System::run_sampled`) under the
//! first-party bench harness — `CATCH_BENCH_JSON=1` emits both timings
//! as machine-readable JSON — then prints a table of the achieved
//! speedup and the per-counter reconstruction errors (IPC, L2 misses,
//! LLC misses) plus the plan's reported error bound.
//!
//! Scale knobs: `CATCH_OPS`, `CATCH_SEED` (shared with every bench
//! target) plus `CATCH_SAMPLE` (interval size in micro-ops; default
//! `ops / 20`), `CATCH_SAMPLE_CLUSTERS` (k-means cluster cap) and
//! `CATCH_SAMPLE_WARMUP` (detailed-warmup ops before each measured
//! interval).

use catch_core::experiments::GOLDEN_WORKLOADS;
use catch_core::report::{Table, ValueKind};
use catch_core::{SampleConfig, System, SystemConfig};
use catch_harness::{env_var, Harness};
use catch_workloads::suite;

fn pct_err(sampled: f64, full: f64) -> f64 {
    if full == 0.0 {
        if sampled == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        100.0 * (sampled - full).abs() / full
    }
}

fn main() {
    let eval = catch_bench::eval_from_env();
    let env_usize = |name: &str| env_var(name, str::parse::<usize>);
    let interval_ops = env_usize("CATCH_SAMPLE").unwrap_or_else(|| (eval.ops / 20).max(1));
    let mut sample = SampleConfig::new(interval_ops);
    if let Some(k) = env_usize("CATCH_SAMPLE_CLUSTERS") {
        sample = sample.with_max_clusters(k);
    }
    if let Some(w) = env_usize("CATCH_SAMPLE_WARMUP") {
        sample = sample.with_warmup_ops(w);
    }
    let system = System::new(SystemConfig::baseline_exclusive());

    eprintln!(
        "[catch-bench] sampling_accuracy at ops={} interval={} seed={}",
        eval.ops, interval_ops, eval.seed
    );

    let mut harness = Harness::new("sampling_accuracy");
    let mut table = Table::new(
        format!("sampled vs full, interval={interval_ops} ops"),
        vec![
            "speedup".into(),
            "IPC err%".into(),
            "L2 miss err%".into(),
            "LLC miss err%".into(),
            "bound%".into(),
        ],
        ValueKind::Raw,
    );

    for name in GOLDEN_WORKLOADS {
        let trace = suite::by_name(name)
            .expect("golden workload exists")
            .generate(eval.ops, eval.seed);

        let mut full = None;
        let full_time = harness
            .bench(&format!("{name}/full"), eval.ops as u64, || {
                full = Some(system.run_st(trace.clone()));
            })
            .median_ns;
        let mut sampled = None;
        let sampled_time = harness
            .bench(&format!("{name}/sampled"), eval.ops as u64, || {
                sampled = Some(system.run_sampled(trace.clone(), &sample));
            })
            .median_ns;

        let full = full.expect("timed at least once");
        let s = sampled.expect("timed at least once");
        let l2_full: u64 = full.hierarchy.l2.iter().map(|c| c.misses).sum();
        let l2_sampled: u64 = s.result.hierarchy.l2.iter().map(|c| c.misses).sum();
        table.push_row(
            name,
            vec![
                if sampled_time == 0 {
                    0.0
                } else {
                    full_time as f64 / sampled_time as f64
                },
                pct_err(s.result.ipc(), full.ipc()),
                pct_err(l2_sampled as f64, l2_full as f64),
                pct_err(
                    s.result.hierarchy.llc.misses as f64,
                    full.hierarchy.llc.misses as f64,
                ),
                s.sampling.ipc_error_bound_pct,
            ],
        );
    }

    println!("{table}");
    harness.report();
}
