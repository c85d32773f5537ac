//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! Each ablation varies one mechanism of the CATCH design on a
//! behaviour-diverse slice of the suite and reports the geomean speedup
//! over the three-level baseline, so the contribution (or cost) of the
//! choice is directly visible.

use super::{pct, run_slice, EvalConfig};
use crate::metrics::geomean_ratio;
use crate::report::{ExperimentReport, Table, ValueKind};
use crate::system::SystemConfig;
use catch_cache::ReplKind;
use catch_criticality::DetectorConfig;

/// Workloads used by the ablations: one per behaviour class.
const SLICE: [&str; 6] = [
    "xalanc_like",
    "astar_like",
    "stencil_like",
    "spmv_like",
    "tpcc_like",
    "h264_like",
];

/// Runs all ablations and reports geomean CATCH gains under each variant.
pub fn ablations(eval: &EvalConfig) -> ExperimentReport {
    let base = run_slice(&SystemConfig::baseline_exclusive(), eval, &SLICE);
    let gain = |config: &SystemConfig| pct(geomean_ratio(&base, &run_slice(config, eval, &SLICE)));

    // 1. Prefetch insertion policy in the L1 (MRU vs LIP).
    let mut insertion = Table::new(
        "L1 prefetch insertion policy (CATCH gain)",
        vec!["gain".into()],
        ValueKind::PercentDelta,
    );
    for (label, repl) in [
        ("MRU insertion (default)", ReplKind::Lru),
        ("LIP insertion", ReplKind::LruLip),
    ] {
        let mut config = SystemConfig::baseline_exclusive().with_catch();
        config.hierarchy.l1d.repl = repl;
        config.hierarchy.l1i.repl = repl;
        insertion.push_row(label, vec![gain(&config)]);
    }

    // 2. Feeder prefetch distance.
    let mut feeder = Table::new(
        "feeder prefetch distance (paper: 4)",
        vec!["gain".into()],
        ValueKind::PercentDelta,
    );
    for distance in [0u8, 2, 4, 8] {
        let mut config = SystemConfig::baseline_exclusive().with_catch();
        config.core.tact_config.feeder_distance = distance;
        feeder.push_row(format!("distance {distance}"), vec![gain(&config)]);
    }

    // 3. Deep-Self maximum distance.
    let mut deep = Table::new(
        "Deep-Self max distance (paper: 16)",
        vec!["gain".into()],
        ValueKind::PercentDelta,
    );
    for distance in [4u8, 8, 16, 32] {
        let mut config = SystemConfig::baseline_exclusive().with_catch();
        config.core.tact_config.deep_max_distance = distance;
        deep.push_row(format!("distance {distance}"), vec![gain(&config)]);
    }

    // 4. ROB size (criticality window scales with it).
    let mut rob = Table::new(
        "ROB size (CATCH gain; window scales with ROB)",
        vec!["gain".into()],
        ValueKind::PercentDelta,
    );
    for size in [128usize, 224, 448] {
        let mut baseline = SystemConfig::baseline_exclusive();
        baseline.core.rob_size = size;
        baseline.core.detector = DetectorConfig {
            rob_size: size,
            ..DetectorConfig::paper()
        };
        let base_runs = run_slice(&baseline, eval, &SLICE);
        let mut catch = baseline.clone().with_catch();
        catch.core.detector = DetectorConfig {
            rob_size: size,
            ..DetectorConfig::paper()
        };
        let catch_runs = run_slice(&catch, eval, &SLICE);
        rob.push_row(
            format!("ROB {size}"),
            vec![pct(geomean_ratio(&base_runs, &catch_runs))],
        );
    }

    // 5. LLC replacement under CATCH (paper §VII: LLC policies should be
    // locality-, not criticality-, based; we check CATCH is robust to the
    // policy choice).
    let mut llc = Table::new(
        "LLC replacement policy under two-level CATCH",
        vec!["gain".into()],
        ValueKind::PercentDelta,
    );
    for (label, repl) in [
        ("LRU", ReplKind::Lru),
        ("SRRIP", ReplKind::Srrip),
        ("Random", ReplKind::Random),
    ] {
        let mut config = SystemConfig::baseline_exclusive()
            .without_l2(9728 << 10)
            .with_catch();
        config.hierarchy.llc.repl = repl;
        llc.push_row(label, vec![gain(&config)]);
    }

    // 6. Code-runahead budget.
    let mut code = Table::new(
        "code-runahead lines per stall",
        vec!["gain".into()],
        ValueKind::PercentDelta,
    );
    for lines in [2usize, 8, 16] {
        let mut config = SystemConfig::baseline_exclusive().with_catch();
        config.core.code_runahead_lines = lines;
        code.push_row(format!("{lines} lines"), vec![gain(&config)]);
    }

    ExperimentReport {
        id: "ablations".into(),
        title: "Ablations of CATCH design choices".into(),
        tables: vec![insertion, feeder, deep, rob, llc, code],
        notes: vec![
            format!("slice: {}", SLICE.join(", ")),
            "expected: MRU ≥ LIP (prefetches must survive to first use); gains grow with feeder/deep distance then flatten; CATCH is robust to LLC policy".into(),
        ],
    }
}
