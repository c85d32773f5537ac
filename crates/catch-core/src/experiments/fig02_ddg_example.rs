//! Figures 2 and 6: the worked data-dependence-graph example.

use crate::report::{ExperimentReport, Table, ValueKind};
use catch_cache::Level;
use catch_criticality::{DdgGraph, DetectorConfig, NodeKind, RetiredInst};
use catch_trace::Pc;

/// Reconstructs the paper's worked DDG example (Figures 2 and 6): a
/// 20-cycle load feeding a compare and a branch, an independent 10-cycle
/// load, a dependent 10-cycle load and a combining add — then prints the
/// incrementally computed node costs and the enumerated critical path.
pub fn fig02_ddg_example() -> ExperimentReport {
    let config = DetectorConfig {
        quantize_shift: 0,
        rename_latency: 0,
        ..DetectorConfig::paper()
    };
    let mut g = DdgGraph::new(config);
    let pc = |n: u64| Pc::new(0x400 + n * 4);

    let labels = [
        "R0 = [R1]  (20-cyc load)",
        "CMP R0, 8",
        "JLE #label",
        "R3 = [R4]  (10-cyc load)",
        "R5 = [R0]  (10-cyc load)",
        "R0 = R5 + R3",
    ];
    let i1 = g.push(RetiredInst::new(pc(1), 20).as_load(Level::Llc));
    let i2 = g.push(RetiredInst::compute(pc(2), 4, &[i1]));
    let i3 = g.push(RetiredInst::compute(pc(3), 4, &[i2]));
    let i4 = g.push(RetiredInst::new(pc(4), 10).as_load(Level::L2));
    let i5 = g.push(RetiredInst::compute(pc(5), 10, &[i1]).as_load(Level::L2));
    let i6 = g.push(RetiredInst::compute(pc(6), 4, &[i4, i5]));
    let seqs = [i1, i2, i3, i4, i5, i6];

    let mut costs = Table::new(
        "incremental E-node costs (longest distance to dispatch)",
        vec!["E cost".into(), "latency".into()],
        ValueKind::Raw,
    );
    for (label, seq) in labels.iter().zip(seqs) {
        let node = g.node(seq).expect("buffered");
        costs.push_row(*label, vec![node.e_cost() as f64, node.latency() as f64]);
    }

    let mut path = Vec::new();
    let mut critical = Vec::new();
    g.walk_critical_path(|step, load| {
        path.push(step);
        critical.extend(load.map(|(pc, level)| format!("{pc} (hit {level})")));
    });
    let mut walk = Table::new(
        "critical-path walk (youngest first)",
        vec!["instr #".into()],
        ValueKind::Raw,
    );
    for step in &path {
        let kind = match step.kind {
            NodeKind::Dispatch => "D",
            NodeKind::Execute => "E",
            NodeKind::Commit => "C",
        };
        walk.push_row(format!("{kind} node"), vec![step.seq as f64 + 1.0]);
    }

    ExperimentReport {
        id: "fig2".into(),
        title: "Worked DDG example (Figures 2 and 6)".into(),
        tables: vec![costs, walk],
        notes: vec![
            format!("critical loads recorded: {}", critical.join(", ")),
            "paper: only the load feeding the long dependent chain is critical; the independent 10-cycle load is not, so demoting it to LLC latency would not lengthen the critical path".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_reproduces_figure_2_conclusions() {
        let report = fig02_ddg_example();
        let text = report.to_string();
        // The chain head and the dependent load are critical...
        assert!(text.contains("0x404"));
        assert!(text.contains("0x414"));
        // ...the independent load is not.
        assert!(!report.notes[0].contains("0x410"));
    }
}
