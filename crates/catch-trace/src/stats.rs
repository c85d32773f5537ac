//! Summary statistics for traces.

use crate::op::{MicroOp, OpClass};
use std::collections::HashSet;
use std::fmt;

/// Footprint and mix statistics for a trace.
///
/// Used by the workload suite's self-tests to assert that each generator
/// produces the memory/code behaviour its category requires (e.g. server
/// workloads must have a large code footprint).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total micro-ops.
    pub ops: usize,
    /// Loads.
    pub loads: usize,
    /// Stores.
    pub stores: usize,
    /// Branches.
    pub branches: usize,
    /// Taken branches.
    pub taken_branches: usize,
    /// Distinct data cache lines touched.
    pub data_lines: usize,
    /// Distinct 4 KB data pages touched.
    pub data_pages: usize,
    /// Distinct code cache lines touched.
    pub code_lines: usize,
    /// Distinct load/store PCs.
    pub mem_pcs: usize,
}

impl TraceStats {
    /// Measures statistics over a slice of micro-ops.
    pub fn measure(ops: &[MicroOp]) -> Self {
        let mut stats = TraceStats {
            ops: ops.len(),
            ..TraceStats::default()
        };
        let mut data_lines = HashSet::new();
        let mut data_pages = HashSet::new();
        let mut code_lines = HashSet::new();
        let mut mem_pcs = HashSet::new();
        for op in ops {
            code_lines.insert(op.pc.line());
            match op.class {
                OpClass::Load => stats.loads += 1,
                OpClass::Store => stats.stores += 1,
                OpClass::Branch => {
                    stats.branches += 1;
                    if op.branch().is_some_and(|b| b.taken) {
                        stats.taken_branches += 1;
                    }
                }
                _ => {}
            }
            if let Some(mem) = op.mem {
                data_lines.insert(mem.addr.line());
                data_pages.insert(mem.addr.page());
                mem_pcs.insert(op.pc);
            }
        }
        stats.data_lines = data_lines.len();
        stats.data_pages = data_pages.len();
        stats.code_lines = code_lines.len();
        stats.mem_pcs = mem_pcs.len();
        stats
    }

    /// Approximate data footprint in bytes (lines × 64).
    pub fn data_footprint_bytes(&self) -> u64 {
        self.data_lines as u64 * crate::LINE_BYTES
    }

    /// Approximate code footprint in bytes (lines × 64).
    pub fn code_footprint_bytes(&self) -> u64 {
        self.code_lines as u64 * crate::LINE_BYTES
    }

    /// Fraction of ops that are loads.
    pub fn load_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.loads as f64 / self.ops as f64
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} uops ({} ld, {} st, {} br), data {:.1} KB, code {:.1} KB",
            self.ops,
            self.loads,
            self.stores,
            self.branches,
            self.data_footprint_bytes() as f64 / 1024.0,
            self.code_footprint_bytes() as f64 / 1024.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, ArchReg, Pc};

    #[test]
    fn measure_counts_classes_and_footprints() {
        let r = ArchReg::new(1);
        let ops = vec![
            MicroOp::load(Pc::new(0), r, Addr::new(0), 0, &[]),
            MicroOp::load(Pc::new(4), r, Addr::new(64), 0, &[]),
            MicroOp::load(Pc::new(4), r, Addr::new(64), 0, &[]),
            MicroOp::store(Pc::new(8), Addr::new(4096), &[r]),
            MicroOp::new_branch(
                Pc::new(12),
                crate::BranchInfo {
                    taken: true,
                    target: Pc::new(0),
                    kind: crate::BranchKind::Conditional,
                },
                &[],
            ),
        ];
        let s = TraceStats::measure(&ops);
        assert_eq!(s.ops, 5);
        assert_eq!(s.loads, 3);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.taken_branches, 1);
        assert_eq!(s.data_lines, 3); // lines 0, 1, 64
        assert_eq!(s.data_pages, 2); // pages 0, 1
        assert_eq!(s.code_lines, 1); // PCs 0..12 in one 64 B line
        assert_eq!(s.mem_pcs, 3); // PCs 0, 4, 8
        assert!((s.load_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = TraceStats::measure(&[]);
        assert_eq!(s.ops, 0);
        assert_eq!(s.load_fraction(), 0.0);
        assert_eq!(s.data_footprint_bytes(), 0);
    }
}
