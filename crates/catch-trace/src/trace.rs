//! The [`Trace`] container and workload categories.

use crate::op::MicroOp;
use crate::stats::TraceStats;
use std::fmt;
use std::sync::Arc;

/// Workload category, mirroring Table II of the paper.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Category {
    /// Client applications (sysmark, face detection, media encode).
    Client,
    /// SPEC CPU 2006 floating point.
    Fspec,
    /// HPC kernels (linpack, stencils, bio).
    Hpc,
    /// SPEC CPU 2006 integer.
    Ispec,
    /// Server workloads (tpcc, specjbb, hadoop — large code footprints).
    Server,
}

impl Category {
    /// All categories in the paper's reporting order.
    pub const ALL: [Category; 5] = [
        Category::Client,
        Category::Fspec,
        Category::Hpc,
        Category::Ispec,
        Category::Server,
    ];

    /// Short label used in reports ("client", "FSPEC", ...).
    pub fn label(self) -> &'static str {
        match self {
            Category::Client => "client",
            Category::Fspec => "FSPEC",
            Category::Hpc => "HPC",
            Category::Ispec => "ISPEC",
            Category::Server => "server",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A retired-path instruction trace for one application.
///
/// Traces are produced by the generators in `catch-workloads` (or by the
/// [`crate::TraceBuilder`] directly in tests) and consumed by the core
/// model. The container is immutable after construction, and the
/// micro-op buffer is shared: `clone` hands out another handle onto the
/// same ops (every run entry point takes its trace by value), it does
/// not copy them.
#[derive(Clone, Debug)]
pub struct Trace {
    name: String,
    category: Category,
    /// The builder's own `Vec`, shared as is: building a trace never
    /// copies its ops into a second buffer. Its capacity equals its
    /// length (see [`Trace::heap_bytes`]).
    ops: Arc<Vec<MicroOp>>,
}

impl Trace {
    /// Creates a trace from parts, keeping `ops`' buffer trimmed to its
    /// length: a builder grows its `Vec` by doubling, so an untrimmed
    /// buffer holds up to twice the ops it carries. Shrinking in place
    /// copies no op on the common allocators. Prefer
    /// [`crate::TraceBuilder`].
    pub fn from_parts(name: impl Into<String>, category: Category, mut ops: Vec<MicroOp>) -> Self {
        ops.shrink_to_fit();
        Trace {
            name: name.into(),
            category,
            ops: Arc::new(ops),
        }
    }

    /// Workload name (e.g. `"mcf_like"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workload category.
    pub fn category(&self) -> Category {
        self.category
    }

    /// The micro-ops in retirement order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of micro-ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace holds no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Heap bytes of the micro-op buffer: its capacity, not its length,
    /// times the size of one op. Shared by every clone of the trace.
    pub fn heap_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<MicroOp>()
    }

    /// Computes summary statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::measure(&self.ops)
    }

    /// Returns a copy truncated to at most `max_ops` micro-ops.
    pub fn truncated(&self, max_ops: usize) -> Trace {
        Trace {
            name: self.name.clone(),
            category: self.category,
            ops: Arc::new(self.ops[..self.ops.len().min(max_ops)].to_vec()),
        }
    }

    /// Returns a copy with every data address *and load value* offset by
    /// `offset` bytes — a distinct virtual address space for one process
    /// of a multi-programmed mix. Offsetting values along with addresses
    /// preserves pointer identities (`value == next address`) and keeps
    /// linear `address = scale·value + base` relations linear, so the
    /// feeder prefetcher sees a consistent world. Code addresses are left
    /// alone (shared text is realistic).
    pub fn rebased(&self, offset: u64) -> Trace {
        let ops = self
            .ops
            .iter()
            .map(|op| {
                let mut op = *op;
                op.rebase(offset);
                op
            })
            .collect();
        Trace {
            name: self.name.clone(),
            category: self.category,
            ops: Arc::new(ops),
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] ({} uops)",
            self.name,
            self.category,
            self.ops.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, ArchReg, Pc};
    use crate::op::OpClass;

    #[test]
    fn trace_accessors() {
        let ops = vec![
            MicroOp::compute(Pc::new(0), OpClass::Alu, Some(ArchReg::new(1)), &[]),
            MicroOp::load(Pc::new(4), ArchReg::new(2), Addr::new(64), 7, &[]),
        ];
        let t = Trace::from_parts("t", Category::Ispec, ops);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.category(), Category::Ispec);
        assert_eq!(t.name(), "t");
        assert_eq!(format!("{t}"), "t [ISPEC] (2 uops)");
    }

    #[test]
    fn truncation_bounds() {
        let ops = vec![MicroOp::compute(Pc::new(0), OpClass::Nop, None, &[]); 10];
        let t = Trace::from_parts("t", Category::Hpc, ops);
        assert_eq!(t.truncated(3).len(), 3);
        assert_eq!(t.truncated(100).len(), 10);
    }

    #[test]
    fn category_labels_are_unique() {
        let mut labels: Vec<_> = Category::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
