//! Ergonomic construction of traces.

use crate::ids::{Addr, ArchReg, Pc};
use crate::op::{BranchInfo, BranchKind, MicroOp, OpClass};
use crate::trace::{Category, Trace};

/// A code location captured by [`TraceBuilder::label`], usable as a branch
/// target.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Label(Pc);

impl Label {
    /// The PC this label refers to.
    pub fn pc(self) -> Pc {
        self.0
    }
}

/// Builds a [`Trace`] by emitting micro-ops at an advancing PC cursor.
///
/// Instructions are 4 bytes; emitting an op advances the cursor. Loops are
/// expressed by capturing a [`Label`] and emitting a taken branch back to
/// it — the builder rewinds the PC cursor so that the re-executed loop body
/// reuses the *same* PCs, which is what PC-indexed hardware structures
/// (stride prefetchers, critical-load tables) require.
///
/// # Example
///
/// ```
/// use catch_trace::{TraceBuilder, ArchReg, Addr};
///
/// let mut b = TraceBuilder::new("loop");
/// let r1 = ArchReg::new(1);
/// let top = b.label();
/// for i in 0..4 {
///     b.jump_to(top); // rewind cursor to loop body start
///     b.load(r1, Addr::new(64 * i), i);
///     b.alu(r1, &[r1]);
///     b.backedge(top, i != 3);
/// }
/// let t = b.build();
/// assert_eq!(t.len(), 12);
/// // same PCs across iterations:
/// assert_eq!(t.ops()[0].pc, t.ops()[3].pc);
/// ```
#[derive(Debug)]
pub struct TraceBuilder {
    name: String,
    category: Category,
    pc: Pc,
    ops: Vec<MicroOp>,
}

impl TraceBuilder {
    /// Creates a builder starting at PC `0x40_0000` with category
    /// [`Category::Client`].
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name, 0)
    }

    /// Like [`TraceBuilder::new`], with room for `ops` micro-ops before
    /// the buffer grows. A generator that knows its length builds at its
    /// final size: no doubling copies, and no freed slack left behind in
    /// the allocator once the trace is dropped.
    pub fn with_capacity(name: impl Into<String>, ops: usize) -> Self {
        TraceBuilder {
            name: name.into(),
            category: Category::Client,
            pc: Pc::new(0x40_0000),
            ops: Vec::with_capacity(ops),
        }
    }

    /// Sets the workload category.
    pub fn category(&mut self, category: Category) -> &mut Self {
        self.category = category;
        self
    }

    /// Number of ops emitted so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Current PC cursor.
    pub fn cursor(&self) -> Pc {
        self.pc
    }

    /// Captures the current cursor as a label.
    pub fn label(&mut self) -> Label {
        Label(self.pc)
    }

    /// Moves the cursor to an arbitrary PC (e.g. a new "function").
    pub fn set_pc(&mut self, pc: Pc) -> &mut Self {
        self.pc = pc;
        self
    }

    /// Moves the cursor to a previously captured label (loop re-entry).
    pub fn jump_to(&mut self, label: Label) -> &mut Self {
        self.pc = label.pc();
        self
    }

    fn push(&mut self, op: MicroOp) {
        self.ops.push(op);
        self.pc = self.pc.advance(4);
    }

    /// Emits an integer ALU op writing `dst`.
    pub fn alu(&mut self, dst: ArchReg, srcs: &[ArchReg]) -> &mut Self {
        let op = MicroOp::compute(self.pc, OpClass::Alu, Some(dst), srcs);
        self.push(op);
        self
    }

    /// Emits an integer multiply writing `dst`.
    pub fn mul(&mut self, dst: ArchReg, srcs: &[ArchReg]) -> &mut Self {
        let op = MicroOp::compute(self.pc, OpClass::Mul, Some(dst), srcs);
        self.push(op);
        self
    }

    /// Emits a divide writing `dst`.
    pub fn div(&mut self, dst: ArchReg, srcs: &[ArchReg]) -> &mut Self {
        let op = MicroOp::compute(self.pc, OpClass::Div, Some(dst), srcs);
        self.push(op);
        self
    }

    /// Emits an FP add writing `dst`.
    pub fn fadd(&mut self, dst: ArchReg, srcs: &[ArchReg]) -> &mut Self {
        let op = MicroOp::compute(self.pc, OpClass::FpAdd, Some(dst), srcs);
        self.push(op);
        self
    }

    /// Emits an FP multiply writing `dst`.
    pub fn fmul(&mut self, dst: ArchReg, srcs: &[ArchReg]) -> &mut Self {
        let op = MicroOp::compute(self.pc, OpClass::FpMul, Some(dst), srcs);
        self.push(op);
        self
    }

    /// Emits a no-op.
    pub fn nop(&mut self) -> &mut Self {
        let op = MicroOp::compute(self.pc, OpClass::Nop, None, &[]);
        self.push(op);
        self
    }

    /// Emits a load of `value` from `addr` into `dst` with no address
    /// dependences.
    pub fn load(&mut self, dst: ArchReg, addr: Addr, value: u64) -> &mut Self {
        let op = MicroOp::load(self.pc, dst, addr, value, &[]);
        self.push(op);
        self
    }

    /// Emits a load whose address depends on `srcs` (e.g. pointer chase).
    pub fn load_dep(
        &mut self,
        dst: ArchReg,
        addr: Addr,
        value: u64,
        srcs: &[ArchReg],
    ) -> &mut Self {
        let op = MicroOp::load(self.pc, dst, addr, value, srcs);
        self.push(op);
        self
    }

    /// Emits a store to `addr` of data in `srcs`.
    pub fn store(&mut self, addr: Addr, srcs: &[ArchReg]) -> &mut Self {
        let op = MicroOp::store(self.pc, addr, srcs);
        self.push(op);
        self
    }

    /// Emits a conditional branch to `target`.
    pub fn cond_branch(&mut self, taken: bool, target: Pc, srcs: &[ArchReg]) -> &mut Self {
        let info = BranchInfo {
            taken,
            target,
            kind: BranchKind::Conditional,
        };
        let op = MicroOp::new_branch(self.pc, info, srcs);
        self.push(op);
        self
    }

    /// Emits a conditional loop back-edge to `label`. When `taken` is false
    /// the cursor simply falls through (loop exit).
    pub fn backedge(&mut self, label: Label, taken: bool) -> &mut Self {
        self.cond_branch(taken, label.pc(), &[])
    }

    /// Emits an unconditional direct jump to `target`.
    pub fn jump(&mut self, target: Pc) -> &mut Self {
        let info = BranchInfo {
            taken: true,
            target,
            kind: BranchKind::Direct,
        };
        let op = MicroOp::new_branch(self.pc, info, &[]);
        self.push(op);
        self
    }

    /// Emits an indirect jump to `target` (harder to predict).
    pub fn indirect_jump(&mut self, target: Pc, srcs: &[ArchReg]) -> &mut Self {
        let info = BranchInfo {
            taken: true,
            target,
            kind: BranchKind::Indirect,
        };
        let op = MicroOp::new_branch(self.pc, info, srcs);
        self.push(op);
        self
    }

    /// Emits a raw micro-op at the current cursor, overriding its PC.
    pub fn raw(&mut self, mut op: MicroOp) -> &mut Self {
        op.pc = self.pc;
        self.push(op);
        self
    }

    /// Finishes the trace. The trace keeps this builder's buffer, trimmed
    /// to its length ([`Trace::from_parts`]); no op is copied.
    pub fn build(self) -> Trace {
        Trace::from_parts(self.name, self.category, self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpClass;

    #[test]
    fn cursor_advances_by_four() {
        let mut b = TraceBuilder::new("t");
        let start = b.cursor();
        b.nop().nop();
        assert_eq!(b.cursor(), start.advance(8));
    }

    #[test]
    fn loop_reuses_pcs() {
        let mut b = TraceBuilder::new("t");
        let r = ArchReg::new(1);
        let top = b.label();
        for i in 0..3 {
            b.jump_to(top);
            b.alu(r, &[]);
            b.backedge(top, i != 2);
        }
        let t = b.build();
        assert_eq!(t.ops()[0].pc, t.ops()[2].pc);
        assert_eq!(t.ops()[1].pc, t.ops()[3].pc);
        // Final back-edge is not taken.
        assert!(!t.ops()[5].branch().unwrap().taken);
    }

    #[test]
    fn set_pc_moves_code_footprint() {
        let mut b = TraceBuilder::new("t");
        b.nop();
        b.set_pc(Pc::new(0x80_0000));
        b.nop();
        let t = b.build();
        assert_eq!(t.ops()[1].pc, Pc::new(0x80_0000));
    }

    #[test]
    fn category_is_recorded() {
        let mut b = TraceBuilder::new("t");
        b.category(Category::Server);
        b.nop();
        assert_eq!(b.build().category(), Category::Server);
    }

    #[test]
    fn build_keeps_the_builders_buffer() {
        let mut b = TraceBuilder::new("t");
        for _ in 0..1000 {
            b.nop();
        }
        // Trim first, so that build()'s own trim has nothing to do and
        // the pointer pin does not depend on whether the allocator
        // shrinks in place.
        b.ops.shrink_to_fit();
        assert_eq!(b.ops.capacity(), b.ops.len());
        let buffer = b.ops.as_ptr();
        let t = b.build();
        assert_eq!(t.ops().as_ptr(), buffer, "build() copied the ops");
        assert_eq!(t.clone().ops().as_ptr(), buffer, "clone() copied the ops");
    }

    #[test]
    fn build_trims_the_doubling_slack() {
        let mut b = TraceBuilder::new("t");
        for _ in 0..1000 {
            b.nop();
        }
        assert!(b.ops.capacity() > b.ops.len(), "doubling left no slack");
        let t = b.build();
        assert_eq!(t.len(), 1000);
        assert_eq!(t.heap_bytes(), 1000 * std::mem::size_of::<MicroOp>());
    }

    #[test]
    fn a_reserved_builder_never_regrows() {
        let mut b = TraceBuilder::with_capacity("t", 1000);
        let buffer = b.ops.as_ptr();
        for _ in 0..1000 {
            b.nop();
        }
        assert_eq!(b.ops.as_ptr(), buffer, "the reserved buffer moved");
        assert_eq!(b.ops.capacity(), 1000);
        assert_eq!(b.build().ops().as_ptr(), buffer, "build() copied the ops");
    }

    #[test]
    fn raw_op_pc_is_overridden() {
        let mut b = TraceBuilder::new("t");
        let cursor = b.cursor();
        let op = MicroOp::compute(Pc::new(0xdead), OpClass::Alu, None, &[]);
        b.raw(op);
        assert_eq!(b.build().ops()[0].pc, cursor);
    }
}
