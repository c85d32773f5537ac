//! Micro-operation records.

use crate::ids::{Addr, ArchReg, Pc};
use std::fmt;
use std::num::NonZeroU8;

/// Functional class of a micro-op; determines which execution port it uses
/// and its base execution latency in the core model.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Simple integer ALU operation (1 cycle).
    Alu,
    /// Integer multiply (3 cycles).
    Mul,
    /// Integer/FP divide (long latency, unpipelined-ish).
    Div,
    /// Floating-point add/sub (4 cycles).
    FpAdd,
    /// Floating-point multiply / FMA (4-5 cycles).
    FpMul,
    /// Memory load; latency comes from the cache hierarchy.
    Load,
    /// Memory store; retires when address/data are ready, writes back
    /// through the L1.
    Store,
    /// Conditional or unconditional branch.
    Branch,
    /// No-op / fence placeholder (1 cycle, no dependences added).
    Nop,
}

impl OpClass {
    /// True for classes that reference memory.
    pub const fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Alu => "alu",
            OpClass::Mul => "mul",
            OpClass::Div => "div",
            OpClass::FpAdd => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// Up to three source registers, stored inline.
pub type SrcRegs = [Option<ArchReg>; 3];

/// A memory reference attached to a load or store.
///
/// The access size is never zero, which gives `Option<MemRef>` a niche:
/// it is 9 bytes, the same as a `MemRef` (an [`Addr`] has alignment 1).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Byte address referenced.
    pub addr: Addr,
    size: NonZeroU8,
}

impl MemRef {
    /// An access of `size` bytes at `addr`; `None` unless `size` is 1–64
    /// (at most one cache line).
    pub const fn new(addr: Addr, size: u8) -> Option<MemRef> {
        match NonZeroU8::new(size) {
            Some(size) if size.get() <= 64 => Some(MemRef { addr, size }),
            _ => None,
        }
    }

    /// An 8-byte access at `addr` (what the op constructors emit).
    pub const fn word(addr: Addr) -> MemRef {
        MemRef {
            addr,
            size: NonZeroU8::new(8).expect("8 is non-zero"),
        }
    }

    /// Access size in bytes (1–64).
    pub const fn size(self) -> u8 {
        self.size.get()
    }
}

/// Kind of branch, affecting prediction behaviour.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// Conditional direct branch (predicted by the direction predictor).
    Conditional,
    /// Unconditional direct jump/call (always predicted correctly once the
    /// BTB knows the target; modelled as always-correct).
    Direct,
    /// Indirect jump/call/return (mispredicts with a configurable rate via
    /// the target predictor).
    Indirect,
}

/// Branch metadata attached to a [`OpClass::Branch`] micro-op.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BranchInfo {
    /// Whether the branch is taken in the trace.
    pub taken: bool,
    /// Target PC when taken (fall-through is `pc + 4` otherwise).
    pub target: Pc,
    /// Branch kind.
    pub kind: BranchKind,
}

/// `MicroOp::branch_bits`: bit 0 is "taken", bits 1–2 the kind.
const TAKEN_BIT: u8 = 1;
const KIND_SHIFT: u32 = 1;

/// One retired-path micro-operation, 32 bytes (half a cache line).
///
/// `MicroOp` is the unit the core model allocates, schedules, executes and
/// retires. Loads carry the value they load ([`MicroOp::load_value`]) so
/// that the TACT-Feeder prefetcher can learn data→address associations
/// exactly as the hardware proposal would observe them.
///
/// An op is a load *or* a store *or* a branch, never more than one, so
/// the load value and the branch target share one private word that
/// `class` selects. Only the constructors fill it, which keeps the
/// payload matching the class the op was built with; `class` is public
/// for reading.
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct MicroOp {
    /// Program counter of the parent instruction.
    pub pc: Pc,
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
    /// The loaded value for loads, the branch target for branches, 0
    /// otherwise.
    payload: u64,
    /// Functional class.
    pub class: OpClass,
    /// Branch taken/kind bits (branches only; 0 otherwise).
    branch_bits: u8,
    /// Source registers (dependences).
    pub srcs: SrcRegs,
    /// Destination register, if any.
    pub dst: Option<ArchReg>,
}

const _: () = assert!(std::mem::size_of::<MicroOp>() == 32);
const _: () = assert!(std::mem::size_of::<Option<ArchReg>>() == 1);
const _: () = assert!(std::mem::size_of::<Option<MemRef>>() == 9);
const _: () = assert!(std::mem::align_of::<Addr>() == 1);

impl MicroOp {
    /// Creates a non-memory, non-branch op.
    ///
    /// # Panics
    ///
    /// Panics if `class` is a load, store or branch (their constructors
    /// take the address, value or branch record such an op carries).
    pub fn compute(pc: Pc, class: OpClass, dst: Option<ArchReg>, srcs: &[ArchReg]) -> Self {
        assert!(
            !matches!(class, OpClass::Load | OpClass::Store | OpClass::Branch),
            "MicroOp::compute builds neither loads, stores nor branches"
        );
        MicroOp {
            pc,
            mem: None,
            payload: 0,
            class,
            branch_bits: 0,
            srcs: pack_srcs(srcs),
            dst,
        }
    }

    /// Creates an 8-byte load at `addr` producing `value` into `dst`.
    pub fn load(pc: Pc, dst: ArchReg, addr: Addr, value: u64, srcs: &[ArchReg]) -> Self {
        MicroOp {
            pc,
            mem: Some(MemRef::word(addr)),
            payload: value,
            class: OpClass::Load,
            branch_bits: 0,
            srcs: pack_srcs(srcs),
            dst: Some(dst),
        }
    }

    /// Creates an 8-byte store to `addr` whose data comes from `srcs`.
    pub fn store(pc: Pc, addr: Addr, srcs: &[ArchReg]) -> Self {
        MicroOp {
            pc,
            mem: Some(MemRef::word(addr)),
            payload: 0,
            class: OpClass::Store,
            branch_bits: 0,
            srcs: pack_srcs(srcs),
            dst: None,
        }
    }

    /// Creates a branch.
    pub fn new_branch(pc: Pc, info: BranchInfo, srcs: &[ArchReg]) -> Self {
        let kind = match info.kind {
            BranchKind::Conditional => 0,
            BranchKind::Direct => 1,
            BranchKind::Indirect => 2,
        };
        MicroOp {
            pc,
            mem: None,
            payload: info.target.get(),
            class: OpClass::Branch,
            branch_bits: u8::from(info.taken) | kind << KIND_SHIFT,
            srcs: pack_srcs(srcs),
            dst: None,
        }
    }

    /// Value loaded from memory (loads only; 0 otherwise).
    pub fn load_value(&self) -> u64 {
        if self.class == OpClass::Load {
            self.payload
        } else {
            0
        }
    }

    /// Branch metadata (branches only).
    pub fn branch(&self) -> Option<BranchInfo> {
        if self.class != OpClass::Branch {
            return None;
        }
        Some(BranchInfo {
            taken: self.branch_bits & TAKEN_BIT != 0,
            target: Pc::new(self.payload),
            kind: match self.branch_bits >> KIND_SHIFT {
                0 => BranchKind::Conditional,
                1 => BranchKind::Direct,
                _ => BranchKind::Indirect,
            },
        })
    }

    /// Offsets the data address *and the load value* by `offset` bytes
    /// (see [`crate::Trace::rebased`]); code addresses stay put.
    pub fn rebase(&mut self, offset: u64) {
        if let Some(mem) = self.mem.as_mut() {
            mem.addr = mem.addr.offset(offset as i64);
        }
        if self.class == OpClass::Load {
            self.payload = self.payload.wrapping_add(offset);
        }
    }

    /// True if this op reads `reg`.
    pub fn reads(&self, reg: ArchReg) -> bool {
        self.srcs.iter().flatten().any(|&r| r == reg)
    }

    /// Iterates over the source registers that are present.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// The address of the next sequential instruction (PCs advance by 4).
    pub fn fallthrough(&self) -> Pc {
        self.pc.advance(4)
    }

    /// The PC the front end should fetch after this op, honouring taken
    /// branches.
    pub fn next_pc(&self) -> Pc {
        match self.branch() {
            Some(b) if b.taken => b.target,
            _ => self.fallthrough(),
        }
    }
}

/// Renders the decoded `load_value` and `branch`, not the shared word.
impl fmt::Debug for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MicroOp")
            .field("pc", &self.pc)
            .field("class", &self.class)
            .field("srcs", &self.srcs)
            .field("dst", &self.dst)
            .field("mem", &self.mem)
            .field("load_value", &self.load_value())
            .field("branch", &self.branch())
            .finish()
    }
}

fn pack_srcs(srcs: &[ArchReg]) -> SrcRegs {
    assert!(srcs.len() <= 3, "micro-ops have at most 3 register sources");
    let mut out: SrcRegs = [None; 3];
    for (slot, &reg) in out.iter_mut().zip(srcs.iter()) {
        *slot = Some(reg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn compute_op_tracks_sources() {
        let op = MicroOp::compute(Pc::new(0x10), OpClass::Alu, Some(r(3)), &[r(1), r(2)]);
        assert!(op.reads(r(1)));
        assert!(op.reads(r(2)));
        assert!(!op.reads(r(3)));
        assert_eq!(op.sources().count(), 2);
    }

    #[test]
    fn load_records_value_and_addr() {
        let op = MicroOp::load(Pc::new(0), r(1), Addr::new(0x80), 0xdead, &[r(2)]);
        assert_eq!(op.class, OpClass::Load);
        assert_eq!(op.mem.unwrap().addr, Addr::new(0x80));
        assert_eq!(op.load_value(), 0xdead);
        assert_eq!(op.dst, Some(r(1)));
    }

    #[test]
    fn branch_next_pc_follows_taken_target() {
        let info = BranchInfo {
            taken: true,
            target: Pc::new(0x100),
            kind: BranchKind::Conditional,
        };
        let op = MicroOp::new_branch(Pc::new(0x10), info, &[]);
        assert_eq!(op.next_pc(), Pc::new(0x100));

        let nt = MicroOp::new_branch(
            Pc::new(0x10),
            BranchInfo {
                taken: false,
                ..info
            },
            &[],
        );
        assert_eq!(nt.next_pc(), Pc::new(0x14));
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn too_many_sources_panics() {
        let _ = MicroOp::compute(Pc::new(0), OpClass::Alu, None, &[r(0), r(1), r(2), r(3)]);
    }

    #[test]
    fn mem_class_predicate() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
    }

    #[test]
    #[should_panic(expected = "neither loads, stores nor branches")]
    fn compute_rejects_classes_with_a_payload() {
        let _ = MicroOp::compute(Pc::new(0), OpClass::Branch, None, &[]);
    }

    #[test]
    fn mem_ref_sizes_are_one_to_sixty_four() {
        let a = Addr::new(0x40);
        assert_eq!(MemRef::new(a, 0), None);
        assert_eq!(MemRef::new(a, 65), None);
        assert_eq!(MemRef::new(a, 1).map(MemRef::size), Some(1));
        assert_eq!(MemRef::new(a, 64).map(MemRef::size), Some(64));
        assert_eq!(Some(MemRef::word(a)), MemRef::new(a, 8));
    }

    #[test]
    fn constructor_arguments_come_back_out() {
        use crate::rng::Cases;
        const COMPUTE: [OpClass; 6] = [
            OpClass::Alu,
            OpClass::Mul,
            OpClass::Div,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::Nop,
        ];
        const KINDS: [BranchKind; 3] = [
            BranchKind::Conditional,
            BranchKind::Direct,
            BranchKind::Indirect,
        ];
        Cases::new(512).run(|rng| {
            let pc = Pc::new(rng.next_u64());
            let addr = Addr::new(rng.next_u64());
            let value = rng.next_u64();
            let reg = |rng: &mut crate::rng::SplitMix64| r(rng.gen_range(0..64usize) as u8);
            let srcs: Vec<ArchReg> = (0..rng.gen_range(0..=3usize)).map(|_| reg(rng)).collect();
            let mut packed = [None; 3];
            for (slot, &s) in packed.iter_mut().zip(&srcs) {
                *slot = Some(s);
            }
            let dst = reg(rng);

            let class = COMPUTE[rng.gen_range(0..COMPUTE.len())];
            let op = MicroOp::compute(pc, class, Some(dst), &srcs);
            assert_eq!(
                (op.pc, op.class, op.srcs, op.dst),
                (pc, class, packed, Some(dst))
            );
            assert_eq!((op.mem, op.load_value(), op.branch()), (None, 0, None));

            let op = MicroOp::load(pc, dst, addr, value, &srcs);
            assert_eq!((op.pc, op.class, op.srcs), (pc, OpClass::Load, packed));
            assert_eq!((op.dst, op.mem), (Some(dst), Some(MemRef::word(addr))));
            assert_eq!((op.load_value(), op.branch()), (value, None));

            let op = MicroOp::store(pc, addr, &srcs);
            assert_eq!((op.pc, op.class, op.srcs), (pc, OpClass::Store, packed));
            assert_eq!((op.dst, op.mem), (None, Some(MemRef::word(addr))));
            assert_eq!((op.load_value(), op.branch()), (0, None));

            let info = BranchInfo {
                taken: rng.gen_bool(0.5),
                target: Pc::new(value),
                kind: KINDS[rng.gen_range(0..KINDS.len())],
            };
            let op = MicroOp::new_branch(pc, info, &srcs);
            assert_eq!((op.pc, op.class, op.srcs), (pc, OpClass::Branch, packed));
            assert_eq!((op.dst, op.mem, op.load_value()), (None, None, 0));
            assert_eq!(op.branch(), Some(info));

            // Rebasing moves data addresses and load values, nothing else.
            let offset = rng.next_u64();
            let mut load = MicroOp::load(pc, dst, addr, value, &srcs);
            load.rebase(offset);
            let moved = addr.offset(offset as i64);
            assert_eq!(
                load,
                MicroOp::load(pc, dst, moved, value.wrapping_add(offset), &srcs)
            );
            let mut store = MicroOp::store(pc, addr, &srcs);
            store.rebase(offset);
            assert_eq!(store, MicroOp::store(pc, moved, &srcs));
            let mut branch = op;
            branch.rebase(offset);
            assert_eq!(branch, op);
        });
    }
}
