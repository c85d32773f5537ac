//! Register-flow tracking for the Feeder prefetcher.

use catch_trace::{ArchReg, MicroOp, OpClass, Pc};

/// Per-architectural-register tracking of the youngest load influencing
/// its contents (paper Section IV-B1, "TACT - Feeder").
///
/// * A load writes its own PC (and loaded value) into its destination
///   register's slot.
/// * A non-load op propagates the *youngest* load PC across its source
///   registers into its destination.
///
/// The feeder candidate for a load is then the youngest load PC across
/// its source registers.
#[derive(Debug)]
pub struct FeederRegFile {
    /// (load PC, loaded value, age) per architectural register.
    slots: Vec<Option<(Pc, u64, u64)>>,
    tick: u64,
}

impl FeederRegFile {
    /// Creates an empty register file.
    pub fn new() -> Self {
        FeederRegFile {
            slots: vec![None; ArchReg::COUNT],
            tick: 0,
        }
    }

    /// Observes one retired micro-op.
    pub fn observe(&mut self, op: &MicroOp) {
        self.tick += 1;
        let Some(dst) = op.dst else { return };
        if op.class == OpClass::Load {
            self.slots[dst.index()] = Some((op.pc, op.load_value(), self.tick));
        } else {
            // Propagate the youngest load among sources.
            let youngest = op
                .sources()
                .filter_map(|r| self.slots[r.index()])
                .max_by_key(|&(_, _, age)| age);
            self.slots[dst.index()] = youngest;
        }
    }

    /// The youngest load (PC, value) feeding any source of `op`.
    pub fn youngest_feeder(&self, op: &MicroOp) -> Option<(Pc, u64)> {
        op.sources()
            .filter_map(|r| self.slots[r.index()])
            .max_by_key(|&(_, _, age)| age)
            .map(|(pc, v, _)| (pc, v))
    }

    /// Current tracking for one register (diagnostics).
    pub fn slot(&self, reg: ArchReg) -> Option<(Pc, u64)> {
        self.slots[reg.index()].map(|(pc, v, _)| (pc, v))
    }
}

impl Default for FeederRegFile {
    fn default() -> Self {
        FeederRegFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_trace::Addr;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn load_sets_own_pc() {
        let mut f = FeederRegFile::new();
        let op = MicroOp::load(Pc::new(0x10), r(1), Addr::new(8), 42, &[]);
        f.observe(&op);
        assert_eq!(f.slot(r(1)), Some((Pc::new(0x10), 42)));
    }

    #[test]
    fn alu_propagates_youngest_load() {
        let mut f = FeederRegFile::new();
        f.observe(&MicroOp::load(Pc::new(0x10), r(1), Addr::new(8), 1, &[]));
        f.observe(&MicroOp::load(Pc::new(0x14), r(2), Addr::new(16), 2, &[]));
        // r3 = r1 + r2 -> youngest is the load at 0x14.
        f.observe(&MicroOp::compute(
            Pc::new(0x18),
            OpClass::Alu,
            Some(r(3)),
            &[r(1), r(2)],
        ));
        assert_eq!(f.slot(r(3)), Some((Pc::new(0x14), 2)));
    }

    #[test]
    fn youngest_feeder_for_dependent_load() {
        let mut f = FeederRegFile::new();
        f.observe(&MicroOp::load(
            Pc::new(0x10),
            r(1),
            Addr::new(8),
            0xBEEF,
            &[],
        ));
        let target = MicroOp::load(Pc::new(0x20), r(2), Addr::new(0xBEEF), 0, &[r(1)]);
        assert_eq!(f.youngest_feeder(&target), Some((Pc::new(0x10), 0xBEEF)));
    }

    #[test]
    fn untracked_sources_give_none() {
        let f = FeederRegFile::new();
        let op = MicroOp::load(Pc::new(0x20), r(2), Addr::new(0), 0, &[r(5)]);
        assert_eq!(f.youngest_feeder(&op), None);
    }

    #[test]
    fn overwrite_follows_program_order() {
        let mut f = FeederRegFile::new();
        f.observe(&MicroOp::load(Pc::new(0x10), r(1), Addr::new(8), 1, &[]));
        f.observe(&MicroOp::load(Pc::new(0x30), r(1), Addr::new(24), 3, &[]));
        assert_eq!(f.slot(r(1)), Some((Pc::new(0x30), 3)));
    }
}
