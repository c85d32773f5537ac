//! Branch prediction: gshare direction predictor + last-target indirect
//! predictor.

use catch_trace::{BranchInfo, BranchKind, Pc};

/// Counters for the branch unit.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub conditional: u64,
    /// Conditional direction mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect branches predicted.
    pub indirect: u64,
    /// Indirect target mispredictions.
    pub indirect_mispredicts: u64,
}

impl catch_trace::counters::Counters for BranchStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn catch_trace::counters::CounterSink) {
        use catch_trace::counters::push_counter;
        push_counter(out, prefix, "conditional", self.conditional);
        push_counter(out, prefix, "cond_mispredicts", self.cond_mispredicts);
        push_counter(out, prefix, "indirect", self.indirect);
        push_counter(
            out,
            prefix,
            "indirect_mispredicts",
            self.indirect_mispredicts,
        );
    }
}

impl catch_trace::counters::FromCounters for BranchStats {
    fn from_counters(
        prefix: &str,
        src: &mut catch_trace::counters::CounterSource,
    ) -> Result<Self, String> {
        Ok(BranchStats {
            conditional: src.take(prefix, "conditional")?,
            cond_mispredicts: src.take(prefix, "cond_mispredicts")?,
            indirect: src.take(prefix, "indirect")?,
            indirect_mispredicts: src.take(prefix, "indirect_mispredicts")?,
        })
    }
}

impl BranchStats {
    /// Overall misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        let total = self.conditional + self.indirect;
        if total == 0 {
            0.0
        } else {
            (self.cond_mispredicts + self.indirect_mispredicts) as f64 / total as f64
        }
    }
}

/// Gshare direction predictor plus a last-target table for indirect
/// branches. Direct unconditional branches always predict correctly.
#[derive(Debug)]
pub struct BranchUnit {
    history: u64,
    history_bits: u32,
    counters: Vec<u8>,
    targets: Vec<Option<(u64, Pc)>>,
    stats: BranchStats,
}

impl BranchUnit {
    /// Creates a predictor with `2^table_bits` 2-bit counters and
    /// `history_bits` of global history.
    pub fn new(table_bits: u32, history_bits: u32) -> Self {
        BranchUnit {
            history: 0,
            history_bits,
            counters: vec![1; 1 << table_bits],
            targets: vec![None; 1024],
            stats: BranchStats::default(),
        }
    }

    /// Default geometry (16K counters, 12 bits of history).
    pub fn skylake_like() -> Self {
        BranchUnit::new(14, 12)
    }

    /// Counters.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    fn index(&self, pc: Pc) -> usize {
        let mask = self.counters.len() as u64 - 1;
        (((pc.get() >> 2) ^ (self.history & ((1 << self.history_bits) - 1))) & mask) as usize
    }

    /// Predicted direction without updating state (used by the code
    /// runahead to decide how far it may safely walk).
    pub fn peek_direction(&self, pc: Pc) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Predicts and trains on a branch; returns `true` if mispredicted.
    pub fn predict_and_train(&mut self, pc: Pc, info: BranchInfo) -> bool {
        match info.kind {
            BranchKind::Direct => false,
            BranchKind::Conditional => {
                self.stats.conditional += 1;
                let idx = self.index(pc);
                let predicted = self.counters[idx] >= 2;
                // Train counter.
                if info.taken {
                    self.counters[idx] = (self.counters[idx] + 1).min(3);
                } else {
                    self.counters[idx] = self.counters[idx].saturating_sub(1);
                }
                // Update history.
                self.history = (self.history << 1) | u64::from(info.taken);
                let wrong = predicted != info.taken;
                if wrong {
                    self.stats.cond_mispredicts += 1;
                }
                wrong
            }
            BranchKind::Indirect => {
                self.stats.indirect += 1;
                let slot = (pc.get() / 4 % self.targets.len() as u64) as usize;
                let predicted = self.targets[slot]
                    .filter(|(tag, _)| *tag == pc.get())
                    .map(|(_, t)| t);
                self.targets[slot] = Some((pc.get(), info.target));
                let wrong = predicted != Some(info.target);
                if wrong {
                    self.stats.indirect_mispredicts += 1;
                }
                wrong
            }
        }
    }
}

impl Default for BranchUnit {
    fn default() -> Self {
        BranchUnit::skylake_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(taken: bool) -> BranchInfo {
        BranchInfo {
            taken,
            target: Pc::new(0x100),
            kind: BranchKind::Conditional,
        }
    }

    #[test]
    fn learns_biased_branch() {
        let mut b = BranchUnit::skylake_like();
        let pc = Pc::new(0x40);
        // Always-taken loop branch: after warm-up (history register must
        // fill with the taken pattern first), no mispredicts.
        for _ in 0..20 {
            b.predict_and_train(pc, cond(true));
        }
        let before = b.stats().cond_mispredicts;
        for _ in 0..100 {
            b.predict_and_train(pc, cond(true));
        }
        assert_eq!(b.stats().cond_mispredicts, before);
    }

    #[test]
    fn random_branch_mispredicts_sometimes() {
        let mut b = BranchUnit::skylake_like();
        let pc = Pc::new(0x40);
        let mut x = 0x12345u64;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            b.predict_and_train(pc, cond(x >> 63 == 1));
        }
        assert!(b.stats().mispredict_rate() > 0.2);
    }

    #[test]
    fn direct_branches_never_mispredict() {
        let mut b = BranchUnit::skylake_like();
        let info = BranchInfo {
            taken: true,
            target: Pc::new(0x99),
            kind: BranchKind::Direct,
        };
        assert!(!b.predict_and_train(Pc::new(0x10), info));
        assert_eq!(b.stats().mispredict_rate(), 0.0);
    }

    #[test]
    fn indirect_learns_stable_target() {
        let mut b = BranchUnit::skylake_like();
        let pc = Pc::new(0x10);
        let info = BranchInfo {
            taken: true,
            target: Pc::new(0x500),
            kind: BranchKind::Indirect,
        };
        assert!(b.predict_and_train(pc, info)); // cold miss
        assert!(!b.predict_and_train(pc, info)); // learned
                                                 // Target change mispredicts once.
        let other = BranchInfo {
            target: Pc::new(0x900),
            ..info
        };
        assert!(b.predict_and_train(pc, other));
        assert!(!b.predict_and_train(pc, other));
    }

    #[test]
    fn peek_does_not_train() {
        let b = BranchUnit::skylake_like();
        let before = b.counters.clone();
        let _ = b.peek_direction(Pc::new(0x40));
        assert_eq!(b.counters, before);
    }
}
