//! The Critical Target PC Table and its per-entry learning state.

use crate::tact::selfstride::SelfStride;
use catch_trace::Pc;

const DELTA_CONF_LEARN: u8 = 2;
const FEEDER_CONF_CONFIRM: u8 = 3;
const BASE_CONF_LEARN: u8 = 2;
const SCALES: [u8; 4] = [1, 2, 4, 8];

/// Cross-association training state for one target.
#[derive(Debug, Clone, Default)]
pub struct CrossState {
    /// Trigger candidate currently under evaluation.
    pub current: Option<Pc>,
    /// Candidates already tried (including the current one).
    pub tried: Vec<Option<Pc>>,
    instances: u8,
    wraps: u8,
    last_delta: i64,
    delta_conf: u8,
}

impl CrossState {
    /// Adopts a fresh candidate.
    pub fn adopt(&mut self, pc: Pc) {
        self.current = Some(pc);
        self.tried.push(Some(pc));
        self.instances = 0;
        self.last_delta = 0;
        self.delta_conf = 0;
    }

    /// Observes the delta between the target address and the candidate's
    /// last address; returns true when the delta is stable enough to learn.
    pub fn observe_delta(&mut self, delta: i64) -> bool {
        self.instances = self.instances.saturating_add(1);
        if delta == self.last_delta && delta != 0 {
            self.delta_conf = (self.delta_conf + 1).min(3);
        } else {
            self.last_delta = delta;
            self.delta_conf = 0;
        }
        self.delta_conf >= DELTA_CONF_LEARN
    }

    /// True when the current candidate has used up its instances.
    pub fn exhausted(&self, per_candidate: u8, max_wraps: u8) -> bool {
        self.instances >= per_candidate && self.wraps <= max_wraps
    }

    /// Moves to the next candidate (or wraps the search).
    pub fn advance(&mut self, next: Option<Pc>) {
        match next {
            Some(pc) => self.adopt(pc),
            None => {
                // Wrap: clear history and start over, bounded.
                self.wraps = self.wraps.saturating_add(1);
                self.tried.clear();
                self.current = None;
                self.instances = 0;
            }
        }
    }
}

/// Feeder training state for one target.
#[derive(Debug, Clone, Default)]
pub struct FeederState {
    candidate: Option<Pc>,
    candidate_conf: u8,
    scale_idx: usize,
    base: i64,
    base_conf: u8,
    /// Learned `(scale, base)` of `address = scale × data + base`.
    pub learned: Option<(u8, i64)>,
}

impl FeederState {
    /// Observes the youngest-feeder candidate for an instance; returns true
    /// once the candidate is confirmed (2-bit confidence saturated).
    pub fn observe_candidate(&mut self, pc: Pc) -> bool {
        match self.candidate {
            Some(c) if c == pc => {
                self.candidate_conf = (self.candidate_conf + 1).min(FEEDER_CONF_CONFIRM);
            }
            Some(_) => {
                if self.candidate_conf > 0 {
                    self.candidate_conf -= 1;
                } else {
                    self.candidate = Some(pc);
                    self.learned = None;
                    self.base_conf = 0;
                    self.scale_idx = 0;
                }
            }
            None => {
                self.candidate = Some(pc);
                self.candidate_conf = 1;
            }
        }
        self.candidate_conf >= FEEDER_CONF_CONFIRM
    }

    /// The confirmed feeder PC, if any.
    pub fn confirmed(&self) -> Option<Pc> {
        (self.candidate_conf >= FEEDER_CONF_CONFIRM)
            .then_some(self.candidate)
            .flatten()
    }

    /// Trains `address = scale × data + base`, limited to power-of-two
    /// scales (three shifts in hardware). Returns the relation when its
    /// confidence saturates.
    pub fn train_relation(&mut self, addr: catch_trace::Addr, value: u64) -> Option<(u8, i64)> {
        let scale = SCALES[self.scale_idx];
        let base = addr.get().wrapping_sub((scale as u64).wrapping_mul(value)) as i64;
        if base == self.base && self.base_conf > 0 {
            self.base_conf = (self.base_conf + 1).min(3);
        } else if self.base_conf > 0 {
            self.base_conf -= 1;
            if self.base_conf == 0 {
                // Try the next scale.
                self.scale_idx = (self.scale_idx + 1) % SCALES.len();
            }
        } else {
            self.base = base;
            self.base_conf = 1;
        }
        (self.base_conf >= BASE_CONF_LEARN).then_some((scale, self.base))
    }
}

/// One critical target's complete learning state.
#[derive(Debug, Clone, Default)]
pub struct TargetEntry {
    /// Deep-Self stride state.
    pub self_stride: SelfStride,
    /// Cross training state.
    pub cross: CrossState,
    /// Learned cross association `(trigger, delta)`.
    pub cross_learned: Option<(Pc, i64)>,
    /// Feeder training state.
    pub feeder: FeederState,
    last_use: u64,
}

/// The Critical Target PC Table (paper: 32 entries).
///
/// Stored as two parallel arrays: the dense `pcs` array a lookup scans
/// (8 bytes per target, so all 32 fit in four cache lines) and the
/// per-target learning state it indexes. A load probes the table once
/// ([`TargetTable::find`]) and then works on the slot.
#[derive(Debug)]
pub struct TargetTable {
    capacity: usize,
    pcs: Vec<Pc>,
    entries: Vec<TargetEntry>,
    tick: u64,
}

impl TargetTable {
    /// Creates a table for up to `capacity` targets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "target table needs capacity");
        TargetTable {
            capacity,
            pcs: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            tick: 0,
        }
    }

    /// The slot holding `pc`, if it is a target.
    #[inline]
    pub fn find(&self, pc: Pc) -> Option<usize> {
        self.pcs.iter().position(|&p| p == pc)
    }

    /// True if `pc` has an entry.
    pub fn contains(&self, pc: Pc) -> bool {
        self.find(pc).is_some()
    }

    /// Number of live targets.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when no targets are tracked.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Refreshes `pc`'s entry or allocates one (LRU replacement).
    /// Returns true if a new entry was allocated.
    pub fn touch_or_allocate(&mut self, pc: Pc) -> bool {
        if let Some(slot) = self.find(pc) {
            self.touch(slot);
            return false;
        }
        self.tick += 1;
        if self.pcs.len() >= self.capacity {
            let (victim, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .expect("table is non-empty");
            self.pcs.swap_remove(victim);
            self.entries.swap_remove(victim);
        }
        self.pcs.push(pc);
        self.entries.push(TargetEntry {
            last_use: self.tick,
            ..TargetEntry::default()
        });
        true
    }

    /// Immutable access to a target's state.
    pub fn get(&self, pc: Pc) -> Option<&TargetEntry> {
        self.find(pc).map(|slot| &self.entries[slot])
    }

    /// Marks the target in `slot` (from [`TargetTable::find`]) most
    /// recently used.
    pub fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.entries[slot].last_use = self.tick;
    }

    /// Mutable access to the state of the target in `slot` (from
    /// [`TargetTable::find`]); leaves the LRU order alone.
    pub fn entry_mut(&mut self, slot: usize) -> &mut TargetEntry {
        &mut self.entries[slot]
    }

    /// All tracked PCs, in slot order.
    pub fn pcs(&self) -> &[Pc] {
        &self.pcs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_trace::Addr;

    fn pc(n: u64) -> Pc {
        Pc::new(n * 4)
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = TargetTable::new(2);
        assert!(t.touch_or_allocate(pc(1)));
        assert!(t.touch_or_allocate(pc(2)));
        assert!(!t.touch_or_allocate(pc(1))); // refresh
        assert!(t.touch_or_allocate(pc(3))); // evicts 2
        assert!(t.contains(pc(1)));
        assert!(!t.contains(pc(2)));
        assert!(t.contains(pc(3)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cross_state_learns_stable_delta() {
        let mut c = CrossState::default();
        c.adopt(pc(9));
        assert!(!c.observe_delta(256));
        assert!(!c.observe_delta(256));
        assert!(c.observe_delta(256));
        // Unstable delta resets.
        let mut c2 = CrossState::default();
        c2.adopt(pc(9));
        for d in [1, 2, 3, 4, 5] {
            assert!(!c2.observe_delta(d));
        }
    }

    #[test]
    fn cross_candidate_exhaustion_and_advance() {
        let mut c = CrossState::default();
        c.adopt(pc(1));
        for _ in 0..16 {
            c.observe_delta(0);
        }
        assert!(c.exhausted(16, 4));
        c.advance(Some(pc(2)));
        assert_eq!(c.current, Some(pc(2)));
        assert!(!c.exhausted(16, 4));
        c.advance(None); // wrap
        assert_eq!(c.current, None);
        assert!(c.tried.is_empty());
    }

    #[test]
    fn feeder_candidate_confirmation() {
        let mut f = FeederState::default();
        assert!(!f.observe_candidate(pc(5)));
        assert!(!f.observe_candidate(pc(5)));
        assert!(f.observe_candidate(pc(5)));
        assert_eq!(f.confirmed(), Some(pc(5)));
        // Competing candidate decays confidence but needs persistence.
        f.observe_candidate(pc(6));
        assert!(f.observe_candidate(pc(5)));
    }

    #[test]
    fn feeder_relation_learns_scale_and_base() {
        let mut f = FeederState::default();
        for _ in 0..3 {
            f.observe_candidate(pc(5));
        }
        // address = 8 * value + 0x1000
        let mut learned = None;
        for v in 0..20u64 {
            learned = f.train_relation(Addr::new(8 * v + 0x1000), v);
        }
        // The trainer tries scale 1 first; base = addr - v is not stable,
        // so it advances through scales until 8 sticks.
        assert_eq!(learned, Some((8, 0x1000)));
    }

    #[test]
    fn feeder_relation_scale_one_pointer() {
        let mut f = FeederState::default();
        let mut learned = None;
        for v in 0..10u64 {
            let ptr = 0x4000 + v * 4096;
            learned = f.train_relation(Addr::new(ptr), ptr);
        }
        assert_eq!(learned, Some((1, 0)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = TargetTable::new(0);
    }
}
