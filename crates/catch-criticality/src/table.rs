//! The critical-load table (32-entry, 8-way, 2-bit confidence).

use catch_trace::Pc;

#[derive(Copy, Clone, Debug)]
struct TableEntry {
    pc: Pc,
    confidence: u8,
    last_use: u64,
}

const CONFIDENCE_MAX: u8 = 3;

/// Set-associative table of critical load PCs.
///
/// A PC is *reported* critical only when present with a saturated 2-bit
/// confidence counter. Unsaturated entries are periodically reset by the
/// detector so stale criticality decays (the paper's 100 K-instruction
/// re-learn).
#[derive(Debug)]
pub struct CriticalLoadTable {
    sets: usize,
    ways: usize,
    entries: Vec<Option<TableEntry>>,
    tick: u64,
    inserts: u64,
    evictions: u64,
}

impl CriticalLoadTable {
    /// Creates a table with `entries` total slots and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways` or either is zero.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0, "table must have capacity");
        assert!(
            entries.is_multiple_of(ways),
            "entries ({entries}) must divide into {ways}-way sets"
        );
        CriticalLoadTable {
            sets: entries / ways,
            ways,
            entries: vec![None; entries],
            tick: 0,
            inserts: 0,
            evictions: 0,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// PCs inserted (including repeats).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Entries displaced by allocation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn set_of(&self, pc: Pc) -> usize {
        (pc.get() / 4 % self.sets as u64) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Records an observation of `pc` on the critical path: bumps its
    /// confidence, allocating (LRU) if absent. Returns the PC evicted to
    /// make room, if the allocation displaced a live entry.
    pub fn insert(&mut self, pc: Pc) -> Option<Pc> {
        self.tick += 1;
        self.inserts += 1;
        let set = self.set_of(pc);
        let range = self.slot_range(set);
        // Hit: bump confidence.
        for i in range.clone() {
            if let Some(e) = self.entries[i].as_mut() {
                if e.pc == pc {
                    e.confidence = (e.confidence + 1).min(CONFIDENCE_MAX);
                    e.last_use = self.tick;
                    return None;
                }
            }
        }
        // Allocate: empty way, else LRU victim.
        let victim = range
            .clone()
            .find(|&i| self.entries[i].is_none())
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.entries[i].map(|e| e.last_use).unwrap_or(0))
                    .expect("sets have at least one way")
            });
        let displaced = self.entries[victim].map(|e| e.pc);
        if displaced.is_some() {
            self.evictions += 1;
        }
        self.entries[victim] = Some(TableEntry {
            pc,
            confidence: 1,
            last_use: self.tick,
        });
        displaced
    }

    /// True if `pc` is present with saturated confidence.
    pub fn is_critical(&self, pc: Pc) -> bool {
        let set = self.set_of(pc);
        self.slot_range(set).any(|i| {
            self.entries[i]
                .map(|e| e.pc == pc && e.confidence >= CONFIDENCE_MAX)
                .unwrap_or(false)
        })
    }

    /// All PCs currently reported critical, in slot order.
    pub fn critical_pcs(&self) -> impl Iterator<Item = Pc> + '_ {
        self.entries
            .iter()
            .flatten()
            .filter(|e| e.confidence >= CONFIDENCE_MAX)
            .map(|e| e.pc)
    }

    /// Number of occupied slots (any confidence).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Resets the confidence of unsaturated entries (the periodic
    /// re-learn). Saturated entries keep their status.
    pub fn relearn(&mut self) {
        for e in self.entries.iter_mut().flatten() {
            if e.confidence < CONFIDENCE_MAX {
                e.confidence = 0;
            }
        }
    }

    /// Clears the table entirely.
    pub fn clear(&mut self) {
        self.entries.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(n: u64) -> Pc {
        Pc::new(n * 4)
    }

    #[test]
    fn needs_saturation_to_report_critical() {
        let mut t = CriticalLoadTable::new(32, 8);
        t.insert(pc(1));
        t.insert(pc(1));
        assert!(!t.is_critical(pc(1)));
        t.insert(pc(1));
        assert!(t.is_critical(pc(1)));
    }

    #[test]
    fn lru_eviction_in_full_set() {
        // 1 set, 2 ways: three distinct PCs mapping to the same set.
        let mut t = CriticalLoadTable::new(2, 2);
        t.insert(pc(1));
        t.insert(pc(2));
        t.insert(pc(1)); // pc1 more recent
        t.insert(pc(3)); // evicts pc2
        for _ in 0..3 {
            t.insert(pc(1));
            t.insert(pc(3));
        }
        assert!(t.is_critical(pc(1)));
        assert!(t.is_critical(pc(3)));
        assert!(!t.is_critical(pc(2)));
        assert_eq!(t.evictions(), 1);
    }

    #[test]
    fn relearn_resets_unsaturated_only() {
        let mut t = CriticalLoadTable::new(32, 8);
        for _ in 0..3 {
            t.insert(pc(1));
        }
        t.insert(pc(2)); // confidence 1
        t.relearn();
        assert!(t.is_critical(pc(1)));
        // pc2 must now re-earn all confidence.
        t.insert(pc(2));
        t.insert(pc(2));
        assert!(!t.is_critical(pc(2)));
        t.insert(pc(2));
        assert!(t.is_critical(pc(2)));
    }

    #[test]
    fn critical_pcs_lists_saturated() {
        let mut t = CriticalLoadTable::new(32, 8);
        for _ in 0..3 {
            t.insert(pc(1));
            t.insert(pc(9));
        }
        t.insert(pc(5));
        let mut pcs: Vec<Pc> = t.critical_pcs().collect();
        pcs.sort();
        assert_eq!(pcs, vec![pc(1), pc(9)]);
        assert_eq!(t.occupancy(), 3);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_bad_geometry() {
        let _ = CriticalLoadTable::new(10, 4);
    }

    #[test]
    fn clear_empties_table() {
        let mut t = CriticalLoadTable::new(8, 4);
        for _ in 0..3 {
            t.insert(pc(1));
        }
        t.clear();
        assert!(!t.is_critical(pc(1)));
        assert_eq!(t.occupancy(), 0);
    }
}
