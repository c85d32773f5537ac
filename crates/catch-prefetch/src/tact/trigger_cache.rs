//! The Cross trigger cache: first load PCs to touch each 4 KB page.

use catch_trace::{PageAddr, Pc};

/// Load PCs remembered per page (paper: the first 4).
pub const PCS_PER_PAGE: usize = 4;

#[derive(Copy, Clone, Debug)]
struct TriggerEntry {
    page: PageAddr,
    /// The first `len` slots hold the PCs, oldest first.
    pcs: [Pc; PCS_PER_PAGE],
    len: u8,
    last_use: u64,
}

impl TriggerEntry {
    fn pcs(&self) -> &[Pc] {
        &self.pcs[..self.len as usize]
    }
}

/// Set-associative cache of recently touched 4 KB pages, remembering the
/// first `PCS_PER_PAGE` load PCs that touched each page during its
/// residency (paper: 8 sets × 8 ways, first 4 PCs). The PCs are stored
/// inline, so observing a load never allocates.
///
/// Critical targets look up their page here to obtain candidate Trigger
/// PCs for Cross-association training: the paper observes that over 85% of
/// useful cross deltas stay within a 4 KB page, so a page-mate that runs
/// earlier is the natural trigger.
#[derive(Debug)]
pub struct TriggerCache {
    sets: usize,
    ways: usize,
    entries: Vec<Option<TriggerEntry>>,
    tick: u64,
}

impl TriggerCache {
    /// Creates a cache of `sets × ways` pages.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        TriggerCache {
            sets,
            ways,
            entries: vec![None; sets * ways],
            tick: 0,
        }
    }

    fn set_of(&self, page: PageAddr) -> usize {
        (page.get() % self.sets as u64) as usize
    }

    /// Records that load `pc` touched `page`.
    pub fn observe(&mut self, page: PageAddr, pc: Pc) {
        self.tick += 1;
        let set = self.set_of(page);
        let range = set * self.ways..(set + 1) * self.ways;
        // Hit: append PC if room and new.
        for i in range.clone() {
            if let Some(e) = self.entries[i].as_mut() {
                if e.page == page {
                    e.last_use = self.tick;
                    let len = e.len as usize;
                    if len < PCS_PER_PAGE && !e.pcs().contains(&pc) {
                        e.pcs[len] = pc;
                        e.len += 1;
                    }
                    return;
                }
            }
        }
        // Allocate (LRU).
        let victim = range
            .clone()
            .find(|&i| self.entries[i].is_none())
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.entries[i].as_ref().map(|e| e.last_use).unwrap_or(0))
                    .expect("sets are non-empty")
            });
        let mut pcs = [Pc::default(); PCS_PER_PAGE];
        pcs[0] = pc;
        self.entries[victim] = Some(TriggerEntry {
            page,
            pcs,
            len: 1,
            last_use: self.tick,
        });
    }

    /// Candidate trigger PCs for `page` (oldest first).
    pub fn candidates(&self, page: PageAddr) -> &[Pc] {
        let set = self.set_of(page);
        self.entries[set * self.ways..(set + 1) * self.ways]
            .iter()
            .flatten()
            .find(|e| e.page == page)
            .map_or(&[], TriggerEntry::pcs)
    }

    /// Number of resident pages.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(n: u64) -> PageAddr {
        PageAddr::new(n)
    }

    fn pc(n: u64) -> Pc {
        Pc::new(n * 4)
    }

    #[test]
    fn tracks_first_pcs_only() {
        let mut t = TriggerCache::new(8, 8);
        for i in 0..6 {
            t.observe(page(1), pc(i));
        }
        let c = t.candidates(page(1));
        assert_eq!(c, [pc(0), pc(1), pc(2), pc(3)]);
    }

    #[test]
    fn repeat_pc_not_duplicated() {
        let mut t = TriggerCache::new(8, 8);
        t.observe(page(1), pc(1));
        t.observe(page(1), pc(1));
        t.observe(page(1), pc(2));
        assert_eq!(t.candidates(page(1)), [pc(1), pc(2)]);
    }

    #[test]
    fn unknown_page_has_no_candidates() {
        let t = TriggerCache::new(8, 8);
        assert!(t.candidates(page(9)).is_empty());
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut t = TriggerCache::new(1, 2);
        t.observe(page(1), pc(1));
        t.observe(page(2), pc(2));
        t.observe(page(1), pc(3)); // page 1 more recent
        t.observe(page(3), pc(4)); // evicts page 2
        assert!(t.candidates(page(2)).is_empty());
        assert_eq!(t.candidates(page(1)), [pc(1), pc(3)]);
        assert_eq!(t.occupancy(), 2);
    }
}
