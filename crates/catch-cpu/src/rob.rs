//! The reorder buffer and dependence-readiness tracking.

use catch_cache::Level;
use catch_timeq::HiBitSet;
use catch_trace::MicroOp;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One in-flight micro-op.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Global (fetch-order == retire-order) id; doubles as the criticality
    /// sequence number.
    pub id: u64,
    /// The micro-op.
    pub op: MicroOp,
    /// Producer ids: up to three register producers plus a forwarding
    /// store.
    pub deps: [Option<u64>; 4],
    /// True once issued to execution.
    pub started: bool,
    /// Cycle execution began (valid when `started`).
    pub dispatch: u64,
    /// Completion cycle (valid when `started`).
    pub complete: u64,
    /// Allocation cycle.
    pub alloc: u64,
    /// Hit level for loads.
    pub hit_level: Option<Level>,
    /// Mispredicted branch.
    pub mispredicted: bool,
    /// Readiness cycle (max producer completion), filled in the moment
    /// the last producer starts — see [`Rob::start`]'s waiter walk.
    pub ready_at: Option<u64>,
    /// Allocation-time feeder hint for loads: the youngest producing load
    /// (PC, value) in program order, used by TACT-Feeder training.
    pub feeder: Option<(catch_trace::Pc, u64)>,
    /// Intrusive waiter links: when this entry waits on the producer in
    /// `deps[k]`, `next_waiter[k]` chains to the next waiter on that
    /// same producer, packed as `id << 2 | slot` ([`NO_WAITER`] ends
    /// the chain) to keep the entry small — it is memcpy'd on retire.
    next_waiter: [u64; 4],
    /// Head of the list of dependents registered on this entry (same
    /// packing).
    waiter_head: u64,
}

/// Chain terminator for the packed intrusive waiter links.
const NO_WAITER: u64 = u64::MAX;

impl RobEntry {
    /// Creates an entry for `op` with the given id and producer set.
    pub fn new(id: u64, op: MicroOp, deps: [Option<u64>; 4], mispredicted: bool) -> Self {
        RobEntry {
            id,
            op,
            deps,
            started: false,
            dispatch: 0,
            complete: 0,
            alloc: 0,
            hit_level: None,
            mispredicted,
            ready_at: None,
            feeder: None,
            next_waiter: [NO_WAITER; 4],
            waiter_head: NO_WAITER,
        }
    }
}

/// Reorder buffer: in-order allocate/retire, out-of-order issue, with
/// event-driven scheduler wakeup instead of per-cycle readiness polls.
///
/// * Entry ids are consecutive (one per allocation, retired from the
///   front), so a producer id maps straight to its deque index — no
///   completion map, one bounds check per dependence lookup.
/// * Each entry waiting on unissued producers sits on their intrusive
///   waiter lists; when a producer starts, [`Rob::start`] walks its
///   list, and each dependent whose last producer just started gets its
///   readiness computed once and is pushed into the wake heap at its
///   effective-ready cycle `max(readiness, alloc + 1)`.
/// * [`Rob::promote_ready`] drains the heap up to the current cycle
///   into `issuable_mask`, and the scheduler scans only that mask —
///   O(issuable) per cycle rather than O(window).
///
/// The wake cycle is the max over *all* producer completions, while the
/// old lazy poll counted producers already retired as ready-at-0; the
/// difference is confined to components at or below the scan cycle, so
/// which entries are issuable at any executed tick — and therefore
/// every counter — is unchanged (asserted by the parity suites).
#[derive(Debug)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Entries allocated but not yet issued (scheduler pressure).
    unstarted: usize,
    /// Unstarted entries ordered by effective-ready cycle: `(eff, id)`
    /// min-heap, pushed exactly once per entry when its readiness
    /// becomes known.
    wake_heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Hierarchical bitmask over entry positions: bit `i` set iff
    /// `entries[i]` is unstarted and its effective-ready cycle has been
    /// reached. Kept aligned with the deque (shifted down on head pops)
    /// so scheduler scans touch only issue candidates.
    issuable_mask: HiBitSet,
}

impl Rob {
    /// Creates a ROB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB needs capacity");
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            unstarted: 0,
            wake_heap: BinaryHeap::with_capacity(capacity),
            issuable_mask: HiBitSet::new(capacity),
        }
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries allocated but not yet issued to execution.
    pub fn unstarted(&self) -> usize {
        self.unstarted
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when allocation is possible.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry at `cycle`, resolving its producers: if all
    /// have started (or retired) the entry goes straight into the wake
    /// heap at its effective-ready cycle; otherwise it registers on
    /// each unissued producer's waiter list and wakes when the last of
    /// them starts.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full.
    pub fn allocate(&mut self, mut entry: RobEntry, cycle: u64) {
        assert!(self.has_space(), "allocate on full ROB");
        entry.alloc = cycle;
        debug_assert!(!entry.started, "allocating a started entry");
        self.unstarted += 1;
        let id = entry.id;
        let index = self.entries.len();
        self.entries.push_back(entry);
        let front = self.entries.front().expect("just pushed").id;
        let mut ready = 0u64;
        let mut pending = false;
        for k in 0..4 {
            let Some(d) = self.entries[index].deps[k] else {
                continue;
            };
            match self.producer_ready_at(d) {
                Some(c) => ready = ready.max(c),
                None => {
                    // Producer in flight and unissued: wait on it. A
                    // duplicate producer registers once per slot; the
                    // `ready_at` guard in the waiter walk dedups wakes.
                    pending = true;
                    let pidx = (d - front) as usize;
                    let prev_head =
                        std::mem::replace(&mut self.entries[pidx].waiter_head, id << 2 | k as u64);
                    self.entries[index].next_waiter[k] = prev_head;
                }
            }
        }
        if !pending {
            let e = &mut self.entries[index];
            e.ready_at = Some(ready);
            let eff = ready.max(e.alloc + 1);
            if eff <= cycle + 1 {
                // Issuable at the very next tick, which always runs
                // (this allocation was progress, so no skip precedes
                // it): promote directly and skip the heap round-trip.
                self.issuable_mask.set(index);
            } else {
                self.wake_heap.push(Reverse((eff, id)));
            }
        }
    }

    /// The cycle at which `id`'s result is available: `Some(0)` if already
    /// retired, the completion cycle if started, `None` if unknown (not
    /// yet issued). Ids are consecutive, so an in-flight producer is at
    /// deque position `id - front.id` — one bounds check, no hashing.
    pub fn producer_ready_at(&self, id: u64) -> Option<u64> {
        let front = match self.entries.front() {
            Some(e) => e.id,
            // Empty ROB: every referenced producer has retired.
            None => return Some(0),
        };
        if id < front {
            return Some(0);
        }
        let entry = &self.entries[(id - front) as usize];
        debug_assert_eq!(entry.id, id, "ROB ids must be consecutive");
        entry.started.then_some(entry.complete)
    }

    /// The readiness cycle of the entry at `index`: the max completion
    /// cycle over its producers. `None` while any producer is unissued.
    /// Pure — the stored `ready_at` is written only by the eager wake
    /// path, so a side-band query here can never leave an entry marked
    /// ready without a wake-heap reservation.
    pub fn readiness(&self, index: usize) -> Option<u64> {
        let entry = &self.entries[index];
        if let Some(r) = entry.ready_at {
            return Some(r);
        }
        let mut ready = 0u64;
        for dep in entry.deps.iter().flatten() {
            match self.producer_ready_at(*dep) {
                Some(c) => ready = ready.max(c),
                None => return None,
            }
        }
        Some(ready)
    }

    /// Marks entry `index` as issued at `dispatch` completing at
    /// `complete`, then walks its waiter list: every dependent whose
    /// last producer this was gets its readiness computed once and a
    /// wake-heap reservation at its effective-ready cycle.
    pub fn start(&mut self, index: usize, dispatch: u64, complete: u64) {
        let entry = &mut self.entries[index];
        debug_assert!(!entry.started, "double issue");
        entry.started = true;
        entry.dispatch = dispatch;
        entry.complete = complete;
        self.unstarted -= 1;
        self.issuable_mask.clear(index);
        let front = self.entries.front().expect("entry exists").id;
        let mut cursor = std::mem::replace(&mut self.entries[index].waiter_head, NO_WAITER);
        while cursor != NO_WAITER {
            let (wid, slot) = (cursor >> 2, (cursor & 3) as usize);
            let widx = (wid - front) as usize;
            cursor = std::mem::replace(&mut self.entries[widx].next_waiter[slot], NO_WAITER);
            if self.entries[widx].ready_at.is_some() {
                // A duplicate producer slot already woke this entry.
                continue;
            }
            let deps = self.entries[widx].deps;
            let mut ready = 0u64;
            let mut pending = false;
            for dep in deps.iter().flatten() {
                match self.producer_ready_at(*dep) {
                    Some(c) => ready = ready.max(c),
                    None => {
                        // Still waiting on another producer's list.
                        pending = true;
                        break;
                    }
                }
            }
            if pending {
                continue;
            }
            let e = &mut self.entries[widx];
            e.ready_at = Some(ready);
            let eff = ready.max(e.alloc + 1);
            // Always via the heap: a direct mask set here would be
            // visible to the issue scan still walking this cycle, one
            // cycle before `eff` (which is at least `dispatch + 1`).
            self.wake_heap.push(Reverse((eff, wid)));
        }
    }

    /// Pops the head if it has completed by `cycle`.
    pub fn try_retire(&mut self, cycle: u64) -> Option<RobEntry> {
        let head = self.entries.front()?;
        if head.started && head.complete <= cycle {
            let entry = self.entries.pop_front().expect("checked front");
            // The head had issued, so bit 0 is clear and the shift
            // realigns the mask with the popped deque.
            self.issuable_mask.shift_down_one();
            Some(entry)
        } else {
            None
        }
    }

    /// Immutable view of the entries (head = oldest).
    pub fn entries(&self) -> &VecDeque<RobEntry> {
        &self.entries
    }

    /// Mutable entry access.
    pub fn entry_mut(&mut self, index: usize) -> &mut RobEntry {
        &mut self.entries[index]
    }

    /// Drains the wake heap up to `cycle`: every reservation whose
    /// effective-ready cycle has arrived sets its entry's bit in the
    /// issuable mask (positions resolved against the current head, so
    /// retirements between reservation and promotion are free).
    pub fn promote_ready(&mut self, cycle: u64) {
        let Some(front) = self.entries.front().map(|e| e.id) else {
            debug_assert!(self.wake_heap.is_empty(), "wakes outlive their entries");
            return;
        };
        while let Some(&Reverse((eff, id))) = self.wake_heap.peek() {
            if eff > cycle {
                break;
            }
            self.wake_heap.pop();
            debug_assert!(id >= front, "woken entry already retired");
            let idx = (id - front) as usize;
            // An entry issued out of band (tests drive `start`
            // directly) leaves its reservation behind; drop it.
            if !self.entries[idx].started {
                self.issuable_mask.set(idx);
            }
        }
    }

    /// Position of the first issuable (promoted, unissued) entry at or
    /// after `from` — the scheduler scan, O(issuable) per cycle via the
    /// hierarchical mask rather than O(window).
    pub fn next_issuable_at_or_after(&self, from: usize) -> Option<usize> {
        self.issuable_mask.next_set_at_or_after(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_trace::{OpClass, Pc};

    fn op() -> MicroOp {
        MicroOp::compute(Pc::new(0), OpClass::Alu, None, &[])
    }

    #[test]
    fn allocate_and_retire_in_order() {
        let mut rob = Rob::new(4);
        rob.allocate(RobEntry::new(0, op(), [None; 4], false), 0);
        rob.allocate(RobEntry::new(1, op(), [None; 4], false), 0);
        assert_eq!(rob.len(), 2);
        // Head not started: cannot retire.
        assert!(rob.try_retire(10).is_none());
        rob.start(0, 1, 3);
        rob.start(1, 1, 2);
        // Entry 1 finished first but head retires first.
        assert!(rob.try_retire(2).is_none());
        let head = rob.try_retire(3).unwrap();
        assert_eq!(head.id, 0);
        let next = rob.try_retire(3).unwrap();
        assert_eq!(next.id, 1);
        assert!(rob.is_empty());
    }

    #[test]
    fn readiness_tracks_producers() {
        let mut rob = Rob::new(4);
        rob.allocate(RobEntry::new(0, op(), [None; 4], false), 0);
        rob.allocate(
            RobEntry::new(1, op(), [Some(0), None, None, None], false),
            0,
        );
        // Producer unissued: unknown readiness.
        assert_eq!(rob.readiness(1), None);
        rob.start(0, 0, 7);
        assert_eq!(rob.readiness(1), Some(7));
        // The waiter walk filled the eager readiness and reserved a wake.
        assert_eq!(rob.entries()[1].ready_at, Some(7));
        rob.promote_ready(6);
        assert_eq!(rob.next_issuable_at_or_after(0), None, "not ready yet");
        rob.promote_ready(7);
        assert_eq!(rob.next_issuable_at_or_after(0), Some(1));
    }

    #[test]
    fn retired_producers_are_ready() {
        let mut rob = Rob::new(4);
        rob.allocate(RobEntry::new(0, op(), [None; 4], false), 0);
        rob.start(0, 0, 1);
        rob.try_retire(1).unwrap();
        rob.allocate(
            RobEntry::new(1, op(), [Some(0), None, None, None], false),
            2,
        );
        assert_eq!(rob.readiness(0), Some(0));
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(1);
        rob.allocate(RobEntry::new(0, op(), [None; 4], false), 0);
        assert!(!rob.has_space());
    }

    #[test]
    #[should_panic(expected = "full ROB")]
    fn allocate_on_full_panics() {
        let mut rob = Rob::new(1);
        rob.allocate(RobEntry::new(0, op(), [None; 4], false), 0);
        rob.allocate(RobEntry::new(1, op(), [None; 4], false), 0);
    }
}
