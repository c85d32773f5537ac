//! Event-queue engine core (`timeq`) for the CATCH simulator.
//!
//! The reference model walks the clock one cycle at a time. This crate
//! provides the machinery for the event-driven skip: the core posts
//! [`ServiceRequest`]s — cycle-stamped wake reservations — into a
//! [`CalendarQueue`] when it arms an event, and when a tick makes no
//! progress the clock jumps directly to the earliest pending one.
//!
//! The correctness contract is deliberately weak, which is what makes
//! the skip bit-identical to the per-cycle loop (see `DESIGN.md` §11):
//!
//! * every posted request is a **lower bound** on when its source can
//!   next make architectural progress, and
//! * whenever the machine is idle, some pending request is at or before
//!   the true next-progress cycle.
//!
//! Under those two rules the engine may wake early (the probe tick is
//! idle and bit-reproducible) but can never wake late, so any surplus of
//! conservative tickets costs only probe ticks — never correctness.
//!
//! # Structure
//!
//! * [`CalendarQueue`] — a bucketed timing wheel ([`WHEEL_SLOTS`] one-
//!   cycle buckets) backed by a [`HiBitSet`] occupancy mask for O(1)
//!   next-event scans, with an overflow min-heap for events beyond the
//!   horizon. Requests at the same cycle coalesce into one bucket and
//!   replay in post (FIFO) order.
//! * [`Ticket`] — the admission receipt: the scheduled cycle plus a
//!   monotone sequence number that fixes same-cycle ordering.
//! * [`Backpressure`] — the rejection: a request into the past cannot be
//!   admitted; the caller re-posts at `retry_at` (the queue's current
//!   horizon), which models a zero-delay self-wake.
//! * [`HiBitSet`] — a two-level hierarchical bitmask (word summary over
//!   bit words) used for the wheel occupancy and exported for ready-set
//!   style scans.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time, in core cycles.
pub type Cycle = u64;

/// Wheel size in one-cycle buckets. Covers every common wake distance
/// (DRAM round trips are ~300 cycles); anything further spills to the
/// overflow heap. Must be a power of two.
pub const WHEEL_SLOTS: usize = 1024;

/// Which part of the core posted a request (per-source accounting).
/// Every wake the core needs comes from one of these two: the memory
/// system's fills are covered by the issuing µop's completion, and
/// prefetch arrivals gate nothing.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Source {
    /// Core scheduler: an issued µop's completion (wakes retirement,
    /// dependants and the MSHR slot a miss fill frees).
    Exec,
    /// Front end: an I-cache stall ends or a redirect resume lands.
    Frontend,
}

/// Number of [`Source`] variants (per-source accounting arrays).
pub const SOURCE_COUNT: usize = 2;

impl Source {
    /// All variants, indexable by [`Source::index`].
    pub const ALL: [Source; SOURCE_COUNT] = [Source::Exec, Source::Frontend];

    /// Dense index for accounting arrays.
    pub fn index(self) -> usize {
        match self {
            Source::Exec => 0,
            Source::Frontend => 1,
        }
    }
}

/// A cycle-stamped wake reservation a component posts into the queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServiceRequest {
    /// The cycle at which the posting component's event lands (a lower
    /// bound on its next possible progress).
    pub at: Cycle,
    /// The posting component.
    pub source: Source,
}

impl ServiceRequest {
    /// Creates a request for `source` at cycle `at`.
    pub fn new(at: Cycle, source: Source) -> Self {
        ServiceRequest { at, source }
    }
}

/// Admission receipt for a posted [`ServiceRequest`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// The admitted cycle.
    pub at: Cycle,
    /// Global admission sequence number; same-cycle requests replay in
    /// ascending `seq` (FIFO) order.
    pub seq: u64,
}

/// Rejection of a request into the past. The queue's clock only moves
/// forward, so a component that raced the engine re-posts at `retry_at`
/// — the current horizon — which the engine services before advancing
/// (a zero-delay self-wake).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// Earliest admissible cycle (the queue's current time).
    pub retry_at: Cycle,
}

/// Queue accounting, cheap enough to keep always-on.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests admitted, total.
    pub posted: u64,
    /// Admitted requests that coalesced into an already-occupied cycle.
    pub coalesced: u64,
    /// Requests admitted via the overflow heap (beyond the wheel).
    pub overflow: u64,
    /// Requests rejected with [`Backpressure`].
    pub rejected: u64,
    /// Stale entries dropped (the clock advanced past them during
    /// progress ticks).
    pub stale_dropped: u64,
    /// Admitted requests per [`Source`].
    pub by_source: [u64; SOURCE_COUNT],
}

/// A two-level hierarchical bitmask: one summary word where bit `w`
/// means "word `w` has a set bit", over a flat array of 64-bit words.
/// Capacity is fixed at construction, up to `64 * 64 = 4096` bits —
/// enough for the wheel, a scheduler window or an MSHR file. `find`
/// operations cost two `trailing_zeros`, independent of population.
#[derive(Clone, Debug)]
pub struct HiBitSet {
    summary: u64,
    words: Vec<u64>,
    bits: usize,
}

impl HiBitSet {
    /// Creates an empty set over `bits` positions.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 4096 (one summary word).
    pub fn new(bits: usize) -> Self {
        assert!(bits > 0 && bits <= 64 * 64, "HiBitSet capacity 1..=4096");
        HiBitSet {
            summary: 0,
            words: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Capacity in bits.
    pub fn capacity(&self) -> usize {
        self.bits
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.summary == 0
    }

    /// Sets bit `i`. Returns whether it was previously clear.
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        let (w, b) = (i / 64, i % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        self.summary |= 1 << w;
        fresh
    }

    /// Clears bit `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        let (w, b) = (i / 64, i % 64);
        self.words[w] &= !(1 << b);
        if self.words[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// Tests bit `i`.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.summary = 0;
        self.words.fill(0);
    }

    /// Lowest set bit at or after `from`, if any.
    pub fn next_set_at_or_after(&self, from: usize) -> Option<usize> {
        if from >= self.bits {
            return None;
        }
        let (w0, b0) = (from / 64, from % 64);
        // Tail of the word `from` lands in.
        let tail = self.words[w0] & (!0u64 << b0);
        if tail != 0 {
            return Some(w0 * 64 + tail.trailing_zeros() as usize);
        }
        // Later words via the summary.
        let later = if w0 + 1 >= 64 {
            0
        } else {
            self.summary & (!0u64 << (w0 + 1))
        };
        if later == 0 {
            return None;
        }
        let w = later.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Shifts every bit down one position (bit `i+1` moves to `i`; bit 0
    /// falls off). Keeps a position-indexed set aligned with a deque
    /// after a head pop.
    pub fn shift_down_one(&mut self) {
        if self.summary == 0 {
            return;
        }
        let n = self.words.len();
        for w in 0..n {
            let carry = if w + 1 < n {
                self.words[w + 1] << 63
            } else {
                0
            };
            self.words[w] = (self.words[w] >> 1) | carry;
            if self.words[w] == 0 {
                self.summary &= !(1 << w);
            } else {
                self.summary |= 1 << w;
            }
        }
    }
}

/// One wheel bucket: the cycle it currently holds plus the requests for
/// that cycle in admission order. The payload vector keeps its capacity
/// across reuse, so steady-state posting allocates nothing.
#[derive(Clone, Debug, Default)]
struct Slot {
    cycle: Cycle,
    entries: Vec<(u64, Source)>,
}

/// A cycle-stamped calendar queue: a timing wheel of [`WHEEL_SLOTS`]
/// one-cycle buckets with a [`HiBitSet`] occupancy mask, plus an
/// overflow min-heap for requests beyond the horizon.
///
/// Time (`now`) only moves forward, via [`CalendarQueue::peek_next`] /
/// [`CalendarQueue::take_due`] observing a caller-provided clock.
/// Entries the caller's clock has passed (their events were absorbed by
/// ordinary progress ticks) are dropped lazily during scans.
#[derive(Clone, Debug)]
pub struct CalendarQueue {
    /// Pruning floor: entries strictly below are stale.
    now: Cycle,
    slots: Vec<Slot>,
    occupied: HiBitSet,
    /// Requests at `>= now + WHEEL_SLOTS` when posted: `(cycle, seq,
    /// source)` min-heap.
    overflow: BinaryHeap<Reverse<(Cycle, u64, Source)>>,
    next_seq: u64,
    stats: QueueStats,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    /// Creates an empty queue at cycle 0.
    pub fn new() -> Self {
        CalendarQueue {
            now: 0,
            slots: vec![Slot::default(); WHEEL_SLOTS],
            occupied: HiBitSet::new(WHEEL_SLOTS),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// The queue's current time (pruning floor).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Accounting counters.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Pending request count (stale entries included until pruned).
    pub fn len(&self) -> usize {
        let wheel: usize = self.slots.iter().map(|s| s.entries.len()).sum();
        wheel + self.overflow.len()
    }

    /// True when nothing is pending (stale entries included).
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty() && self.overflow.is_empty()
    }

    /// Posts a request. Requests at or after the queue's current time
    /// are admitted (same-cycle requests coalesce, preserving post
    /// order); a request strictly into the past is rejected with
    /// [`Backpressure`] naming the earliest admissible cycle.
    pub fn post(&mut self, req: ServiceRequest) -> Result<Ticket, Backpressure> {
        if req.at < self.now {
            self.stats.rejected += 1;
            return Err(Backpressure { retry_at: self.now });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.posted += 1;
        self.stats.by_source[req.source.index()] += 1;
        if req.at >= self.now + WHEEL_SLOTS as Cycle {
            self.stats.overflow += 1;
            self.overflow.push(Reverse((req.at, seq, req.source)));
            return Ok(Ticket { at: req.at, seq });
        }
        let idx = (req.at % WHEEL_SLOTS as Cycle) as usize;
        let slot = &mut self.slots[idx];
        if self.occupied.contains(idx) {
            if slot.cycle == req.at {
                self.stats.coalesced += 1;
            } else {
                // The slot holds a stale cycle from a previous wheel
                // rotation; the live window is one wheel long, so two
                // distinct in-window cycles can never share a slot.
                debug_assert!(slot.cycle < self.now, "wheel slot aliasing");
                self.stats.stale_dropped += slot.entries.len() as u64;
                slot.entries.clear();
                slot.cycle = req.at;
            }
        } else {
            self.occupied.set(idx);
            slot.cycle = req.at;
        }
        slot.entries.push((seq, req.source));
        Ok(Ticket { at: req.at, seq })
    }

    /// Earliest pending cycle at or after `clock`, pruning everything
    /// the caller's clock has passed. Advances the queue's time to
    /// `clock` (posts below it will then backpressure). Returns `None`
    /// when the queue is empty.
    pub fn peek_next(&mut self, clock: Cycle) -> Option<Cycle> {
        if clock > self.now {
            self.now = clock;
        }
        let wheel = self.prune_and_scan_wheel();
        let heap = self.prune_and_peek_overflow();
        match (wheel, heap) {
            (Some(w), Some(h)) => Some(w.min(h)),
            (w, h) => w.or(h),
        }
    }

    /// Removes and returns the requests stamped exactly `cycle`, in
    /// admission (FIFO) order. Requests for that cycle may live in the
    /// wheel and the overflow heap simultaneously (posted under
    /// different horizons); the merge is by sequence number, so storage
    /// never leaks into ordering.
    pub fn take_due(&mut self, cycle: Cycle) -> Vec<(u64, Source)> {
        if cycle > self.now {
            self.now = cycle;
        }
        let mut due: Vec<(u64, Source)> = Vec::new();
        let idx = (cycle % WHEEL_SLOTS as Cycle) as usize;
        if self.occupied.contains(idx) && self.slots[idx].cycle == cycle {
            due.append(&mut self.slots[idx].entries);
            self.occupied.clear(idx);
        }
        while let Some(Reverse((at, seq, source))) = self.overflow.peek().copied() {
            if at > cycle {
                break;
            }
            self.overflow.pop();
            if at == cycle {
                due.push((seq, source));
            } else {
                self.stats.stale_dropped += 1;
            }
        }
        due.sort_unstable_by_key(|&(seq, _)| seq);
        due
    }

    /// Drops every pending request (fast-forward hygiene); time and
    /// accounting are kept.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.entries.clear();
        }
        self.occupied.clear_all();
        self.overflow.clear();
    }

    /// Scans the wheel ring from `now`'s slot for the earliest live
    /// cycle, dropping stale buckets as it passes them.
    fn prune_and_scan_wheel(&mut self) -> Option<Cycle> {
        loop {
            if self.occupied.is_empty() {
                return None;
            }
            let start = (self.now % WHEEL_SLOTS as Cycle) as usize;
            // Ring order from `now`'s slot is cycle order for live
            // entries (they all lie in [now, now + WHEEL_SLOTS)); a
            // stale bucket anywhere is cleared and the scan restarts.
            let hit = self
                .occupied
                .next_set_at_or_after(start)
                .or_else(|| self.occupied.next_set_at_or_after(0));
            let idx = hit?;
            let slot = &mut self.slots[idx];
            if slot.cycle < self.now {
                self.stats.stale_dropped += slot.entries.len() as u64;
                slot.entries.clear();
                self.occupied.clear(idx);
                continue;
            }
            return Some(slot.cycle);
        }
    }

    /// Pops stale overflow entries and returns the earliest live one.
    fn prune_and_peek_overflow(&mut self) -> Option<Cycle> {
        while let Some(Reverse((at, _, _))) = self.overflow.peek() {
            if *at >= self.now {
                return Some(*at);
            }
            self.overflow.pop();
            self.stats.stale_dropped += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> CalendarQueue {
        CalendarQueue::new()
    }

    #[test]
    fn post_and_peek_in_order() {
        let mut q = q();
        q.post(ServiceRequest::new(50, Source::Exec)).unwrap();
        q.post(ServiceRequest::new(10, Source::Exec)).unwrap();
        q.post(ServiceRequest::new(30, Source::Frontend)).unwrap();
        assert_eq!(q.peek_next(0), Some(10));
        assert_eq!(q.take_due(10).len(), 1);
        assert_eq!(q.peek_next(10), Some(30));
        assert_eq!(q.peek_next(31), Some(50));
    }

    #[test]
    fn same_cycle_requests_are_fifo_by_post_order() {
        let mut q = q();
        let a = q.post(ServiceRequest::new(7, Source::Exec)).unwrap();
        let b = q.post(ServiceRequest::new(7, Source::Frontend)).unwrap();
        let c = q.post(ServiceRequest::new(7, Source::Exec)).unwrap();
        assert!(a.seq < b.seq && b.seq < c.seq);
        let due = q.take_due(7);
        assert_eq!(due.last().map(|&(seq, _)| seq), Some(c.seq));
        let sources: Vec<Source> = due.iter().map(|&(_, s)| s).collect();
        assert_eq!(sources, vec![Source::Exec, Source::Frontend, Source::Exec]);
        assert_eq!(q.stats().coalesced, 2);
    }

    #[test]
    fn past_posts_backpressure_with_retry_at_now() {
        let mut q = q();
        assert_eq!(q.peek_next(100), None);
        let err = q.post(ServiceRequest::new(99, Source::Exec)).unwrap_err();
        assert_eq!(err.retry_at, 100);
        // The re-post at retry_at is a zero-delay self-wake: admitted
        // and immediately due.
        q.post(ServiceRequest::new(err.retry_at, Source::Exec))
            .unwrap();
        assert_eq!(q.peek_next(100), Some(100));
        assert_eq!(q.stats().rejected, 1);
    }

    #[test]
    fn zero_delay_self_wake_at_current_cycle() {
        let mut q = q();
        q.peek_next(42);
        q.post(ServiceRequest::new(42, Source::Exec)).unwrap();
        assert_eq!(q.peek_next(42), Some(42));
        assert_eq!(q.take_due(42).len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_heap_beyond_wheel_horizon() {
        let mut q = q();
        let far = WHEEL_SLOTS as Cycle * 3 + 17;
        q.post(ServiceRequest::new(far, Source::Frontend)).unwrap();
        q.post(ServiceRequest::new(5, Source::Exec)).unwrap();
        assert_eq!(q.stats().overflow, 1);
        assert_eq!(q.peek_next(0), Some(5));
        assert_eq!(q.peek_next(6), Some(far));
        assert_eq!(
            q.take_due(far).iter().map(|&(_, s)| s).collect::<Vec<_>>(),
            vec![Source::Frontend]
        );
    }

    #[test]
    fn wheel_rollover_reuses_slots() {
        let mut q = q();
        let n = WHEEL_SLOTS as Cycle;
        q.post(ServiceRequest::new(3, Source::Exec)).unwrap();
        assert_eq!(q.take_due(3).len(), 1);
        // Same slot, next rotation.
        q.peek_next(n);
        q.post(ServiceRequest::new(n + 3, Source::Exec)).unwrap();
        assert_eq!(q.peek_next(n), Some(n + 3));
    }

    #[test]
    fn stale_entries_dropped_when_clock_passes_them() {
        let mut q = q();
        q.post(ServiceRequest::new(10, Source::Exec)).unwrap();
        q.post(ServiceRequest::new(20, Source::Exec)).unwrap();
        // The engine made progress through cycle 15 without consuming
        // the cycle-10 ticket: the scan skips straight to the live one.
        assert_eq!(q.peek_next(15), Some(20));
        assert_eq!(q.take_due(20).len(), 1);
        // Pruning is lazy — the stale bucket is reaped when a later scan
        // wraps past it, and the queue then reads as empty.
        assert_eq!(q.peek_next(21), None);
        assert_eq!(q.stats().stale_dropped, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn hibitset_set_clear_scan() {
        let mut s = HiBitSet::new(300);
        assert!(s.is_empty());
        assert!(s.set(5));
        assert!(!s.set(5), "double set reports not-fresh");
        s.set(64);
        s.set(299);
        assert_eq!(s.next_set_at_or_after(0), Some(5));
        assert_eq!(s.next_set_at_or_after(6), Some(64));
        assert_eq!(s.next_set_at_or_after(65), Some(299));
        assert_eq!(s.next_set_at_or_after(300), None);
        assert_eq!(s.count(), 3);
        s.clear(64);
        assert_eq!(s.next_set_at_or_after(6), Some(299));
        s.clear_all();
        assert!(s.is_empty());
    }

    #[test]
    fn hibitset_shift_down_crosses_words() {
        let mut s = HiBitSet::new(200);
        s.set(0);
        s.set(64);
        s.set(130);
        s.shift_down_one();
        assert!(!s.contains(0), "bit 0 falls off");
        assert!(s.contains(63), "bit 64 crosses into word 0");
        assert!(s.contains(129));
        assert_eq!(s.count(), 2);
        for _ in 0..129 {
            s.shift_down_one();
        }
        assert_eq!(s.next_set_at_or_after(1), None);
        assert!(s.contains(0));
    }
}
