//! Property tests for the `timeq` event-queue machinery, driven by the
//! in-repo deterministic [`Cases`] harness (no external proptest).
//!
//! The [`CalendarQueue`] (bucketed wheel + overflow heap + lazy stale
//! pruning) and the [`HiBitSet`] (two-level bitmask) are checked
//! against naive reference models — a `BTreeMap` keyed by cycle and a
//! `Vec<bool>` — over randomized operation sequences with a
//! monotonically advancing clock. Each failure message carries the
//! replay seed.
//!
//! The engine-level edge cases the queue exists to serve (zero-delay
//! self-wake, simultaneous multi-component events, backpressure
//! re-post) are exercised here too, at the API level; the end-to-end
//! versions live in `engine_parity.rs`.

use catch_timeq::{
    Backpressure, CalendarQueue, Cycle, HiBitSet, ServiceRequest, Source, WHEEL_SLOTS,
};
use catch_trace::rng::{Cases, SplitMix64};
use std::collections::BTreeMap;

/// Naive reference for the calendar queue: every pending (cycle, seq,
/// source), ordered by cycle then admission.
#[derive(Default)]
struct ModelQueue {
    now: Cycle,
    pending: BTreeMap<Cycle, Vec<(u64, Source)>>,
    next_seq: u64,
}

impl ModelQueue {
    fn post(&mut self, req: ServiceRequest) -> Result<(Cycle, u64), Backpressure> {
        if req.at < self.now {
            return Err(Backpressure { retry_at: self.now });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending
            .entry(req.at)
            .or_default()
            .push((seq, req.source));
        Ok((req.at, seq))
    }

    fn peek_next(&mut self, clock: Cycle) -> Option<Cycle> {
        if clock > self.now {
            self.now = clock;
        }
        let now = self.now;
        self.pending.retain(|&at, _| at >= now);
        self.pending.keys().next().copied()
    }

    fn take_due(&mut self, cycle: Cycle) -> Vec<(u64, Source)> {
        if cycle > self.now {
            self.now = cycle;
        }
        self.pending.remove(&cycle).unwrap_or_default()
    }
}

fn random_source(rng: &mut SplitMix64) -> Source {
    Source::ALL[rng.gen_range(0usize..Source::ALL.len())]
}

#[test]
fn calendar_queue_matches_naive_model() {
    // Random interleavings of post / peek / take against an advancing
    // clock. Deltas up to 3× the wheel span force overflow-heap posts;
    // clock advances past pending entries force lazy stale drops; both
    // paths must stay invisible next to the model.
    Cases::new(64).run(|rng| {
        let mut q = CalendarQueue::new();
        let mut model = ModelQueue::default();
        let mut clock: Cycle = 0;
        for _ in 0..400 {
            match rng.gen_range(0u64..10) {
                // Post: usually near, sometimes beyond the wheel, and
                // sometimes deliberately into the past.
                0..=5 => {
                    let at = if rng.gen_bool(0.1) {
                        clock.saturating_sub(rng.gen_range(1u64..50))
                    } else if rng.gen_bool(0.15) {
                        clock + rng.gen_range(0u64..3 * WHEEL_SLOTS as u64)
                    } else {
                        clock + rng.gen_range(0u64..300)
                    };
                    let req = ServiceRequest::new(at, random_source(rng));
                    let got = q.post(req);
                    let want = model.post(req);
                    match (got, want) {
                        (Ok(t), Ok((at, seq))) => {
                            assert_eq!((t.at, t.seq), (at, seq), "ticket mismatch");
                        }
                        (Err(a), Err(b)) => assert_eq!(a.retry_at, b.retry_at),
                        (g, w) => panic!("admission disagreement: {g:?} vs {w:?}"),
                    }
                }
                // Peek at the current clock.
                6..=7 => {
                    assert_eq!(q.peek_next(clock), model.peek_next(clock), "peek@{clock}");
                }
                // Service the next due cycle exactly as the engine
                // would: jump to it and take everything stamped there.
                8 => {
                    // Peek both unconditionally: peeking advances each
                    // queue's time floor even when nothing is pending.
                    let want = model.peek_next(clock);
                    assert_eq!(q.peek_next(clock), want, "service peek@{clock}");
                    if let Some(next) = want {
                        clock = next;
                        assert_eq!(q.take_due(next), model.take_due(next), "due@{next}");
                    }
                }
                // Progress ticks advanced the clock past some entries
                // without consuming them (they became stale).
                _ => clock += rng.gen_range(1u64..500),
            }
        }
        // Drain whatever is left; both must agree to exhaustion.
        while let Some(next) = model.peek_next(clock) {
            assert_eq!(q.peek_next(clock), Some(next), "drain peek");
            clock = next;
            assert_eq!(q.take_due(next), model.take_due(next), "drain due@{next}");
        }
        assert_eq!(q.peek_next(clock), None, "queue must drain with model");
    });
}

#[test]
fn hibitset_matches_naive_bool_vec() {
    // set / clear / contains / scan / count / shift against Vec<bool>.
    Cases::new(64).run(|rng| {
        let bits = rng.gen_range(1usize..700);
        let mut s = HiBitSet::new(bits);
        let mut model = vec![false; bits];
        for _ in 0..300 {
            match rng.gen_range(0u64..8) {
                0..=2 => {
                    let i = rng.gen_range(0usize..bits);
                    let fresh = s.set(i);
                    assert_eq!(fresh, !model[i], "freshness of set({i})");
                    model[i] = true;
                }
                3..=4 => {
                    let i = rng.gen_range(0usize..bits);
                    s.clear(i);
                    model[i] = false;
                }
                5 => {
                    let from = rng.gen_range(0usize..bits + 4);
                    let want = (from..bits).find(|&i| model[i]);
                    assert_eq!(s.next_set_at_or_after(from), want, "scan from {from}");
                }
                6 => {
                    // Head pop: shift the whole set down one position.
                    s.shift_down_one();
                    model.remove(0);
                    model.push(false);
                }
                _ => {
                    let i = rng.gen_range(0usize..bits);
                    assert_eq!(s.contains(i), model[i], "contains({i})");
                }
            }
        }
        assert_eq!(s.count(), model.iter().filter(|&&b| b).count());
        assert_eq!(s.is_empty(), model.iter().all(|&b| !b));
    });
}

#[test]
fn simultaneous_multi_component_events_replay_in_post_order() {
    // Every source landing on one cycle (the "everything wakes at once"
    // engine edge case): one bucket, admission order preserved, and the
    // queue is empty afterwards — no source shadows another.
    let mut q = CalendarQueue::new();
    let posted: Vec<Source> = Source::ALL.into_iter().chain(Source::ALL).collect();
    for &s in &posted {
        q.post(ServiceRequest::new(77, s)).unwrap();
    }
    assert_eq!(q.peek_next(0), Some(77));
    let due: Vec<Source> = q.take_due(77).iter().map(|&(_, s)| s).collect();
    assert_eq!(due, posted, "same-cycle events must replay in post order");
    assert_eq!(q.peek_next(78), None);
}

#[test]
fn backpressure_repost_is_serviced_before_the_clock_moves() {
    // A component that raced the engine (posted for a cycle the clock
    // already passed) re-posts at `retry_at`; the re-post must be the
    // very next wake — a zero-delay self-wake, not a lost event.
    let mut q = CalendarQueue::new();
    q.peek_next(500);
    let bp = q
        .post(ServiceRequest::new(499, Source::Frontend))
        .unwrap_err();
    assert_eq!(bp.retry_at, 500);
    q.post(ServiceRequest::new(bp.retry_at, Source::Frontend))
        .unwrap();
    // A later event must not shadow the self-wake.
    q.post(ServiceRequest::new(600, Source::Exec)).unwrap();
    assert_eq!(q.peek_next(500), Some(500));
    let due = q.take_due(500);
    assert_eq!(due.len(), 1);
    assert_eq!(due[0].1, Source::Frontend);
    assert_eq!(q.peek_next(500), Some(600));
}

#[test]
fn repeated_zero_delay_self_wakes_terminate() {
    // Pathological: a component keeps re-posting at the current cycle.
    // Each post is admitted and immediately due — the queue must hand
    // each one back rather than accumulate or starve.
    let mut q = CalendarQueue::new();
    q.peek_next(42);
    for round in 0..100 {
        q.post(ServiceRequest::new(42, Source::Frontend)).unwrap();
        assert_eq!(q.peek_next(42), Some(42), "round {round}");
        assert_eq!(q.take_due(42).len(), 1, "round {round}");
    }
    assert!(q.is_empty());
    assert_eq!(q.stats().posted, 100);
}

#[test]
fn wheel_rollover_spanning_many_rotations_stays_ordered() {
    // Posts separated by multiple full wheel rotations reuse slots; the
    // queue must always surface them in cycle order regardless of how
    // slot indices alias.
    let n = WHEEL_SLOTS as Cycle;
    let mut q = CalendarQueue::new();
    let mut clock = 0;
    for rotation in 0..5u64 {
        let at = clock + n - 3; // same slot index every rotation
        q.post(ServiceRequest::new(at, Source::Exec)).unwrap();
        assert_eq!(q.peek_next(clock), Some(at), "rotation {rotation}");
        clock = at;
        assert_eq!(q.take_due(at).len(), 1);
        clock += 1;
    }
    assert_eq!(q.peek_next(clock), None);
}
