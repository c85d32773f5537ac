//! Shared self-stride learner with "safe length" deep distances.

use catch_trace::Addr;

const STRIDE_CONF_MAX: u8 = 3;
const STRIDE_CONF_ISSUE: u8 = 2;
const SAFE_CONF_MAX: u8 = 3;
const RUN_CAP: u8 = 32;

/// Per-PC self-stride state with the paper's safe-length mechanism.
///
/// Ordinary stride prefetchers use distance 1; TACT issues *deep*
/// prefetches for critical PCs but must not overshoot past the end of a
/// strided run (loop exit) or it pollutes the small L1. The paper learns a
/// "safe length": the typical run length of the stride, capped at 32, with
/// a 2-bit confidence; the deep distance is `min(safe length, 16)`.
#[derive(Debug, Clone)]
pub struct SelfStride {
    last_addr: Option<Addr>,
    stride: i64,
    stride_conf: u8,
    run_len: u8,
    safe_len: u8,
    safe_conf: u8,
}

impl SelfStride {
    /// Fresh state (safe length initialised to 4, as in the paper).
    pub fn new() -> Self {
        SelfStride {
            last_addr: None,
            stride: 0,
            stride_conf: 0,
            run_len: 0,
            safe_len: 4,
            safe_conf: 0,
        }
    }

    /// Current stride, when confident.
    pub fn stride(&self) -> Option<i64> {
        (self.stride_conf >= STRIDE_CONF_ISSUE && self.stride != 0).then_some(self.stride)
    }

    /// Learned safe length.
    pub fn safe_len(&self) -> u8 {
        self.safe_len
    }

    fn train(&mut self, addr: Addr) {
        let Some(last) = self.last_addr else {
            self.last_addr = Some(addr);
            return;
        };
        let delta = addr.get() as i64 - last.get() as i64;
        self.last_addr = Some(addr);
        if delta == self.stride && delta != 0 {
            self.stride_conf = (self.stride_conf + 1).min(STRIDE_CONF_MAX);
            if self.run_len == RUN_CAP {
                // Unbroken long run (streaming): the safe length may grow
                // without ever observing a break.
                self.safe_len = (self.safe_len + 1).min(RUN_CAP);
            }
            self.run_len = (self.run_len + 1).min(RUN_CAP);
        } else {
            // Run ended: fold its length into the safe-length estimate.
            if self.run_len > 0 {
                if self.run_len >= self.safe_len {
                    self.safe_len = (self.safe_len + 1).min(RUN_CAP);
                    self.safe_conf = (self.safe_conf + 1).min(SAFE_CONF_MAX);
                } else {
                    self.safe_len = self.safe_len.saturating_sub(1).max(1);
                    self.safe_conf = self.safe_conf.saturating_sub(1);
                }
            }
            if self.stride_conf > 0 {
                self.stride_conf -= 1;
            } else {
                self.stride = delta;
            }
            self.run_len = 0;
        }
        // A long uninterrupted run also builds safe-length confidence.
        if self.run_len >= self.safe_len {
            self.safe_conf = (self.safe_conf + 1).min(SAFE_CONF_MAX);
        }
    }

    /// Trains on `addr` and returns the prefetch addresses to issue:
    /// distance 1 plus, when the safe length is confident, the deep
    /// distance capped at `max_distance` (and disabled entirely when
    /// `deep` is false — the baseline behaviour). At most two addresses,
    /// computed up front, so the iterator borrows nothing.
    pub fn train_and_predict(
        &mut self,
        addr: Addr,
        max_distance: u8,
        deep: bool,
    ) -> impl Iterator<Item = Addr> {
        self.train(addr);
        let stride = self.stride().filter(|_| deep);
        let near = stride
            .map(|s| addr.offset(s))
            .filter(|d1| d1.line() != addr.line());
        let far = stride
            .filter(|_| self.safe_conf >= SAFE_CONF_MAX)
            .map(|s| (s, self.safe_len.min(max_distance) as i64))
            .filter(|&(_, distance)| distance > 1)
            .map(|(s, distance)| addr.offset(s * distance));
        near.into_iter().chain(far)
    }

    /// Trains on `addr` and returns the predicted addresses at distances
    /// `1..=distance` (used for feeder chains); empty until a stride is
    /// confident. The iterator is `Clone`, so a caller can replay it.
    pub fn train_and_predict_all(
        &mut self,
        addr: Addr,
        distance: u8,
    ) -> impl Iterator<Item = Addr> + Clone {
        self.train(addr);
        let stride = self.stride().unwrap_or(0);
        let distance = if stride == 0 { 0 } else { distance as i64 };
        (1..=distance).map(move |d| addr.offset(stride * d))
    }
}

impl Default for SelfStride {
    fn default() -> Self {
        SelfStride::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_confidence_builds() {
        let mut s = SelfStride::new();
        for i in 0..4u64 {
            s.train(Addr::new(i * 64));
        }
        assert_eq!(s.stride(), Some(64));
    }

    #[test]
    fn deep_distance_waits_for_safe_confidence() {
        let mut s = SelfStride::new();
        let mut out = Vec::new();
        for i in 0..4u64 {
            out = s.train_and_predict(Addr::new(i * 64), 16, true).collect();
        }
        // Early: only distance-1.
        assert_eq!(out.len(), 1);
        for i in 4..40u64 {
            out = s.train_and_predict(Addr::new(i * 64), 16, true).collect();
        }
        assert_eq!(out.len(), 2, "deep prefetch joins after confidence");
        let deep = out[1].get() as i64 - 39 * 64;
        assert!(deep > 64 && deep <= 16 * 64);
    }

    #[test]
    fn deep_flag_false_suppresses_output() {
        let mut s = SelfStride::new();
        for i in 0..40u64 {
            let mut out = s.train_and_predict(Addr::new(i * 64), 16, false);
            assert!(out.next().is_none());
        }
    }

    #[test]
    fn short_runs_shrink_safe_length() {
        let mut s = SelfStride::new();
        // Runs of length ~3 separated by jumps.
        for block in 0..20u64 {
            for i in 0..4u64 {
                s.train(Addr::new(block * 100_000 + i * 64));
            }
        }
        assert!(
            s.safe_len() <= 6,
            "safe length {} adapts down",
            s.safe_len()
        );
    }

    #[test]
    fn predict_all_gives_consecutive_distances() {
        let mut s = SelfStride::new();
        for i in 0..5u64 {
            s.train(Addr::new(i * 8));
        }
        let out: Vec<Addr> = s.train_and_predict_all(Addr::new(5 * 8), 4).collect();
        assert_eq!(
            out,
            vec![
                Addr::new(6 * 8),
                Addr::new(7 * 8),
                Addr::new(8 * 8),
                Addr::new(9 * 8)
            ]
        );
    }
}
