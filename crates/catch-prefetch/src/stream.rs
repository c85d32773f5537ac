//! Baseline multi-stream prefetcher (Srinath et al. HPCA'07 /
//! Dahlgren & Stenström style), prefetching into the mid-level cache.

use catch_trace::{Addr, LineAddr, PageAddr};

#[derive(Copy, Clone, Debug)]
struct Stream {
    page: PageAddr,
    last_line: LineAddr,
    direction: i64,
    confidence: u8,
    last_use: u64,
}

/// Counters for the stream prefetcher.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Miss observations used for training.
    pub trains: u64,
    /// Prefetch lines emitted.
    pub issued: u64,
    /// Streams allocated.
    pub allocations: u64,
}

const CONFIRM: u8 = 2;

/// Tracks multiple concurrent sequential streams (one per 4 KB page) and
/// prefetches `degree` lines ahead once a stream's direction is confirmed.
#[derive(Debug)]
pub struct StreamPrefetcher {
    streams: Vec<Option<Stream>>,
    degree: usize,
    distance: i64,
    tick: u64,
    stats: StreamStats,
}

impl StreamPrefetcher {
    /// Creates a prefetcher tracking up to `streams` streams with the given
    /// prefetch `degree` (lines fetched per trigger) starting `distance`
    /// lines ahead of the miss (aggressive lookahead hides DRAM latency,
    /// as the paper's "aggressive multi-stream prefetcher" does).
    ///
    /// # Panics
    ///
    /// Panics if `streams` or `degree` is zero.
    pub fn new(streams: usize, degree: usize, distance: usize) -> Self {
        assert!(
            streams > 0 && degree > 0,
            "stream prefetcher needs capacity"
        );
        StreamPrefetcher {
            streams: vec![None; streams],
            degree,
            distance: distance as i64,
            tick: 0,
            stats: StreamStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Observes an L1 miss and writes the lines to prefetch into the mid
    /// level to `out` (cleared first, so one caller-owned buffer serves
    /// every miss).
    pub fn on_l1_miss(&mut self, addr: Addr, out: &mut Vec<LineAddr>) {
        out.clear();
        self.stats.trains += 1;
        self.tick += 1;
        let page = addr.page();
        let line = addr.line();

        // Find the stream for this page.
        if let Some(stream) = self.streams.iter_mut().flatten().find(|s| s.page == page) {
            stream.last_use = self.tick;
            let delta = line.get() as i64 - stream.last_line.get() as i64;
            if delta == 0 {
                return;
            }
            let dir = delta.signum();
            if dir == stream.direction {
                stream.confidence = (stream.confidence + 1).min(CONFIRM);
            } else {
                stream.direction = dir;
                stream.confidence = 1;
            }
            stream.last_line = line;
            if stream.confidence >= CONFIRM {
                let distance = self.distance;
                self.stats.issued += self.degree as u64;
                out.extend((1..=self.degree as i64).map(|d| line.offset(dir * (distance + d))));
            }
            return;
        }

        // Allocate a new stream, evicting the least recently used.
        self.stats.allocations += 1;
        let slot = match self.streams.iter().position(|s| s.is_none()) {
            Some(i) => i,
            None => self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.map(|s| s.last_use).unwrap_or(0))
                .map(|(i, _)| i)
                .expect("stream table is non-empty"),
        };
        self.streams[slot] = Some(Stream {
            page,
            last_line: line,
            direction: 1,
            confidence: 0,
            last_use: self.tick,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One miss into a fresh buffer.
    fn miss(p: &mut StreamPrefetcher, addr: u64) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_l1_miss(Addr::new(addr), &mut out);
        out
    }

    #[test]
    fn ascending_stream_prefetches_ahead() {
        let mut p = StreamPrefetcher::new(16, 2, 0);
        let mut out = Vec::new();
        for i in 0..4u64 {
            out = miss(&mut p, i * 64);
        }
        assert_eq!(out, vec![LineAddr::new(4), LineAddr::new(5)]);
    }

    #[test]
    fn descending_stream_follows_direction() {
        let mut p = StreamPrefetcher::new(16, 1, 0);
        let mut out = Vec::new();
        for i in (0..6u64).rev() {
            out = miss(&mut p, i * 64);
        }
        assert_eq!(out, vec![LineAddr::new(0).offset(-1)]);
    }

    #[test]
    fn repeated_same_line_is_quiet() {
        let mut p = StreamPrefetcher::new(16, 2, 0);
        miss(&mut p, 0);
        let out = miss(&mut p, 8); // same line
        assert!(out.is_empty());
    }

    #[test]
    fn concurrent_streams_per_page() {
        let mut p = StreamPrefetcher::new(16, 1, 0);
        for i in 0..4u64 {
            miss(&mut p, i * 64); // page 0
            miss(&mut p, 8192 + i * 64); // page 2
        }
        let a = miss(&mut p, 4 * 64);
        let b = miss(&mut p, 8192 + 4 * 64);
        assert_eq!(a, vec![LineAddr::new(5)]);
        assert_eq!(b, vec![LineAddr::new(8192 / 64 + 5)]);
    }

    #[test]
    fn lru_stream_replacement() {
        let mut p = StreamPrefetcher::new(2, 1, 0);
        miss(&mut p, 0); // page 0
        miss(&mut p, 4096); // page 1
        miss(&mut p, 64); // touch page 0 again
        miss(&mut p, 8192); // page 2 evicts page 1
        assert_eq!(p.stats().allocations, 3);
        // Page 1 must retrain from scratch.
        let out = miss(&mut p, 4096 + 64);
        assert!(out.is_empty());
    }

    #[test]
    fn direction_flip_resets_confidence() {
        let mut p = StreamPrefetcher::new(4, 1, 0);
        for i in 0..4u64 {
            miss(&mut p, i * 64);
        }
        // Reverse.
        let out = miss(&mut p, 64);
        assert!(out.is_empty());
    }
}
