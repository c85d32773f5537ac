//! The `serve_mix` request generator (`std` only).
//!
//! Requests come in fixed-size blocks. Every block holds exactly 70 %
//! `hit`, 25 % `miss` and 5 % `ctl` requests (rounded to the block
//! size), spreads hits and misses evenly over the experiment ids, and is
//! shuffled by a generator seeded from `--seed`. Exact shares per block
//! keep the work of two passes equal, so pass times compare.

/// Suite-backed experiment ids the mix requests.
pub const IDS: [&str; 6] = ["fig1", "fig3", "fig10", "fig13", "fig15", "fig17"];

/// Number of pre-warmed trace seeds `hit` requests draw from.
pub const HOT_SEEDS: u64 = 4;

/// Latency class of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// One of the pre-warmed (id, seed) pairs: answered from the run cache.
    Hit,
    /// A trace seed nobody has asked for: the daemon simulates.
    Miss,
    /// `ping`.
    Ping,
    /// `stats`.
    Stats,
}

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// Latency class.
    pub class: Class,
    /// Index into [`IDS`] (0 for `ctl` requests).
    pub id: usize,
    /// Trace seed of the evaluation (0 for `ctl` requests).
    pub eval_seed: u64,
}

/// SplitMix64: the benchmark's own generator, so the mix does not depend
/// on the product's.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `n` (`n > 0`; the modulo bias is irrelevant
    /// at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The `k`-th pre-warmed trace seed for benchmark seed `seed`. Below
/// 2^52, so it never equals a [`Mix`] miss seed and survives any JSON
/// number representation exactly.
pub fn hot_seed(seed: u64, k: u64) -> u64 {
    (SplitMix64::new(seed).next_u64() >> 13) + k
}

/// (hit, miss, ctl) request counts of one block of `block` requests.
pub fn block_shares(block: usize) -> (usize, usize, usize) {
    let hit = (block * 70 + 50) / 100;
    let miss = (block * 25 + 50) / 100;
    (hit, miss, block.saturating_sub(hit + miss))
}

/// One client's request stream.
#[derive(Clone, Debug)]
pub struct Mix {
    rng: SplitMix64,
    seed: u64,
    miss_base: u64,
    misses: u64,
    block: usize,
}

impl Mix {
    /// Stream for client number `client` (below 16) under benchmark seed
    /// `seed`, in blocks of `block` requests.
    pub fn new(seed: u64, client: u64, block: usize) -> Self {
        assert!(client < 16, "miss seeds reserve four bits for the client");
        let tag = SplitMix64::new(seed ^ 0xC0FF_EE00).next_u64() & 0xF_FFFF;
        Mix {
            rng: SplitMix64::new(seed.wrapping_mul(31).wrapping_add(client + 1)),
            seed,
            // Bit 52 set: disjoint from every hot seed.
            miss_base: (1 << 52) | (tag << 28) | (client << 24),
            misses: 0,
            block,
        }
    }

    /// The next block, shuffled.
    pub fn next_block(&mut self) -> Vec<Req> {
        let (hit, miss, ctl) = block_shares(self.block);
        let mut out = Vec::with_capacity(self.block);
        for i in 0..hit {
            out.push(Req {
                class: Class::Hit,
                id: i % IDS.len(),
                eval_seed: hot_seed(self.seed, self.rng.below(HOT_SEEDS)),
            });
        }
        for i in 0..miss {
            assert!(self.misses < 1 << 24, "miss counter outgrew its field");
            out.push(Req {
                class: Class::Miss,
                id: i % IDS.len(),
                eval_seed: self.miss_base | self.misses,
            });
            self.misses += 1;
        }
        for i in 0..ctl {
            out.push(Req {
                class: if i % 2 == 0 {
                    Class::Ping
                } else {
                    Class::Stats
                },
                id: 0,
                eval_seed: 0,
            });
        }
        for i in (1..out.len()).rev() {
            out.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed, client| {
            let mut m = Mix::new(seed, client, 120);
            (m.next_block(), m.next_block())
        };
        assert_eq!(take(42, 0), take(42, 0));
        assert_ne!(take(42, 0), take(7, 0));
        assert_ne!(take(42, 0), take(42, 1));
        let (a, b) = take(42, 0);
        assert_ne!(a, b, "the stream moves on");
    }

    #[test]
    fn every_block_has_exact_class_and_id_shares() {
        assert_eq!(block_shares(120), (84, 30, 6));
        assert_eq!(block_shares(40), (28, 10, 2));
        assert_eq!(block_shares(24), (17, 6, 1));
        let mut m = Mix::new(7, 1, 120);
        for _ in 0..3 {
            let block = m.next_block();
            assert_eq!(block.len(), 120);
            let count = |c| block.iter().filter(|r| r.class == c).count();
            assert_eq!(count(Class::Hit), 84);
            assert_eq!(count(Class::Miss), 30);
            assert_eq!(count(Class::Ping) + count(Class::Stats), 6);
            for id in 0..IDS.len() {
                let of = |c| block.iter().filter(|r| r.class == c && r.id == id).count();
                assert_eq!(of(Class::Hit), 14);
                assert_eq!(of(Class::Miss), 5);
            }
        }
    }

    #[test]
    fn miss_seeds_are_unique_and_disjoint_from_hot_seeds() {
        let hot: BTreeSet<u64> = (0..HOT_SEEDS).map(|k| hot_seed(42, k)).collect();
        assert_eq!(hot.len(), HOT_SEEDS as usize);
        let mut seen = BTreeSet::new();
        for client in 0..2 {
            let mut m = Mix::new(42, client, 120);
            for _ in 0..4 {
                for r in m.next_block() {
                    match r.class {
                        Class::Hit => assert!(hot.contains(&r.eval_seed)),
                        Class::Miss => {
                            assert!(!hot.contains(&r.eval_seed));
                            assert!(r.eval_seed < 1 << 53);
                            assert!(seen.insert(r.eval_seed), "miss seed repeated");
                        }
                        Class::Ping | Class::Stats => {}
                    }
                }
            }
        }
        assert_eq!(seen.len(), 2 * 4 * 30);
        // Hot seeds stay below bit 52 even for extreme benchmark seeds.
        assert!(hot_seed(u64::MAX, HOT_SEEDS - 1) < 1 << 52);
    }
}
