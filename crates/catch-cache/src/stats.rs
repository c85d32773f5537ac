//! Statistics for caches, traffic and prefetch timeliness.

use catch_obs::OccupancyHist;
use catch_trace::counters::{
    join_prefix, monotonic_delta, push_counter, CounterSink, CounterSource, Counters, FromCounters,
};
use std::fmt;

/// Counters for one cache array.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups (demand + prefetch walks).
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines inserted.
    pub fills: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
    /// Evictions of modified lines.
    pub dirty_evictions: u64,
    /// Lines removed by invalidation (back-invalidates, exclusive moves).
    pub invalidations: u64,
}

impl Counters for CacheStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn CounterSink) {
        push_counter(out, prefix, "accesses", self.accesses);
        push_counter(out, prefix, "hits", self.hits);
        push_counter(out, prefix, "misses", self.misses);
        push_counter(out, prefix, "fills", self.fills);
        push_counter(out, prefix, "evictions", self.evictions);
        push_counter(out, prefix, "dirty_evictions", self.dirty_evictions);
        push_counter(out, prefix, "invalidations", self.invalidations);
    }
}

impl FromCounters for CacheStats {
    fn from_counters(prefix: &str, src: &mut CounterSource) -> Result<Self, String> {
        Ok(CacheStats {
            accesses: src.take(prefix, "accesses")?,
            hits: src.take(prefix, "hits")?,
            misses: src.take(prefix, "misses")?,
            fills: src.take(prefix, "fills")?,
            evictions: src.take(prefix, "evictions")?,
            dirty_evictions: src.take(prefix, "dirty_evictions")?,
            invalidations: src.take(prefix, "invalidations")?,
        })
    }
}

impl CacheStats {
    /// Combines two snapshots field-by-field with `f`.
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        CacheStats {
            accesses: f(self.accesses, other.accesses),
            hits: f(self.hits, other.hits),
            misses: f(self.misses, other.misses),
            fills: f(self.fills, other.fills),
            evictions: f(self.evictions, other.evictions),
            dirty_evictions: f(self.dirty_evictions, other.dirty_evictions),
            invalidations: f(self.invalidations, other.invalidations),
        }
    }

    /// Per-counter difference against an `earlier` snapshot.
    ///
    /// Debug builds assert monotonicity: these counters only ever grow,
    /// so a shrinking counter is a bookkeeping bug that must not be
    /// masked by saturation (see `catch_trace::counters::monotonic_delta`).
    pub fn minus(&self, earlier: &Self) -> Self {
        self.zip(earlier, monotonic_delta)
    }

    /// Accumulates `weight` copies of `delta` into `self` (saturating).
    /// Used by sampled runs to reconstruct full-trace statistics from
    /// weighted per-interval deltas.
    pub fn add_scaled(&mut self, delta: &Self, weight: u64) {
        *self = self.zip(delta, |a, d| a.saturating_add(d.saturating_mul(weight)));
    }

    /// Hit rate over all lookups (0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Total array activity (reads + writes), used by the energy model.
    pub fn activity(&self) -> u64 {
        self.accesses + self.fills
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} acc, {:.1}% hit, {} fills, {} evict ({} dirty)",
            self.accesses,
            100.0 * self.hit_rate(),
            self.fills,
            self.evictions,
            self.dirty_evictions
        )
    }
}

/// Messages crossing hierarchy boundaries; feeds the energy model and the
/// Section VI-E traffic analysis.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Requests from the private side to the shared LLC.
    pub llc_requests: u64,
    /// Data replies from the LLC (or beyond) back to a core.
    pub llc_replies: u64,
    /// Writebacks / victim fills travelling from a core to the LLC.
    pub llc_writebacks: u64,
    /// Back-invalidate snoops from an inclusive LLC into private caches.
    pub back_invalidates: u64,
    /// Cache-to-cache transfers: LLC misses served by another core's
    /// private copy (snoop hit).
    pub c2c_transfers: u64,
    /// DRAM read accesses.
    pub dram_reads: u64,
    /// DRAM write accesses.
    pub dram_writes: u64,
}

impl Counters for TrafficStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn CounterSink) {
        push_counter(out, prefix, "llc_requests", self.llc_requests);
        push_counter(out, prefix, "llc_replies", self.llc_replies);
        push_counter(out, prefix, "llc_writebacks", self.llc_writebacks);
        push_counter(out, prefix, "back_invalidates", self.back_invalidates);
        push_counter(out, prefix, "c2c_transfers", self.c2c_transfers);
        push_counter(out, prefix, "dram_reads", self.dram_reads);
        push_counter(out, prefix, "dram_writes", self.dram_writes);
    }
}

impl FromCounters for TrafficStats {
    fn from_counters(prefix: &str, src: &mut CounterSource) -> Result<Self, String> {
        Ok(TrafficStats {
            llc_requests: src.take(prefix, "llc_requests")?,
            llc_replies: src.take(prefix, "llc_replies")?,
            llc_writebacks: src.take(prefix, "llc_writebacks")?,
            back_invalidates: src.take(prefix, "back_invalidates")?,
            c2c_transfers: src.take(prefix, "c2c_transfers")?,
            dram_reads: src.take(prefix, "dram_reads")?,
            dram_writes: src.take(prefix, "dram_writes")?,
        })
    }
}

impl TrafficStats {
    /// Combines two snapshots field-by-field with `f`.
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        TrafficStats {
            llc_requests: f(self.llc_requests, other.llc_requests),
            llc_replies: f(self.llc_replies, other.llc_replies),
            llc_writebacks: f(self.llc_writebacks, other.llc_writebacks),
            back_invalidates: f(self.back_invalidates, other.back_invalidates),
            c2c_transfers: f(self.c2c_transfers, other.c2c_transfers),
            dram_reads: f(self.dram_reads, other.dram_reads),
            dram_writes: f(self.dram_writes, other.dram_writes),
        }
    }

    /// Per-counter difference against an `earlier` snapshot.
    ///
    /// Debug builds assert monotonicity: these counters only ever grow,
    /// so a shrinking counter is a bookkeeping bug that must not be
    /// masked by saturation (see `catch_trace::counters::monotonic_delta`).
    pub fn minus(&self, earlier: &Self) -> Self {
        self.zip(earlier, monotonic_delta)
    }

    /// Accumulates `weight` copies of `delta` into `self` (saturating).
    pub fn add_scaled(&mut self, delta: &Self, weight: u64) {
        *self = self.zip(delta, |a, d| a.saturating_add(d.saturating_mul(weight)));
    }

    /// Total on-die interconnect messages (requests + replies + writebacks
    /// + snoops).
    pub fn interconnect_messages(&self) -> u64 {
        self.llc_requests
            + self.llc_replies
            + self.llc_writebacks
            + self.back_invalidates
            + 2 * self.c2c_transfers
    }

    /// Total DRAM accesses.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }
}

/// Timeliness classification of TACT prefetches, as reported by Figure 11.
///
/// A used prefetch saved `source_latency - observed_latency` cycles for its
/// first demand consumer; buckets are expressed as a fraction of the LLC
/// hit latency.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PrefetchTimeliness {
    /// TACT prefetches issued (post-dedup).
    pub issued: u64,
    /// TACT prefetches whose data came from the LLC.
    pub from_llc: u64,
    /// TACT prefetches whose data came from the L2.
    pub from_l2: u64,
    /// TACT prefetches whose data came from DRAM.
    pub from_memory: u64,
    /// Prefetched lines consumed by a demand access.
    pub used: u64,
    /// Used prefetches saving more than 80% of the LLC hit latency.
    pub saved_over_80: u64,
    /// Used prefetches saving 10–80% of the LLC hit latency.
    pub saved_10_to_80: u64,
    /// Used prefetches saving less than 10% of the LLC hit latency.
    pub saved_under_10: u64,
}

impl Counters for PrefetchTimeliness {
    fn counters_into(&self, prefix: &str, out: &mut dyn CounterSink) {
        push_counter(out, prefix, "issued", self.issued);
        push_counter(out, prefix, "from_llc", self.from_llc);
        push_counter(out, prefix, "from_l2", self.from_l2);
        push_counter(out, prefix, "from_memory", self.from_memory);
        push_counter(out, prefix, "used", self.used);
        push_counter(out, prefix, "saved_over_80", self.saved_over_80);
        push_counter(out, prefix, "saved_10_to_80", self.saved_10_to_80);
        push_counter(out, prefix, "saved_under_10", self.saved_under_10);
    }
}

impl FromCounters for PrefetchTimeliness {
    fn from_counters(prefix: &str, src: &mut CounterSource) -> Result<Self, String> {
        Ok(PrefetchTimeliness {
            issued: src.take(prefix, "issued")?,
            from_llc: src.take(prefix, "from_llc")?,
            from_l2: src.take(prefix, "from_l2")?,
            from_memory: src.take(prefix, "from_memory")?,
            used: src.take(prefix, "used")?,
            saved_over_80: src.take(prefix, "saved_over_80")?,
            saved_10_to_80: src.take(prefix, "saved_10_to_80")?,
            saved_under_10: src.take(prefix, "saved_under_10")?,
        })
    }
}

impl PrefetchTimeliness {
    /// Combines two snapshots field-by-field with `f`.
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        PrefetchTimeliness {
            issued: f(self.issued, other.issued),
            from_llc: f(self.from_llc, other.from_llc),
            from_l2: f(self.from_l2, other.from_l2),
            from_memory: f(self.from_memory, other.from_memory),
            used: f(self.used, other.used),
            saved_over_80: f(self.saved_over_80, other.saved_over_80),
            saved_10_to_80: f(self.saved_10_to_80, other.saved_10_to_80),
            saved_under_10: f(self.saved_under_10, other.saved_under_10),
        }
    }

    /// Per-counter difference against an `earlier` snapshot.
    ///
    /// Debug builds assert monotonicity: these counters only ever grow,
    /// so a shrinking counter is a bookkeeping bug that must not be
    /// masked by saturation (see `catch_trace::counters::monotonic_delta`).
    pub fn minus(&self, earlier: &Self) -> Self {
        self.zip(earlier, monotonic_delta)
    }

    /// Accumulates `weight` copies of `delta` into `self` (saturating).
    pub fn add_scaled(&mut self, delta: &Self, weight: u64) {
        *self = self.zip(delta, |a, d| a.saturating_add(d.saturating_mul(weight)));
    }

    /// Fraction of issued TACT prefetches served from the LLC.
    pub fn llc_fraction(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.from_llc as f64 / self.issued as f64
        }
    }

    /// Fraction of used prefetches that saved more than 80% of the LLC
    /// latency.
    pub fn over_80_fraction(&self) -> f64 {
        if self.used == 0 {
            0.0
        } else {
            self.saved_over_80 as f64 / self.used as f64
        }
    }
}

/// Aggregated hierarchy statistics snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HierarchyStats {
    /// Per-core L1 instruction cache stats.
    pub l1i: Vec<CacheStats>,
    /// Per-core L1 data cache stats.
    pub l1d: Vec<CacheStats>,
    /// Per-core L2 stats (empty in two-level mode).
    pub l2: Vec<CacheStats>,
    /// Shared LLC stats.
    pub llc: CacheStats,
    /// Boundary traffic.
    pub traffic: TrafficStats,
    /// TACT timeliness.
    pub timeliness: PrefetchTimeliness,
    /// Data-side in-flight-fill (MSHR ledger) occupancy, sampled at every
    /// demand L1D miss across all cores.
    pub mshr_occ: OccupancyHist,
}

impl HierarchyStats {
    /// Per-counter difference against an `earlier` snapshot of the same
    /// hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots describe different core counts.
    pub fn minus(&self, earlier: &Self) -> Self {
        let per_core = |a: &Vec<CacheStats>, b: &Vec<CacheStats>| {
            assert_eq!(a.len(), b.len(), "snapshots must cover the same cores");
            a.iter().zip(b).map(|(x, y)| x.minus(y)).collect()
        };
        HierarchyStats {
            l1i: per_core(&self.l1i, &earlier.l1i),
            l1d: per_core(&self.l1d, &earlier.l1d),
            l2: per_core(&self.l2, &earlier.l2),
            llc: self.llc.minus(&earlier.llc),
            traffic: self.traffic.minus(&earlier.traffic),
            timeliness: self.timeliness.minus(&earlier.timeliness),
            mshr_occ: self.mshr_occ.minus(&earlier.mshr_occ),
        }
    }

    /// Accumulates `weight` copies of `delta` into `self`, growing empty
    /// per-core vectors to match `delta` (so a `Default` accumulator
    /// works).
    pub fn add_scaled(&mut self, delta: &Self, weight: u64) {
        let per_core = |acc: &mut Vec<CacheStats>, d: &Vec<CacheStats>| {
            if acc.len() < d.len() {
                acc.resize(d.len(), CacheStats::default());
            }
            for (a, x) in acc.iter_mut().zip(d) {
                a.add_scaled(x, weight);
            }
        };
        per_core(&mut self.l1i, &delta.l1i);
        per_core(&mut self.l1d, &delta.l1d);
        per_core(&mut self.l2, &delta.l2);
        self.llc.add_scaled(&delta.llc, weight);
        self.traffic.add_scaled(&delta.traffic, weight);
        self.timeliness.add_scaled(&delta.timeliness, weight);
        self.mshr_occ.add_scaled(&delta.mshr_occ, weight);
    }
}

impl Counters for HierarchyStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn CounterSink) {
        for (name, per_core) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            for (i, s) in per_core.iter().enumerate() {
                s.counters_into(&join_prefix(prefix, &format!("{name}{i}")), out);
            }
        }
        self.llc.counters_into(&join_prefix(prefix, "llc"), out);
        self.traffic
            .counters_into(&join_prefix(prefix, "traffic"), out);
        self.timeliness
            .counters_into(&join_prefix(prefix, "timeliness"), out);
        self.mshr_occ
            .counters_into(&join_prefix(prefix, "mshr_occ"), out);
    }
}

impl FromCounters for HierarchyStats {
    fn from_counters(prefix: &str, src: &mut CounterSource) -> Result<Self, String> {
        // Per-core vector lengths are not stored separately: cores emit
        // consecutively-numbered prefixes (`l1i0`, `l1i1`, …), so the
        // length is recovered by probing for the next index.
        fn per_core(
            prefix: &str,
            name: &str,
            src: &mut CounterSource,
        ) -> Result<Vec<CacheStats>, String> {
            let mut v = Vec::new();
            loop {
                let p = join_prefix(prefix, &format!("{name}{}", v.len()));
                if !src.next_in(&p) {
                    return Ok(v);
                }
                v.push(CacheStats::from_counters(&p, src)?);
            }
        }
        Ok(HierarchyStats {
            l1i: per_core(prefix, "l1i", src)?,
            l1d: per_core(prefix, "l1d", src)?,
            l2: per_core(prefix, "l2", src)?,
            llc: CacheStats::from_counters(&join_prefix(prefix, "llc"), src)?,
            traffic: TrafficStats::from_counters(&join_prefix(prefix, "traffic"), src)?,
            timeliness: PrefetchTimeliness::from_counters(&join_prefix(prefix, "timeliness"), src)?,
            mshr_occ: OccupancyHist::from_counters(&join_prefix(prefix, "mshr_occ"), src)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats {
            accesses: 10,
            hits: 4,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn traffic_totals() {
        let t = TrafficStats {
            llc_requests: 5,
            llc_replies: 4,
            llc_writebacks: 3,
            back_invalidates: 2,
            c2c_transfers: 1,
            dram_reads: 7,
            dram_writes: 1,
        };
        assert_eq!(t.interconnect_messages(), 16);
        assert_eq!(t.dram_accesses(), 8);
    }

    #[test]
    fn timeliness_fractions() {
        let p = PrefetchTimeliness {
            issued: 10,
            from_llc: 8,
            used: 5,
            saved_over_80: 4,
            ..Default::default()
        };
        assert!((p.llc_fraction() - 0.8).abs() < 1e-12);
        assert!((p.over_80_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(PrefetchTimeliness::default().llc_fraction(), 0.0);
    }

    #[test]
    fn minus_deltas_monotone_counters() {
        let early = CacheStats {
            accesses: 10,
            hits: 4,
            ..Default::default()
        };
        let late = CacheStats {
            accesses: 25,
            hits: 9,
            ..Default::default()
        };
        let d = late.minus(&early);
        assert_eq!(d.accesses, 15);
        assert_eq!(d.hits, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotonic")]
    fn minus_rejects_shrinking_cache_counters() {
        let early = CacheStats {
            accesses: 10,
            ..Default::default()
        };
        let _ = CacheStats::default().minus(&early);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotonic")]
    fn minus_rejects_shrinking_traffic_counters() {
        let early = TrafficStats {
            dram_reads: 3,
            ..Default::default()
        };
        let _ = TrafficStats::default().minus(&early);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotonic")]
    fn minus_rejects_shrinking_timeliness_counters() {
        let early = PrefetchTimeliness {
            issued: 2,
            ..Default::default()
        };
        let _ = PrefetchTimeliness::default().minus(&early);
    }

    #[test]
    fn hierarchy_stats_carry_mshr_occupancy() {
        let mut s = HierarchyStats::default();
        s.mshr_occ.record(4, 32);
        let c = s.counters("h");
        assert!(c.iter().any(|(n, v)| n == "h.mshr_occ.samples" && *v == 1));
        let d = s.minus(&HierarchyStats::default());
        assert_eq!(d.mshr_occ.sum, 4);
        let mut acc = HierarchyStats::default();
        acc.add_scaled(&d, 2);
        assert_eq!(acc.mshr_occ.samples, 2);
    }
}
