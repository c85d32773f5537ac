//! Memory-system statistics.

use catch_obs::OccupancyHist;
use catch_trace::counters::monotonic_delta;
use std::fmt;

/// Counters for the DRAM system.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses (posted).
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Accesses to an idle (precharged) bank.
    pub row_empties: u64,
    /// Row-buffer conflicts.
    pub row_conflicts: u64,
    /// Sum of read latencies in core cycles (for averaging).
    pub total_read_latency: u64,
    /// Write batches drained.
    pub write_batches: u64,
    /// Busy-bank occupancy, sampled at every read arrival.
    pub bank_occ: OccupancyHist,
}

impl catch_trace::counters::Counters for DramStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn catch_trace::counters::CounterSink) {
        use catch_trace::counters::push_counter;
        push_counter(out, prefix, "reads", self.reads);
        push_counter(out, prefix, "writes", self.writes);
        push_counter(out, prefix, "row_hits", self.row_hits);
        push_counter(out, prefix, "row_empties", self.row_empties);
        push_counter(out, prefix, "row_conflicts", self.row_conflicts);
        push_counter(out, prefix, "total_read_latency", self.total_read_latency);
        push_counter(out, prefix, "write_batches", self.write_batches);
        self.bank_occ
            .counters_into(&catch_trace::counters::join_prefix(prefix, "bank_occ"), out);
    }
}

impl catch_trace::counters::FromCounters for DramStats {
    fn from_counters(
        prefix: &str,
        src: &mut catch_trace::counters::CounterSource,
    ) -> Result<Self, String> {
        use catch_trace::counters::join_prefix;
        Ok(DramStats {
            reads: src.take(prefix, "reads")?,
            writes: src.take(prefix, "writes")?,
            row_hits: src.take(prefix, "row_hits")?,
            row_empties: src.take(prefix, "row_empties")?,
            row_conflicts: src.take(prefix, "row_conflicts")?,
            total_read_latency: src.take(prefix, "total_read_latency")?,
            write_batches: src.take(prefix, "write_batches")?,
            bank_occ: OccupancyHist::from_counters(&join_prefix(prefix, "bank_occ"), src)?,
        })
    }
}

impl DramStats {
    /// Combines the scalar counters field-by-field with `f`; `bank_occ`
    /// is carried from `self` and combined by the callers.
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        DramStats {
            reads: f(self.reads, other.reads),
            writes: f(self.writes, other.writes),
            row_hits: f(self.row_hits, other.row_hits),
            row_empties: f(self.row_empties, other.row_empties),
            row_conflicts: f(self.row_conflicts, other.row_conflicts),
            total_read_latency: f(self.total_read_latency, other.total_read_latency),
            write_batches: f(self.write_batches, other.write_batches),
            bank_occ: self.bank_occ,
        }
    }

    /// Per-counter difference against an `earlier` snapshot.
    ///
    /// Debug builds assert monotonicity: these counters only ever grow,
    /// so a shrinking counter is a bookkeeping bug that must not be
    /// masked by saturation (see `catch_trace::counters::monotonic_delta`).
    pub fn minus(&self, earlier: &Self) -> Self {
        let mut out = self.zip(earlier, monotonic_delta);
        out.bank_occ = self.bank_occ.minus(&earlier.bank_occ);
        out
    }

    /// Accumulates `weight` copies of `delta` into `self` (saturating).
    /// Used by sampled runs to reconstruct full-trace statistics from
    /// weighted per-interval deltas.
    pub fn add_scaled(&mut self, delta: &Self, weight: u64) {
        let mut occ = self.bank_occ;
        occ.add_scaled(&delta.bank_occ, weight);
        *self = self.zip(delta, |a, d| a.saturating_add(d.saturating_mul(weight)));
        self.bank_occ = occ;
    }

    /// Average read latency in core cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }

    /// Row-buffer hit rate over all accesses.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_empties + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for DramStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rd / {} wr, avg read {:.1} cyc, row-hit {:.1}%",
            self.reads,
            self.writes,
            self.avg_read_latency(),
            100.0 * self.row_hit_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_zero() {
        let s = DramStats::default();
        assert_eq!(s.avg_read_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn averages_compute() {
        let s = DramStats {
            reads: 4,
            total_read_latency: 400,
            row_hits: 3,
            row_conflicts: 1,
            ..Default::default()
        };
        assert!((s.avg_read_latency() - 100.0).abs() < 1e-9);
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn minus_and_add_scaled_carry_bank_occupancy() {
        let mut early = DramStats::default();
        early.bank_occ.record(2, 32);
        let mut late = early;
        late.reads = 5;
        late.bank_occ.record(8, 32);
        let d = late.minus(&early);
        assert_eq!(d.reads, 5);
        assert_eq!(d.bank_occ.samples, 1);
        assert_eq!(d.bank_occ.sum, 8);
        let mut acc = DramStats::default();
        acc.add_scaled(&d, 4);
        assert_eq!(acc.reads, 20);
        assert_eq!(acc.bank_occ.samples, 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotonic")]
    fn minus_rejects_shrinking_dram_counters() {
        let early = DramStats {
            reads: 7,
            ..Default::default()
        };
        let _ = DramStats::default().minus(&early);
    }
}
