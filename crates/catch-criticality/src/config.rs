//! Detector configuration.

use catch_cache::Level;
use catch_trace::key::{Key, KeySink};

/// Configuration of the criticality detector.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorConfig {
    /// Reorder-buffer size of the core (224 in the paper's Skylake-like
    /// configuration).
    pub rob_size: usize,
    /// Graph capacity as a multiple of ROB size ×10 (paper: 2.5× ⇒ 25).
    /// Retirement continues while the walk happens, so the buffer is
    /// larger than the walked window.
    pub buffer_factor_x10: usize,
    /// Window walked, as a multiple of ROB size ×10 (paper: 2× ⇒ 20).
    pub walk_factor_x10: usize,
    /// Entries in the critical-load table (paper: 32).
    pub table_entries: usize,
    /// Associativity of the critical-load table (paper: 8).
    pub table_ways: usize,
    /// Confidence counters of unsaturated entries are reset every this
    /// many retired instructions (paper: 100 000).
    pub confidence_reset_interval: u64,
    /// Execution latencies are right-shifted by this amount before being
    /// stored in a 5-bit saturating counter (paper: ÷8 ⇒ 3).
    pub quantize_shift: u32,
    /// Weight of the E→D bad-speculation edge (front-end redirect).
    pub redirect_penalty: u64,
    /// Weight of the D→E edge (rename/dispatch).
    pub rename_latency: u64,
    /// Which hit levels qualify a critical load for the table.
    /// Default: L2 and LLC (the loads CATCH wants served from L1).
    pub track_levels: Vec<Level>,
}

impl DetectorConfig {
    /// Paper defaults for a 224-entry-ROB core.
    pub fn paper() -> Self {
        DetectorConfig {
            rob_size: 224,
            buffer_factor_x10: 25,
            walk_factor_x10: 20,
            table_entries: 32,
            table_ways: 8,
            confidence_reset_interval: 100_000,
            quantize_shift: 3,
            redirect_penalty: 15,
            rename_latency: 1,
            track_levels: vec![Level::L2, Level::Llc],
        }
    }

    /// Returns a copy tracking a different set of hit levels (used by the
    /// Figure 4 per-level oracles).
    pub fn with_track_levels(mut self, levels: &[Level]) -> Self {
        self.track_levels = levels.to_vec();
        self
    }

    /// Returns a copy with a different table size, keeping 8-way
    /// associativity when possible (Figure 5 sweep).
    pub fn with_table_entries(mut self, entries: usize) -> Self {
        self.table_entries = entries;
        self.table_ways = self.table_ways.min(entries).max(1);
        self
    }

    /// Graph buffer capacity in instructions.
    pub fn buffer_capacity(&self) -> usize {
        self.rob_size * self.buffer_factor_x10 / 10
    }

    /// Number of buffered instructions that triggers a walk.
    pub fn walk_threshold(&self) -> usize {
        self.rob_size * self.walk_factor_x10 / 10
    }

    /// Maximum quantized latency value (5-bit saturating counter).
    pub fn quantized_max(&self) -> u64 {
        31
    }

    /// Quantizes an execution latency the way the hardware stores it,
    /// returning the cost the graph uses (re-scaled).
    pub fn quantize(&self, latency: u64) -> u64 {
        (latency >> self.quantize_shift).min(self.quantized_max()) << self.quantize_shift
    }
}

impl Key for DetectorConfig {
    fn key(&self, sink: &mut KeySink) {
        let DetectorConfig {
            rob_size,
            buffer_factor_x10,
            walk_factor_x10,
            table_entries,
            table_ways,
            confidence_reset_interval,
            quantize_shift,
            redirect_penalty,
            rename_latency,
            track_levels,
        } = self;
        rob_size.key(sink);
        buffer_factor_x10.key(sink);
        walk_factor_x10.key(sink);
        table_entries.key(sink);
        table_ways.key(sink);
        confidence_reset_interval.key(sink);
        quantize_shift.key(sink);
        redirect_penalty.key(sink);
        rename_latency.key(sink);
        track_levels.key(sink);
    }
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = DetectorConfig::paper();
        assert_eq!(c.rob_size, 224);
        assert_eq!(c.buffer_capacity(), 560);
        assert_eq!(c.walk_threshold(), 448);
        assert_eq!(c.table_entries, 32);
    }

    #[test]
    fn quantize_saturates_at_5_bits() {
        let c = DetectorConfig::paper();
        assert_eq!(c.quantize(7), 0);
        assert_eq!(c.quantize(8), 8);
        assert_eq!(c.quantize(17), 16);
        assert_eq!(c.quantize(10_000), 31 << 3);
    }

    #[test]
    fn with_table_entries_keeps_ways_sane() {
        let c = DetectorConfig::paper().with_table_entries(4);
        assert_eq!(c.table_entries, 4);
        assert_eq!(c.table_ways, 4);
        let big = DetectorConfig::paper().with_table_entries(2048);
        assert_eq!(big.table_ways, 8);
    }
}
