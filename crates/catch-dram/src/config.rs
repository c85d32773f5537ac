//! DRAM configuration.

use catch_trace::key::{Key, KeySink};

/// Geometry and timing of the memory system.
///
/// Timing fields are in *DRAM command-clock* cycles; [`DramConfig::scale`]
/// converts to core cycles (3.2 GHz core vs. 1200 MHz DDR4-2400 command
/// clock ⇒ ratio ≈ 2.67).
#[derive(Clone, Debug, PartialEq)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// CAS latency (column access) in DRAM cycles.
    pub t_cas: u64,
    /// RAS-to-CAS delay (activate) in DRAM cycles.
    pub t_rcd: u64,
    /// Row precharge in DRAM cycles.
    pub t_rp: u64,
    /// Minimum row-active time in DRAM cycles.
    pub t_ras: u64,
    /// Data-burst occupancy of the channel bus in DRAM cycles (BL8 on a
    /// 64-bit bus moves 64 B in 4 clocks).
    pub t_burst: u64,
    /// Core cycles per DRAM cycle (fixed-point ×100: 267 ⇒ 2.67).
    pub core_per_dram_x100: u64,
    /// Writes are drained in batches of this size.
    pub write_batch: usize,
}

impl DramConfig {
    /// The paper's configuration: DDR4-2400, 2 channels, 2 ranks, 8 banks,
    /// 2 KB rows, 15-15-15-39, 3.2 GHz core.
    pub fn ddr4_2400() -> Self {
        DramConfig {
            channels: 2,
            ranks: 2,
            banks: 8,
            row_bytes: 2048,
            t_cas: 15,
            t_rcd: 15,
            t_rp: 15,
            t_ras: 39,
            t_burst: 4,
            core_per_dram_x100: 267,
            write_batch: 16,
        }
    }

    /// Converts DRAM cycles to core cycles (rounding up).
    pub fn scale(&self, dram_cycles: u64) -> u64 {
        (dram_cycles * self.core_per_dram_x100).div_ceil(100)
    }

    /// Total banks across the system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks * self.banks
    }

    /// Cache lines per row buffer.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / catch_trace::LINE_BYTES
    }
}

impl Key for DramConfig {
    fn key(&self, sink: &mut KeySink) {
        let DramConfig {
            channels,
            ranks,
            banks,
            row_bytes,
            t_cas,
            t_rcd,
            t_rp,
            t_ras,
            t_burst,
            core_per_dram_x100,
            write_batch,
        } = self;
        channels.key(sink);
        ranks.key(sink);
        banks.key(sink);
        row_bytes.key(sink);
        for cycles in [t_cas, t_rcd, t_rp, t_ras, t_burst, core_per_dram_x100] {
            cycles.key(sink);
        }
        write_batch.key(sink);
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_2400_matches_paper() {
        let c = DramConfig::ddr4_2400();
        assert_eq!(
            (c.t_cas, c.t_rcd, c.t_rp, c.t_ras),
            (15, 15, 15, 39),
            "15-15-15-39"
        );
        assert_eq!(c.channels, 2);
        assert_eq!(c.total_banks(), 32);
        assert_eq!(c.lines_per_row(), 32);
    }

    #[test]
    fn scale_rounds_up() {
        let c = DramConfig::ddr4_2400();
        assert_eq!(c.scale(15), 41); // 15 * 2.67 = 40.05 -> 41
        assert_eq!(c.scale(0), 0);
    }
}
