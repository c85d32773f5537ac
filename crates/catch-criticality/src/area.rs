//! Storage accounting for the detector hardware (paper Table I).
//!
//! The paper argues the whole mechanism costs about 3 KB: ~2.3 KB for the
//! graph buffer (per-instruction edge storage for a 2×-ROB window) plus
//! ~1 KB of 10-bit hashed PCs for the 2.5×-ROB buffer. This module encodes
//! those numbers so they can be asserted in tests and printed by the
//! `tab1` experiment (`run_experiment tab1`).

/// Bits of storage per instruction for each edge class (Table I).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EdgeBits {
    /// D-D, C-C, D-E, C-D: implicit edges, no storage.
    pub implicit: u32,
    /// E-C: 5-bit quantized execution latency.
    pub execution_latency: u32,
    /// E-E: three register sources + one memory dependence, 9-bit node
    /// numbers each.
    pub data_dependence: u32,
    /// E-D: one bit to signify bad speculation.
    pub bad_speculation: u32,
}

/// Table I of the paper.
pub const EDGE_BITS: EdgeBits = EdgeBits {
    implicit: 0,
    execution_latency: 5,
    data_dependence: 9 * 3 + 9,
    bad_speculation: 1,
};

impl EdgeBits {
    /// Total stored bits per buffered instruction for edges.
    pub const fn per_instruction(&self) -> u32 {
        self.implicit + self.execution_latency + self.data_dependence + self.bad_speculation
    }
}

/// Area summary of the full mechanism.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AreaBudget {
    /// ROB size of the core.
    pub rob_size: usize,
    /// Bytes for the edge/cost storage of the walked (2× ROB) window.
    pub graph_bytes: u64,
    /// Bytes for hashed PCs over the full (2.5× ROB) buffer.
    pub pc_bytes: u64,
    /// Bytes for the 32-entry critical-load table.
    pub table_bytes: u64,
}

/// Bits of a hashed PC stored per instruction.
pub const HASHED_PC_BITS: u64 = 10;

/// Extra per-instruction bookkeeping: prev-node pointer (9 bits, enough
/// for a 2.5×224 window) plus a node cost (~16 bits saturating).
pub const BOOKKEEPING_BITS: u64 = 9 + 16;

impl AreaBudget {
    /// Computes the budget for a given ROB size with the paper's constants.
    pub fn for_rob(rob_size: usize) -> Self {
        let walked = 2 * rob_size as u64;
        let buffered = 5 * rob_size as u64 / 2;
        let per_inst_bits = EDGE_BITS.per_instruction() as u64 + BOOKKEEPING_BITS;
        let graph_bytes = (walked * per_inst_bits).div_ceil(8);
        let pc_bytes = (buffered * HASHED_PC_BITS).div_ceil(8);
        // 32 entries × (hashed tag 10b + confidence 2b + LRU ~3b).
        let table_bytes = (32 * (10 + 2 + 3u64)).div_ceil(8);
        AreaBudget {
            rob_size,
            graph_bytes,
            pc_bytes,
            table_bytes,
        }
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.graph_bytes + self.pc_bytes + self.table_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_bits_match_table_one() {
        assert_eq!(EDGE_BITS.implicit, 0);
        assert_eq!(EDGE_BITS.execution_latency, 5);
        assert_eq!(EDGE_BITS.data_dependence, 36);
        assert_eq!(EDGE_BITS.bad_speculation, 1);
        assert_eq!(EDGE_BITS.per_instruction(), 42);
    }

    #[test]
    fn total_area_is_about_3_kb() {
        let budget = AreaBudget::for_rob(224);
        // Paper: ~2.3 KB graph + ~1 KB PCs ≈ 3 KB total.
        let total_kb = budget.total_bytes() as f64 / 1024.0;
        assert!(
            (2.5..4.5).contains(&total_kb),
            "total {total_kb:.2} KB should be about 3 KB"
        );
        let graph_kb = budget.graph_bytes as f64 / 1024.0;
        assert!(
            (2.0..4.0).contains(&graph_kb),
            "graph {graph_kb:.2} KB should be about 2.3 KB"
        );
        let pc_kb = budget.pc_bytes as f64 / 1024.0;
        assert!((0.5..1.0).contains(&pc_kb), "PCs {pc_kb:.2} KB ~ 0.7 KB");
    }

    #[test]
    fn budget_scales_with_rob() {
        let small = AreaBudget::for_rob(128);
        let big = AreaBudget::for_rob(512);
        assert!(big.total_bytes() > small.total_bytes());
    }
}
