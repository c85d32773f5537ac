//! Reusable trace-generation kernels.
//!
//! Each kernel emits a handful of micro-ops into a [`TraceBuilder`] and
//! maintains its own cursor state, so workload generators can interleave
//! several kernels inside one loop body (reusing the same PCs across
//! iterations, as real loop code does).

use catch_trace::rng::SplitMix64;
use catch_trace::{Addr, ArchReg, Pc, TraceBuilder, LINE_BYTES};

/// A line-aligned data region, disjoint from other regions by id.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Region {
    base: u64,
    lines: u64,
}

impl Region {
    /// Creates region `id` spanning `bytes` (rounded up to lines).
    /// Region ids are spaced 4 GiB apart, so regions never overlap.
    pub fn new(id: u64, bytes: u64) -> Self {
        Region {
            base: (id + 1) << 32,
            lines: bytes.div_ceil(LINE_BYTES).max(1),
        }
    }

    /// First byte of the region.
    pub fn base(&self) -> Addr {
        Addr::new(self.base)
    }

    /// Capacity in cache lines.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> u64 {
        self.lines * LINE_BYTES
    }

    /// Address of line `i` (wrapping within the region).
    pub fn line_addr(&self, i: u64) -> Addr {
        Addr::new(self.base + (i % self.lines) * LINE_BYTES)
    }

    /// A uniformly random line address.
    pub fn rand_line(&self, rng: &mut SplitMix64) -> Addr {
        self.line_addr(rng.gen_range(0..self.lines))
    }
}

/// A permuted pointer ring over a region: each line holds the address of
/// the next, forming a single cycle. Chasing it produces dependent loads
/// with no address pattern — the criticality workhorse.
#[derive(Debug)]
pub struct PtrRing {
    addrs: Vec<u64>,
    pos: usize,
}

impl PtrRing {
    /// Builds a ring over `count` lines of `region`, shuffled with `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(region: Region, count: u64, rng: &mut SplitMix64) -> Self {
        assert!(count > 0, "ring needs at least one node");
        let count = count.min(region.lines());
        let mut addrs: Vec<u64> = (0..count).map(|i| region.line_addr(i).get()).collect();
        // Fisher-Yates.
        for i in (1..addrs.len()).rev() {
            let j = rng.gen_range(0..=i);
            addrs.swap(i, j);
        }
        PtrRing { addrs, pos: 0 }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if the ring has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Returns `(current address, value stored there = next address)` and
    /// steps the ring forward.
    pub fn advance(&mut self) -> (Addr, u64) {
        let cur = self.addrs[self.pos];
        self.pos = (self.pos + 1) % self.addrs.len();
        (Addr::new(cur), self.addrs[self.pos])
    }
}

/// Emits `steps` dependent pointer-chase loads through `ring` into `reg`.
/// Each load's address register is `reg` itself, so the chain serialises.
pub fn emit_chase(b: &mut TraceBuilder, ring: &mut PtrRing, reg: ArchReg, steps: usize) {
    for _ in 0..steps {
        let (addr, value) = ring.advance();
        b.load_dep(reg, addr, value, &[reg]);
    }
}

/// Sequential-index gather state: a strided index array whose elements
/// select lines of a data region (`addr = data.base + 8 × index`,
/// learnable by TACT-Feeder with scale 8).
#[derive(Debug)]
pub struct IndexedGather {
    idx_region: Region,
    data_region: Region,
    cursor: u64,
    indices: Vec<u64>,
}

impl IndexedGather {
    /// Builds the gather over pre-randomised indices covering
    /// `data_region`.
    pub fn new(idx_region: Region, data_region: Region, rng: &mut SplitMix64) -> Self {
        let n = (idx_region.bytes() / 8).clamp(16, 1 << 16);
        Self::with_count(idx_region, data_region, n as usize, rng)
    }

    /// Builds the gather with an explicit index count. The index array
    /// cycles after `count` entries, so `count` controls the *reuse
    /// distance* (and hence which cache level the gathered working set
    /// settles into), independently of `data_region`'s size.
    pub fn with_count(
        idx_region: Region,
        data_region: Region,
        count: usize,
        rng: &mut SplitMix64,
    ) -> Self {
        let count = count.max(16) as u64;
        let data_lines = data_region.lines();
        let indices = (0..count)
            .map(|_| rng.gen_range(0..data_lines) * (LINE_BYTES / 8))
            .collect();
        IndexedGather {
            idx_region,
            data_region,
            cursor: 0,
            indices,
        }
    }

    /// Emits one index load (strided, feeder/trigger) and the dependent
    /// gather load (the critical target); two loads and one consumer ALU.
    /// Returns the gather address so callers can attach payload-field
    /// reads at stable offsets (Cross-prefetchable).
    pub fn emit(&mut self, b: &mut TraceBuilder, idx_reg: ArchReg, data_reg: ArchReg) -> Addr {
        let k = self.cursor;
        self.cursor += 1;
        // The index array itself spans `count × 8` bytes (cycling with the
        // indices), so its footprint matches the reuse distance.
        let idx_span = (self.indices.len() as u64 * 8).min(self.idx_region.bytes());
        let idx_addr = Addr::new(self.idx_region.base().get() + (k * 8) % idx_span);
        let index = self.indices[(k as usize) % self.indices.len()];
        b.load(idx_reg, idx_addr, index);
        let gather_addr = Addr::new(self.data_region.base().get() + index * 8);
        b.load_dep(data_reg, gather_addr, 0, &[idx_reg]);
        b.alu(data_reg, &[data_reg]);
        gather_addr
    }
}

/// Emits a struct-field walk: given a pointer value in `ptr_reg`
/// (caller-emitted load), loads fields at stable offsets — Cross-friendly
/// (stable deltas) and Feeder-friendly (`addr = ptr + offset`).
pub fn emit_struct_fields(
    b: &mut TraceBuilder,
    ptr_reg: ArchReg,
    node_addr: Addr,
    field_regs: &[ArchReg],
    offsets: &[i64],
) {
    for (reg, &off) in field_regs.iter().zip(offsets) {
        b.load_dep(*reg, node_addr.offset(off), 0, &[ptr_reg]);
    }
}

/// Streaming-load state over a region.
#[derive(Debug)]
pub struct Stream {
    region: Region,
    cursor: u64,
    stride: u64,
}

impl Stream {
    /// A stream over `region` advancing `stride` bytes per element.
    pub fn new(region: Region, stride: u64) -> Self {
        Stream {
            region,
            cursor: 0,
            stride: stride.max(1),
        }
    }

    /// Emits `unroll` streaming loads into `reg`.
    pub fn emit(&mut self, b: &mut TraceBuilder, reg: ArchReg, unroll: usize) {
        for _ in 0..unroll {
            let addr = Addr::new(self.region.base().get() + self.cursor % self.region.bytes());
            self.cursor += self.stride;
            b.load(reg, addr, 0);
        }
    }

    /// Emits a streaming store.
    pub fn emit_store(&mut self, b: &mut TraceBuilder, src: ArchReg) {
        let addr = Addr::new(self.region.base().get() + self.cursor % self.region.bytes());
        self.cursor += self.stride;
        b.store(addr, &[src]);
    }
}

/// A small always-cache-resident working set (stack/locals analogue).
///
/// Real programs serve ~85% of loads from the L1 (paper Section III-B);
/// most of those sit on short dependence chains (locals, object headers,
/// small tables). `Locals` emits chains of dependent loads inside an 8 KB
/// region, which is what makes the L1 the most latency-sensitive level
/// (Figure 3) and makes "demote all L1 hits" catastrophic (Figure 4).
#[derive(Debug)]
pub struct Locals {
    region: Region,
    cursor: u64,
}

impl Locals {
    /// Creates the locals region with the given region id (keep distinct
    /// from the workload's data regions).
    pub fn new(region_id: u64) -> Self {
        Locals {
            region: Region::new(region_id, 8 << 10),
            cursor: 1,
        }
    }

    /// Emits a chain of `n` dependent loads: the first depends on `src`,
    /// each subsequent one on the previous, all landing in `tmp`.
    pub fn emit_chain(&mut self, b: &mut TraceBuilder, src: ArchReg, tmp: ArchReg, n: usize) {
        let mut dep = src;
        for _ in 0..n {
            self.cursor = self
                .cursor
                .wrapping_mul(6364136223846793005)
                .wrapping_add(13);
            let offset = (self.cursor % self.region.bytes()) & !7;
            let addr = Addr::new(self.region.base().get() + offset);
            b.load_dep(tmp, addr, 0, &[dep]);
            dep = tmp;
        }
    }
}

/// Emits a dependent FP chain of `len` ops accumulating into `acc`.
pub fn emit_fp_chain(b: &mut TraceBuilder, acc: ArchReg, operand: ArchReg, len: usize) {
    for i in 0..len {
        if i % 2 == 0 {
            b.fadd(acc, &[acc, operand]);
        } else {
            b.fmul(acc, &[acc, operand]);
        }
    }
}

/// Emits `n` independent integer ops across `regs` (ILP filler).
pub fn emit_int_work(b: &mut TraceBuilder, regs: &[ArchReg], n: usize) {
    for i in 0..n {
        let r = regs[i % regs.len()];
        b.alu(r, &[r]);
    }
}

/// Emits a conditional branch taken with probability `taken_bias`
/// (deterministic given `rng`). The branch is data-dependent on `src`.
/// Biases near 0 or 1 are predictable; near 0.5 they mispredict often.
pub fn emit_branch(b: &mut TraceBuilder, rng: &mut SplitMix64, src: ArchReg, taken_bias: f64) {
    let taken = rng.gen_bool(taken_bias.clamp(0.0, 1.0));
    let target = b.cursor().advance(16);
    b.cond_branch(taken, target, &[src]);
}

/// Allocates `count` code-block entry points spread over `code_bytes` of
/// PC space starting at `base` — used by server-like workloads to create
/// large instruction footprints.
pub fn code_blocks(base: Pc, count: usize, code_bytes: u64) -> Vec<Pc> {
    let spacing = (code_bytes / count.max(1) as u64).max(64);
    (0..count as u64)
        .map(|i| Pc::new(base.get() + i * spacing))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_trace::OpClass;

    fn rng() -> SplitMix64 {
        SplitMix64::seed_from_u64(7)
    }

    #[test]
    fn regions_do_not_overlap() {
        let a = Region::new(0, 1 << 20);
        let c = Region::new(1, 1 << 20);
        assert!(a.line_addr(a.lines() - 1).get() < c.base().get());
    }

    #[test]
    fn ring_is_a_single_cycle() {
        let mut r = rng();
        let region = Region::new(0, 64 * 100);
        let mut ring = PtrRing::new(region, 100, &mut r);
        let n = ring.len();
        let (start, _) = ring.advance();
        let mut seen = vec![start];
        for _ in 1..n {
            let (addr, _) = ring.advance();
            assert!(!seen.contains(&addr), "ring revisited {addr}");
            seen.push(addr);
        }
        let (wrap, _) = ring.advance();
        assert_eq!(wrap, start);
    }

    #[test]
    fn ring_values_point_to_next_node() {
        let mut r = rng();
        let mut ring = PtrRing::new(Region::new(0, 64 * 10), 10, &mut r);
        let (_, value) = ring.advance();
        let (next_addr, _) = ring.advance();
        // We consumed one extra step; rewind logic: value of node i is the
        // address of node i+1.
        assert_eq!(value, next_addr.get());
    }

    #[test]
    fn chase_emits_dependent_loads() {
        let mut b = TraceBuilder::new("t");
        let mut r = rng();
        let mut ring = PtrRing::new(Region::new(0, 64 * 16), 16, &mut r);
        let reg = ArchReg::new(1);
        emit_chase(&mut b, &mut ring, reg, 5);
        let t = b.build();
        assert_eq!(t.len(), 5);
        for op in t.ops() {
            assert_eq!(op.class, OpClass::Load);
            assert!(op.reads(reg));
        }
    }

    #[test]
    fn gather_addresses_follow_scale8_relation() {
        let mut b = TraceBuilder::new("t");
        let mut r = rng();
        let idx = Region::new(0, 1 << 16);
        let data = Region::new(1, 1 << 20);
        let mut g = IndexedGather::new(idx, data, &mut r);
        g.emit(&mut b, ArchReg::new(1), ArchReg::new(2));
        let t = b.build();
        let idx_op = &t.ops()[0];
        let gather_op = &t.ops()[1];
        let expected = data.base().get() + idx_op.load_value() * 8;
        assert_eq!(gather_op.mem.unwrap().addr.get(), expected);
        assert!(gather_op.reads(ArchReg::new(1)));
    }

    #[test]
    fn stream_wraps_in_region() {
        let region = Region::new(0, 256); // 4 lines
        let mut s = Stream::new(region, 64);
        let mut b = TraceBuilder::new("t");
        s.emit(&mut b, ArchReg::new(1), 6);
        let t = b.build();
        assert_eq!(
            t.ops()[0].mem.unwrap().addr,
            t.ops()[4].mem.unwrap().addr,
            "stream wraps after 4 lines"
        );
    }

    #[test]
    fn code_blocks_span_requested_footprint() {
        let blocks = code_blocks(Pc::new(0x40_0000), 64, 512 << 10);
        assert_eq!(blocks.len(), 64);
        let span = blocks.last().unwrap().get() - blocks[0].get();
        assert!(span > 400 << 10);
    }

    #[test]
    fn struct_fields_have_stable_offsets() {
        let mut b = TraceBuilder::new("t");
        let regs = [ArchReg::new(3), ArchReg::new(4)];
        emit_struct_fields(
            &mut b,
            ArchReg::new(1),
            Addr::new(0x10000),
            &regs,
            &[8, 256],
        );
        let t = b.build();
        assert_eq!(t.ops()[0].mem.unwrap().addr.get(), 0x10008);
        assert_eq!(t.ops()[1].mem.unwrap().addr.get(), 0x10100);
    }
}
