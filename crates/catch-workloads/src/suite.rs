//! The named workload suite (Table II analogue).
//!
//! Twenty workloads across the paper's five categories. Each reproduces a
//! *behaviour class* from the paper's analysis rather than a specific
//! binary:
//!
//! | class | representative | behaviour |
//! |---|---|---|
//! | memory gather | `mcf_like`, `spmv_like` | strided index feeding a huge gather (Feeder-recoverable memory/LLC misses) |
//! | L2-resident chase | `astar_like`, `specjbb_like` | serial pointer chases sized for the L2/LLC (criticality, mostly unrecoverable) |
//! | field walk | `xalanc_like`, `oracle_like` | pointer plus fields at stable offsets (Cross-recoverable) |
//! | strided FP | `milc_like`, `stencil_like`, `facedet_like` | long strided runs feeding FP chains and branches (Deep-Self) |
//! | streaming | `lbm_like`, `hadoop_like` | bandwidth streams (baseline stream prefetcher) |
//! | big code | `tpcc_like`, `oracle_like`, ... | instruction footprints ≫ L1I (code runahead) |
//! | PC-rich | `povray_like` | more critical PCs than the 32-entry table holds |

use crate::kernels::{
    code_blocks, emit_branch, emit_fp_chain, emit_int_work, emit_struct_fields, IndexedGather,
    Locals, PtrRing, Region, Stream,
};
use catch_trace::rng::SplitMix64;
use catch_trace::{ArchReg, Category, Pc, Trace, TraceBuilder};
use std::fmt;

/// Error returned for unknown workload names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadsError {
    name: String,
}

impl fmt::Display for WorkloadsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown workload '{}'", self.name)
    }
}

impl std::error::Error for WorkloadsError {}

/// A named trace generator.
#[derive(Copy, Clone)]
pub struct WorkloadSpec {
    /// Workload name (e.g. `"mcf_like"`).
    pub name: &'static str,
    /// Category for per-category reporting.
    pub category: Category,
    /// Trace-length multiplier: workloads with multi-megabyte reuse sets
    /// need proportionally longer windows to reach steady state (the
    /// paper runs 100 M instructions; we scale down non-uniformly).
    pub ops_scale: usize,
    generate: fn(usize, u64) -> Trace,
}

impl WorkloadSpec {
    /// Generates a trace of at least `ops × ops_scale` micro-ops with the
    /// given seed.
    pub fn generate(&self, ops: usize, seed: u64) -> Trace {
        (self.generate)(ops * self.ops_scale, seed)
    }
}

impl fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WorkloadSpec({} [{}])", self.name, self.category)
    }
}

/// All workloads in the suite, grouped by category.
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        // ISPEC
        spec_scaled("mcf_like", Category::Ispec, 3, gen_mcf),
        spec("astar_like", Category::Ispec, gen_astar),
        spec("xalanc_like", Category::Ispec, gen_xalanc),
        spec("gobmk_like", Category::Ispec, gen_gobmk),
        spec("hmmer_like", Category::Ispec, gen_hmmer),
        spec("omnetpp_like", Category::Ispec, gen_omnetpp),
        // FSPEC
        spec("lbm_like", Category::Fspec, gen_lbm),
        spec("milc_like", Category::Fspec, gen_milc),
        spec_scaled("gems_like", Category::Fspec, 2, gen_gems),
        spec("povray_like", Category::Fspec, gen_povray),
        spec("soplex_like", Category::Fspec, gen_soplex),
        spec("namd_like", Category::Fspec, gen_namd),
        // HPC
        spec("linpack_like", Category::Hpc, gen_linpack),
        spec_scaled("stencil_like", Category::Hpc, 2, gen_stencil),
        spec("spmv_like", Category::Hpc, gen_spmv),
        spec("bio_like", Category::Hpc, gen_bio),
        spec("fft_like", Category::Hpc, gen_fft),
        spec("kmeans_like", Category::Hpc, gen_kmeans),
        // SERVER
        spec("tpcc_like", Category::Server, gen_tpcc),
        spec("specjbb_like", Category::Server, gen_specjbb),
        spec("oracle_like", Category::Server, gen_oracle),
        spec("hadoop_like", Category::Server, gen_hadoop),
        spec("specpower_like", Category::Server, gen_specpower),
        // CLIENT
        spec("sysmark_like", Category::Client, gen_sysmark),
        spec("facedet_like", Category::Client, gen_facedet),
        spec("h264_like", Category::Client, gen_h264),
        spec("excel_like", Category::Client, gen_excel),
        spec("browser_like", Category::Client, gen_browser),
    ]
}

/// Looks a workload up by name.
///
/// # Errors
///
/// Returns [`WorkloadsError`] when no workload has that name.
pub fn by_name(name: &str) -> Result<WorkloadSpec, WorkloadsError> {
    all()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| WorkloadsError {
            name: name.to_string(),
        })
}

fn spec(name: &'static str, category: Category, generate: fn(usize, u64) -> Trace) -> WorkloadSpec {
    WorkloadSpec {
        name,
        category,
        ops_scale: 1,
        generate,
    }
}

fn spec_scaled(
    name: &'static str,
    category: Category,
    ops_scale: usize,
    generate: fn(usize, u64) -> Trace,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        category,
        ops_scale,
        generate,
    }
}

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

/// Ops a generator emits past its requested length: the rest of the loop
/// iteration or code block that crosses it, and its closing branch. At
/// most 82 across the suite at seed 42; `traces_meet_requested_length`
/// checks.
const OVERSHOOT: usize = 256;

/// A builder sized for a trace of `ops` requested micro-ops, so that the
/// generator fills one buffer at its final size.
fn builder(name: &'static str, category: Category, ops: usize) -> TraceBuilder {
    let mut b = TraceBuilder::with_capacity(name, ops + OVERSHOOT);
    b.category(category);
    b
}

/// Builds a single-loop trace whose body is emitted by `body` (which must
/// emit the same op-class sequence every iteration, so PCs repeat).
fn build_loop(
    name: &'static str,
    category: Category,
    ops: usize,
    mut body: impl FnMut(&mut TraceBuilder, usize),
) -> Trace {
    let mut b = builder(name, category, ops);
    let top = b.label();
    let mut iter = 0;
    loop {
        b.jump_to(top);
        body(&mut b, iter);
        let more = b.len() < ops;
        b.backedge(top, more);
        iter += 1;
        if !more {
            break;
        }
    }
    b.build()
}

/// Builds a block-dispatched trace with a large code footprint: a
/// dispatcher indirect-jumps into one of `block_count` code blocks spread
/// over `code_bytes`, each block running `body` (same structure per
/// block).
fn build_blocks(
    name: &'static str,
    category: Category,
    ops: usize,
    block_count: usize,
    code_bytes: u64,
    rng: &mut SplitMix64,
    mut body: impl FnMut(&mut TraceBuilder, usize),
) -> Trace {
    let mut b = builder(name, category, ops);
    let dispatcher = Pc::new(0x10_0000);
    let blocks = code_blocks(Pc::new(0x40_0000), block_count, code_bytes);
    let span = (code_bytes / block_count.max(1) as u64).max(256);
    // Real server code mixes a hot core (L1I-resident) with a long cold
    // tail; each block's body spreads over a few spaced code lines.
    let hops = (span / 512).clamp(1, 4);
    let hot_blocks = blocks.len().div_ceil(8).max(1);
    loop {
        let block_idx = if rng.gen_bool(0.92) {
            rng.gen_range(0..hot_blocks)
        } else {
            rng.gen_range(0..blocks.len())
        };
        let block = blocks[block_idx];
        b.set_pc(dispatcher);
        b.indirect_jump(block, &[r(0)]);
        b.set_pc(block);
        body(&mut b, block_idx);
        for h in 1..=hops {
            let chunk = Pc::new(block.get() + h * (span / (hops + 1)));
            b.jump(chunk);
            b.set_pc(chunk);
            for reg in [8u8, 9, 8, 9, 8, 9] {
                b.alu(r(reg), &[r(reg)]);
            }
        }
        let more = b.len() < ops;
        // Return to the dispatcher (direct, well-predicted).
        b.jump(dispatcher);
        if !more {
            break;
        }
    }
    b.build()
}

// --------------------------------------------------------------------
// ISPEC
// --------------------------------------------------------------------

/// mcf-like: strided index array feeding a gather over an 8 MB region
/// (LLC/memory resident). The gather result feeds a short chain and a
/// data-dependent branch. Feeder-recoverable.
fn gen_mcf(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x1CF);
    let idx = Region::new(0, 512 << 10);
    let data = Region::new(1, 8 << 20);
    // mcf's network-simplex loop is big (~dozens of instructions per arc)
    // with a strided index feeding gathers over a memory-resident arc
    // array. The large body limits how many iterations the 224-entry ROB
    // can hold, so memory-level parallelism is ROB-bound in the baseline —
    // exactly what the Feeder prefetcher (running ahead of the window via
    // the strided trigger) buys back.
    let mut gather = IndexedGather::with_count(idx, data, 12288, &mut rng);
    let mut nodes = Stream::new(Region::new(2, 256 << 10), 64);
    let mut locals = Locals::new(7);
    build_loop("mcf_like", Category::Ispec, ops, move |b, _| {
        for _ in 0..2 {
            gather.emit(b, r(1), r(2));
            locals.emit_chain(b, r(2), r(10), 2);
            b.alu(r(3), &[r(10), r(3)]);
            emit_branch(b, &mut rng, r(3), 0.95);
            nodes.emit(b, r(6), 1);
        }
        emit_int_work(b, &[r(4), r(5)], 14);
    })
}

/// astar-like: serial pointer chase sized for the L2 (384 KB) with two
/// fields per node (Cross-recoverable) and a branch on the node data.
fn gen_astar(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xA57A);
    let heap = Region::new(0, 384 << 10);
    let mut ring = PtrRing::new(heap, 768, &mut rng);
    let mut ring2 = PtrRing::new(Region::new(3, 192 << 10), 768, &mut rng);
    let open_idx = Region::new(1, 64 << 10);
    let open_list = Region::new(2, 256 << 10);
    let mut gather = IndexedGather::with_count(open_idx, open_list, 3072, &mut rng);
    let mut locals = Locals::new(7);
    build_loop("astar_like", Category::Ispec, ops, move |b, _| {
        // One chase hop; the node address register carries the chain.
        let (addr, next) = {
            let (a, n) = ring_next(&mut ring);
            (a, n)
        };
        b.load_dep(r(1), addr, next, &[r(1)]);
        let (addr2, next2) = ring2.advance();
        b.load_dep(r(9), addr2, next2, &[r(9)]);
        // Header field first (the Cross trigger)...
        emit_struct_fields(b, r(1), addr, &[r(2)], &[8]);
        locals.emit_chain(b, r(2), r(10), 2);
        b.alu(r(4), &[r(10)]);
        emit_branch(b, &mut rng, r(4), 0.95);
        // Independent open-list scoring alongside the chase.
        gather.emit(b, r(5), r(6));
        emit_int_work(b, &[r(6), r(7)], 10);
        // ...and the payload field (next line of the node) only at the
        // end of the iteration: Cross prefetches it off the header.
        emit_struct_fields(b, r(1), addr, &[r(3)], &[72]);
        b.alu(r(4), &[r(4), r(3)]);
    })
}

fn ring_next(ring: &mut PtrRing) -> (catch_trace::Addr, u64) {
    ring.advance()
}

/// xalancbmk-like: gather over a 768 KB DOM-like structure (L2 resident)
/// with field walks and branches. Feeder + Cross recoverable.
fn gen_xalanc(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xA1A);
    let idx = Region::new(0, 256 << 10);
    let data = Region::new(1, 768 << 10);
    let mut gather = IndexedGather::with_count(idx, data, 6144, &mut rng);
    let mut scratch = Stream::new(Region::new(2, 64 << 10), 64);
    let mut locals = Locals::new(7);
    build_loop("xalanc_like", Category::Ispec, ops, move |b, _| {
        let node = gather.emit(b, r(1), r(2));
        locals.emit_chain(b, r(2), r(10), 1);
        b.alu(r(3), &[r(10)]);
        emit_branch(b, &mut rng, r(3), 0.95);
        gather.emit(b, r(1), r(4));
        b.alu(r(5), &[r(4), r(3)]);
        // Most branches resolve from register state, not cache misses.
        emit_branch(b, &mut rng, r(7), 0.95);
        scratch.emit(b, r(6), 1);
        emit_int_work(b, &[r(7), r(8)], 10);
        // Node payload on the next line, read late: the gather (trigger)
        // leads this field (target) by most of the iteration — the Cross
        // prefetcher's bread and butter.
        b.load_dep(r(12), node.offset(72), 0, &[r(2)]);
        b.alu(r(5), &[r(5), r(12)]);
    })
}

/// gobmk-like: branch-heavy with a medium gather (256 KB) and moderate
/// code footprint.
fn gen_gobmk(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x60B);
    let idx = Region::new(0, 128 << 10);
    let data = Region::new(1, 256 << 10);
    let mut gather = IndexedGather::with_count(idx, data, 3072, &mut rng);
    let mut locals = Locals::new(7);
    let mut blocks_rng = SplitMix64::seed_from_u64(seed ^ 0xB10C);
    build_blocks(
        "gobmk_like",
        Category::Ispec,
        ops,
        16,
        32 << 10,
        &mut blocks_rng,
        move |b, _| {
            gather.emit(b, r(1), r(2));
            locals.emit_chain(b, r(2), r(10), 2);
            b.alu(r(3), &[r(10)]);
            emit_branch(b, &mut rng, r(3), 0.93);
            gather.emit(b, r(1), r(4));
            gather.emit(b, r(1), r(5));
            b.alu(r(6), &[r(4), r(5)]);
            emit_int_work(b, &[r(6), r(7)], 10);
            emit_branch(b, &mut rng, r(6), 0.91);
        },
    )
}

// --------------------------------------------------------------------
// FSPEC
// --------------------------------------------------------------------

/// lbm-like: three large streams (4 MB each) with stores and light FP.
/// Bandwidth-bound; the baseline stream prefetcher covers it.
fn gen_lbm(ops: usize, seed: u64) -> Trace {
    let _ = seed;
    let mut s1 = Stream::new(Region::new(0, 4 << 20), 64);
    let mut s2 = Stream::new(Region::new(1, 4 << 20), 64);
    let mut out = Stream::new(Region::new(2, 4 << 20), 64);
    build_loop("lbm_like", Category::Fspec, ops, move |b, _| {
        s1.emit(b, r(16), 2);
        s2.emit(b, r(17), 2);
        b.fadd(r(18), &[r(16), r(17)]);
        b.fmul(r(19), &[r(18), r(18)]);
        out.emit_store(b, r(19));
        emit_int_work(b, &[r(4)], 2);
    })
}

/// milc-like: strided (2-line stride) loads over 2 MB feeding FP chains
/// and a data-dependent branch. Deep-Self recoverable LLC hits.
fn gen_milc(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x311C);
    let mut field = Stream::new(Region::new(0, 1 << 20), 128);
    build_loop("milc_like", Category::Fspec, ops, move |b, _| {
        field.emit(b, r(16), 1);
        emit_fp_chain(b, r(20), r(16), 4);
        field.emit(b, r(17), 1);
        emit_fp_chain(b, r(21), r(17), 4);
        emit_branch(b, &mut rng, r(20), 0.96);
    })
}

/// gemsFDTD-like: two L2-resident strided field sweeps (640 KB each) with
/// FP update chains. Deep-Self recoverable L2 hits.
fn gen_gems(ops: usize, seed: u64) -> Trace {
    let _ = seed;
    let mut e_field = Stream::new(Region::new(0, 640 << 10), 64);
    let mut h_field = Stream::new(Region::new(1, 640 << 10), 64);
    let mut out = Stream::new(Region::new(2, 640 << 10), 64);
    build_loop("gems_like", Category::Fspec, ops, move |b, _| {
        e_field.emit(b, r(16), 1);
        h_field.emit(b, r(17), 1);
        b.fadd(r(18), &[r(16), r(17)]);
        b.fmul(r(19), &[r(18), r(16)]);
        b.fadd(r(20), &[r(19), r(20)]);
        out.emit_store(b, r(20));
    })
}

/// povray-like: a large unrolled body with many distinct load PCs over a
/// 512 KB scene — more critical PCs than the 32-entry table can hold.
fn gen_povray(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x90F);
    let scene = Region::new(0, 512 << 10);
    // 48 distinct gather sites, each its own PC in the unrolled body.
    let sites: Vec<Vec<u64>> = (0..48)
        .map(|_| (0..256).map(|_| scene.rand_line(&mut rng).get()).collect())
        .collect();
    let mut cursor = 0usize;
    build_loop("povray_like", Category::Fspec, ops, move |b, _| {
        cursor += 1;
        for site in &sites {
            let addr = catch_trace::Addr::new(site[cursor % site.len()]);
            b.load(r(16), addr, 0);
            b.fadd(r(20), &[r(20), r(16)]);
        }
        emit_branch(b, &mut rng, r(20), 0.95);
    })
}

// --------------------------------------------------------------------
// HPC
// --------------------------------------------------------------------

/// linpack-like: blocked GEMM over cache-resident tiles (48 KB) with high
/// FP ILP. Cache-friendly; little for CATCH to do.
fn gen_linpack(ops: usize, seed: u64) -> Trace {
    let _ = seed;
    // Tiles blocked for the L1, as tuned BLAS kernels are.
    let mut a = Stream::new(Region::new(0, 8 << 10), 64);
    let mut bm = Stream::new(Region::new(1, 8 << 10), 64);
    let mut c = Stream::new(Region::new(2, 8 << 10), 64);
    build_loop("linpack_like", Category::Hpc, ops, move |b, _| {
        a.emit(b, r(16), 2);
        bm.emit(b, r(17), 2);
        b.fmul(r(18), &[r(16), r(17)]);
        b.fadd(r(19), &[r(19), r(18)]);
        b.fmul(r(20), &[r(16), r(17)]);
        b.fadd(r(21), &[r(21), r(20)]);
        c.emit(b, r(22), 1);
    })
}

/// stencil-like: three offset sweeps over a 1.5 MB grid with FP chains
/// and occasional branches. Deep-Self/stream recoverable LLC hits.
fn gen_stencil(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x57E);
    let grid = Region::new(0, 1536 << 10);
    let mut north = Stream::new(grid, 64);
    let mut center = Stream::new(Region::new(1, 1536 << 10), 64);
    let mut south = Stream::new(Region::new(2, 1536 << 10), 64);
    build_loop("stencil_like", Category::Hpc, ops, move |b, _| {
        north.emit(b, r(16), 1);
        center.emit(b, r(17), 1);
        south.emit(b, r(18), 1);
        b.fadd(r(19), &[r(16), r(17)]);
        b.fadd(r(20), &[r(19), r(18)]);
        b.fmul(r(21), &[r(20), r(20)]);
        emit_branch(b, &mut rng, r(21), 0.97);
    })
}

/// spmv-like: column-index gather over a 1.5 MB vector with an FP
/// accumulation chain. Feeder-recoverable LLC hits.
fn gen_spmv(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x59A);
    let cols = Region::new(0, 256 << 10);
    let vec = Region::new(1, 1536 << 10);
    let mut gather = IndexedGather::with_count(cols, vec, 6144, &mut rng);
    let mut vals = Stream::new(Region::new(2, 512 << 10), 64);
    let mut locals = Locals::new(7);
    build_loop("spmv_like", Category::Hpc, ops, move |b, _| {
        gather.emit(b, r(1), r(16));
        locals.emit_chain(b, r(16), r(10), 1);
        vals.emit(b, r(17), 1);
        b.fmul(r(18), &[r(10), r(17)]);
        b.fadd(r(19), &[r(19), r(18)]);
        gather.emit(b, r(1), r(20));
        b.fmul(r(21), &[r(20), r(17)]);
        b.fadd(r(19), &[r(19), r(21)]);
    })
}

/// bioinformatics-like: sequential scan of a 1 MB sequence with a small
/// score-table gather and well-biased branches.
fn gen_bio(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xB10);
    let mut sequence = Stream::new(Region::new(0, 1 << 20), 64);
    let table = Region::new(1, 128 << 10);
    let idx = Region::new(2, 64 << 10);
    let mut gather = IndexedGather::with_count(idx, table, 2048, &mut rng);
    let mut locals = Locals::new(7);
    build_loop("bio_like", Category::Hpc, ops, move |b, _| {
        sequence.emit(b, r(1), 2);
        gather.emit(b, r(2), r(3));
        locals.emit_chain(b, r(3), r(10), 1);
        b.alu(r(4), &[r(10), r(1)]);
        emit_branch(b, &mut rng, r(4), 0.95);
        emit_int_work(b, &[r(5), r(6)], 8);
    })
}

// --------------------------------------------------------------------
// SERVER (large code footprints)
// --------------------------------------------------------------------

/// tpcc-like: 384 KB of code across 96 blocks; hash-style gathers over a
/// 2 MB buffer pool with field walks and branches.
fn gen_tpcc(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x79CC);
    let idx = Region::new(0, 256 << 10);
    let pool = Region::new(1, 2 << 20);
    let mut gather = IndexedGather::with_count(idx, pool, 4096, &mut rng);
    let mut locals = Locals::new(7);
    let mut blocks_rng = SplitMix64::seed_from_u64(seed ^ 0xD15);
    build_blocks(
        "tpcc_like",
        Category::Server,
        ops,
        96,
        384 << 10,
        &mut blocks_rng,
        move |b, _| {
            gather.emit(b, r(1), r(2));
            locals.emit_chain(b, r(2), r(10), 1);
            b.alu(r(3), &[r(10)]);
            emit_branch(b, &mut rng, r(3), 0.95);
            gather.emit(b, r(1), r(4));
            b.alu(r(5), &[r(4), r(3)]);
            emit_int_work(b, &[r(5), r(6)], 12);
        },
    )
}

/// specjbb-like: 256 KB of code; object-graph chase over 512 KB with
/// field loads.
fn gen_specjbb(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5B);
    let heap = Region::new(0, 512 << 10);
    let mut ring = PtrRing::new(heap, 1024, &mut rng);
    let mut ring2 = PtrRing::new(Region::new(3, 256 << 10), 1024, &mut rng);
    let mut locals = Locals::new(7);
    let mut blocks_rng = SplitMix64::seed_from_u64(seed ^ 0xD16);
    build_blocks(
        "specjbb_like",
        Category::Server,
        ops,
        96,
        384 << 10,
        &mut blocks_rng,
        move |b, _| {
            let (addr, next) = ring.advance();
            b.load_dep(r(1), addr, next, &[r(1)]);
            emit_struct_fields(b, r(1), addr, &[r(2)], &[16]);
            locals.emit_chain(b, r(2), r(10), 1);
            b.alu(r(4), &[r(10)]);
            emit_branch(b, &mut rng, r(4), 0.95);
            let (addr2, next2) = ring2.advance();
            b.load_dep(r(9), addr2, next2, &[r(9)]);
            emit_struct_fields(b, r(9), addr2, &[r(5)], &[16]);
            b.alu(r(6), &[r(5)]);
            emit_int_work(b, &[r(6), r(7)], 12);
            // Payload field read late (Cross-covered off the header).
            emit_struct_fields(b, r(1), addr, &[r(3)], &[80]);
            b.alu(r(6), &[r(6), r(3)]);
        },
    )
}

/// oracle-like: 512 KB of code across 128 blocks; B-tree-style descent
/// (gather) over 4 MB plus field walks.
fn gen_oracle(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0AC1E);
    let idx = Region::new(0, 256 << 10);
    let tree = Region::new(1, 4 << 20);
    let mut gather = IndexedGather::with_count(idx, tree, 6144, &mut rng);
    let mut locals = Locals::new(7);
    let mut blocks_rng = SplitMix64::seed_from_u64(seed ^ 0xD17);
    build_blocks(
        "oracle_like",
        Category::Server,
        ops,
        128,
        512 << 10,
        &mut blocks_rng,
        move |b, _| {
            let node = gather.emit(b, r(1), r(2));
            locals.emit_chain(b, r(2), r(10), 1);
            b.alu(r(3), &[r(10)]);
            emit_branch(b, &mut rng, r(3), 0.95);
            gather.emit(b, r(1), r(4));
            b.alu(r(5), &[r(4), r(3)]);
            emit_int_work(b, &[r(6), r(7)], 12);
            // Row payload on the B-tree node's next line, read late.
            b.load_dep(r(12), node.offset(72), 0, &[r(2)]);
            b.alu(r(5), &[r(5), r(12)]);
        },
    )
}

/// hadoop-like: 192 KB of code; record streaming (2 MB) with a dictionary
/// gather (256 KB).
fn gen_hadoop(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x4AD0);
    let mut records = Stream::new(Region::new(0, 2 << 20), 64);
    let idx = Region::new(1, 64 << 10);
    let dict = Region::new(2, 256 << 10);
    let mut gather = IndexedGather::with_count(idx, dict, 4096, &mut rng);
    let mut locals = Locals::new(7);
    let mut blocks_rng = SplitMix64::seed_from_u64(seed ^ 0xD18);
    build_blocks(
        "hadoop_like",
        Category::Server,
        ops,
        96,
        384 << 10,
        &mut blocks_rng,
        move |b, _| {
            records.emit(b, r(1), 2);
            gather.emit(b, r(2), r(3));
            locals.emit_chain(b, r(3), r(10), 1);
            b.alu(r(4), &[r(10), r(1)]);
            emit_branch(b, &mut rng, r(4), 0.95);
            emit_int_work(b, &[r(5), r(6)], 12);
        },
    )
}

// --------------------------------------------------------------------
// CLIENT
// --------------------------------------------------------------------

/// sysmark-like: a mixed kernel — small chase (128 KB), medium stream
/// (512 KB), branches and integer work.
fn gen_sysmark(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5135);
    let heap = Region::new(0, 128 << 10);
    let mut ring = PtrRing::new(heap, 1024, &mut rng);
    let mut data = Stream::new(Region::new(1, 512 << 10), 64);
    let mut locals = Locals::new(7);
    build_loop("sysmark_like", Category::Client, ops, move |b, _| {
        // A list walk overlapped with an independent serial computation
        // (the L1-resident locals chain), as mixed client code does: the
        // chase's L2/LLC latency is only partially exposed.
        let (addr, next) = ring.advance();
        b.load_dep(r(1), addr, next, &[r(1)]);
        data.emit(b, r(2), 2);
        locals.emit_chain(b, r(10), r(10), 7);
        b.alu(r(3), &[r(1), r(2), r(10)]);
        emit_branch(b, &mut rng, r(3), 0.95);
        emit_int_work(b, &[r(4), r(5)], 6);
    })
}

/// face-detection-like: windowed strided loads (stride 320 B) over 1 MB
/// with an FP classifier chain. Deep-Self recoverable.
fn gen_facedet(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xFACE);
    let mut window = Stream::new(Region::new(0, 1 << 20), 320);
    build_loop("facedet_like", Category::Client, ops, move |b, _| {
        window.emit(b, r(16), 2);
        emit_fp_chain(b, r(20), r(16), 3);
        window.emit(b, r(17), 1);
        b.fadd(r(21), &[r(20), r(17)]);
        emit_branch(b, &mut rng, r(21), 0.95);
    })
}

/// h264-like: motion-search block loads (256 KB) with a reference gather
/// (128 KB) and prediction branches.
fn gen_h264(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x264);
    let mut blocks = Stream::new(Region::new(0, 256 << 10), 64);
    let idx = Region::new(1, 64 << 10);
    let refs = Region::new(2, 128 << 10);
    let mut gather = IndexedGather::with_count(idx, refs, 2048, &mut rng);
    let mut locals = Locals::new(7);
    build_loop("h264_like", Category::Client, ops, move |b, _| {
        blocks.emit(b, r(1), 2);
        gather.emit(b, r(2), r(3));
        locals.emit_chain(b, r(3), r(10), 2);
        b.alu(r(4), &[r(10), r(1)]);
        emit_branch(b, &mut rng, r(4), 0.95);
        emit_int_work(b, &[r(5)], 8);
    })
}

/// excel-like: cell-table gather over 384 KB with dependence chains and
/// well-biased branches.
fn gen_excel(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xCE11);
    let idx = Region::new(0, 128 << 10);
    let cells = Region::new(1, 384 << 10);
    let mut gather = IndexedGather::with_count(idx, cells, 4096, &mut rng);
    let mut locals = Locals::new(7);
    build_loop("excel_like", Category::Client, ops, move |b, _| {
        gather.emit(b, r(1), r(2));
        locals.emit_chain(b, r(2), r(10), 2);
        b.alu(r(3), &[r(10), r(3)]);
        b.alu(r(4), &[r(3)]);
        emit_branch(b, &mut rng, r(4), 0.95);
        gather.emit(b, r(1), r(5));
        locals.emit_chain(b, r(5), r(11), 1);
        b.alu(r(6), &[r(11), r(3)]);
        emit_int_work(b, &[r(7)], 8);
    })
}

// --------------------------------------------------------------------
// Additional workloads (suite extension towards the paper's 70)
// --------------------------------------------------------------------

/// hmmer-like: dynamic-programming sweep — three strided rows of a DP
/// table (L2-resident) feeding a short dependent chain and a score
/// branch. The paper's hmmer loses ~40% without the L2 and is largely
/// recovered by Deep-Self.
fn gen_hmmer(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x433E);
    let mut row_m = Stream::new(Region::new(0, 256 << 10), 64);
    let mut row_i = Stream::new(Region::new(1, 256 << 10), 64);
    let mut row_d = Stream::new(Region::new(2, 256 << 10), 64);
    let mut locals = Locals::new(7);
    build_loop("hmmer_like", Category::Ispec, ops, move |b, _| {
        row_m.emit(b, r(1), 1);
        row_i.emit(b, r(2), 1);
        row_d.emit(b, r(3), 1);
        // max() chain over the three table rows.
        b.alu(r(4), &[r(1), r(2)]);
        b.alu(r(4), &[r(4), r(3)]);
        locals.emit_chain(b, r(4), r(10), 1);
        emit_branch(b, &mut rng, r(10), 0.95);
        emit_int_work(b, &[r(5), r(6)], 4);
    })
}

/// omnetpp-like: discrete-event simulation — a heap-ordered event queue
/// (pointer chase through an L2-resident ring) plus a gather into module
/// state. Chase-bound; only partially recoverable.
fn gen_omnetpp(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x03E7);
    let heap = Region::new(0, 256 << 10);
    let mut events = PtrRing::new(heap, 1024, &mut rng);
    let idx = Region::new(1, 64 << 10);
    let modules = Region::new(2, 512 << 10);
    let mut gather = IndexedGather::with_count(idx, modules, 4096, &mut rng);
    let mut locals = Locals::new(7);
    build_loop("omnetpp_like", Category::Ispec, ops, move |b, _| {
        let (addr, next) = events.advance();
        b.load_dep(r(1), addr, next, &[r(1)]);
        emit_struct_fields(b, r(1), addr, &[r(2)], &[8]);
        gather.emit(b, r(3), r(4));
        locals.emit_chain(b, r(4), r(10), 1);
        b.alu(r(5), &[r(2), r(10)]);
        emit_branch(b, &mut rng, r(5), 0.95);
        emit_int_work(b, &[r(6), r(7)], 8);
    })
}

/// soplex-like: simplex pivoting — sparse column gathers (Feeder) over a
/// 1 MB basis with FP update chains.
fn gen_soplex(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x50F1);
    let cols = Region::new(0, 128 << 10);
    let basis = Region::new(1, 1 << 20);
    let mut gather = IndexedGather::with_count(cols, basis, 8192, &mut rng);
    let mut locals = Locals::new(7);
    build_loop("soplex_like", Category::Fspec, ops, move |b, _| {
        gather.emit(b, r(1), r(16));
        locals.emit_chain(b, r(16), r(10), 1);
        b.fmul(r(18), &[r(16), r(18)]);
        b.fadd(r(19), &[r(19), r(18)]);
        emit_branch(b, &mut rng, r(10), 0.95);
        gather.emit(b, r(1), r(17));
        b.fadd(r(20), &[r(20), r(17)]);
        emit_int_work(b, &[r(5)], 4);
    })
}

/// namd-like: molecular dynamics — pairlist pointer chase with FP force
/// chains; the paper calls namd out as *not* amenable to prefetching
/// (CATCH gains limited).
fn gen_namd(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x9A3D);
    let pairs = Region::new(0, 320 << 10);
    let mut ring = PtrRing::new(pairs, 2048, &mut rng);
    build_loop("namd_like", Category::Fspec, ops, move |b, _| {
        // The pairlist walk overlaps with the force computation: an
        // independent serial FP chain (carried across iterations) hides
        // much of the chase latency, as namd's arithmetic density does.
        let (addr, next) = ring.advance();
        b.load_dep(r(1), addr, next, &[r(1)]);
        emit_struct_fields(b, r(1), addr, &[r(16)], &[8]);
        emit_fp_chain(b, r(20), r(20), 6);
        b.fadd(r(21), &[r(20), r(16)]);
        emit_branch(b, &mut rng, r(21), 0.97);
        emit_int_work(b, &[r(5), r(6)], 6);
    })
}

/// FFT-like: bit-reversed butterfly access — two strided streams at a
/// large power-of-two distance with FP twiddle chains; L2/LLC-resident.
fn gen_fft(ops: usize, seed: u64) -> Trace {
    let _ = seed;
    let region = Region::new(0, 1 << 20);
    let mut even = Stream::new(region, 128);
    let mut odd = Stream::new(Region::new(1, 1 << 20), 128);
    let mut out = Stream::new(Region::new(2, 1 << 20), 64);
    build_loop("fft_like", Category::Hpc, ops, move |b, _| {
        even.emit(b, r(16), 1);
        odd.emit(b, r(17), 1);
        b.fmul(r(18), &[r(17), r(21)]); // twiddle multiply
        b.fadd(r(19), &[r(16), r(18)]);
        b.fadd(r(20), &[r(16), r(18)]);
        out.emit_store(b, r(19));
        emit_int_work(b, &[r(5)], 2);
    })
}

/// kmeans-like: clustering — streaming points (LLC-resident), a small
/// centroid table gathered per point (L1/L2), FP distance chains and an
/// assignment branch.
fn gen_kmeans(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x63EA);
    let mut points = Stream::new(Region::new(0, 2 << 20), 64);
    let idx = Region::new(1, 16 << 10);
    let centroids = Region::new(2, 64 << 10);
    let mut gather = IndexedGather::with_count(idx, centroids, 1024, &mut rng);
    build_loop("kmeans_like", Category::Hpc, ops, move |b, _| {
        points.emit(b, r(16), 2);
        gather.emit(b, r(1), r(17));
        b.fadd(r(18), &[r(16), r(17)]);
        b.fmul(r(19), &[r(18), r(18)]);
        b.fadd(r(20), &[r(20), r(19)]);
        emit_branch(b, &mut rng, r(20), 0.95);
        emit_int_work(b, &[r(5)], 3);
    })
}

/// specpower-like: server-side Java — moderate code footprint, object
/// gathers and allocation-like streaming stores.
fn gen_specpower(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x50E6);
    let idx = Region::new(0, 64 << 10);
    let heap = Region::new(1, 1 << 20);
    let mut gather = IndexedGather::with_count(idx, heap, 6144, &mut rng);
    let mut alloc = Stream::new(Region::new(2, 512 << 10), 64);
    let mut locals = Locals::new(7);
    let mut blocks_rng = SplitMix64::seed_from_u64(seed ^ 0xD19);
    build_blocks(
        "specpower_like",
        Category::Server,
        ops,
        80,
        320 << 10,
        &mut blocks_rng,
        move |b, _| {
            gather.emit(b, r(1), r(2));
            locals.emit_chain(b, r(2), r(10), 1);
            b.alu(r(3), &[r(10)]);
            emit_branch(b, &mut rng, r(3), 0.95);
            alloc.emit_store(b, r(3));
            emit_int_work(b, &[r(4), r(5)], 10);
        },
    )
}

/// browser-like: DOM/JS mix — small chases, gathers, stores and branchy
/// dispatch over a moderate code footprint.
fn gen_browser(ops: usize, seed: u64) -> Trace {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xB30);
    let dom = Region::new(0, 192 << 10);
    let mut ring = PtrRing::new(dom, 1024, &mut rng);
    let idx = Region::new(1, 64 << 10);
    let props = Region::new(2, 256 << 10);
    let mut gather = IndexedGather::with_count(idx, props, 3072, &mut rng);
    let mut locals = Locals::new(7);
    let mut blocks_rng = SplitMix64::seed_from_u64(seed ^ 0xD20);
    build_blocks(
        "browser_like",
        Category::Client,
        ops,
        32,
        128 << 10,
        &mut blocks_rng,
        move |b, _| {
            let (addr, next) = ring.advance();
            b.load_dep(r(1), addr, next, &[r(1)]);
            gather.emit(b, r(2), r(3));
            locals.emit_chain(b, r(3), r(10), 1);
            b.alu(r(4), &[r(10), r(1)]);
            emit_branch(b, &mut rng, r(4), 0.94);
            emit_int_work(b, &[r(5), r(6)], 2);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_workloads_across_all_categories() {
        let specs = all();
        assert_eq!(specs.len(), 28);
        for cat in Category::ALL {
            let n = specs.iter().filter(|s| s.category == cat).count();
            assert!(n >= 5, "category {cat} must have at least 5 workloads");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28);
    }

    #[test]
    fn by_name_finds_and_rejects() {
        assert_eq!(by_name("mcf_like").unwrap().name, "mcf_like");
        assert!(by_name("nonexistent").is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = by_name("xalanc_like").unwrap();
        let a = spec.generate(5_000, 42);
        let b = spec.generate(5_000, 42);
        assert_eq!(a.ops().len(), b.ops().len());
        assert_eq!(a.ops()[100], b.ops()[100]);
        let c = spec.generate(5_000, 43);
        assert_ne!(
            a.ops()
                .iter()
                .filter_map(|o| o.mem.map(|m| m.addr))
                .collect::<Vec<_>>(),
            c.ops()
                .iter()
                .filter_map(|o| o.mem.map(|m| m.addr))
                .collect::<Vec<_>>(),
            "different seeds give different address streams"
        );
    }

    #[test]
    fn traces_meet_requested_length() {
        for spec in all() {
            let t = spec.generate(8_000, 1);
            let want = 8_000 * spec.ops_scale;
            assert!(t.len() >= want, "{} too short: {}", spec.name, t.len());
            assert!(
                t.len() <= want + OVERSHOOT,
                "{} overshoots its reservation: {} (want ~{})",
                spec.name,
                t.len(),
                want
            );
        }
    }

    #[test]
    fn loop_workloads_reuse_pcs() {
        let t = by_name("milc_like").unwrap().generate(5_000, 1);
        let stats = t.stats();
        // Small loop: code footprint well under the 32 KB L1I.
        assert!(stats.code_footprint_bytes() < 4 << 10);
    }

    #[test]
    fn server_workloads_have_large_code_footprints() {
        // The hot/cold block mix needs a longer window to tour the cold
        // tail (cold blocks are only ~8% of dispatches).
        for name in ["tpcc_like", "specjbb_like", "oracle_like", "hadoop_like"] {
            let t = by_name(name).unwrap().generate(200_000, 1);
            let code = t.stats().code_footprint_bytes();
            assert!(
                code > 32 << 10,
                "{name} code footprint {code} must exceed the 32 KB L1I"
            );
        }
    }

    #[test]
    fn footprints_match_design_targets() {
        // mcf-like: data footprint far beyond the L2 (first-touch gathers
        // dominate, so it behaves memory-bound in a short window).
        let mcf = by_name("mcf_like").unwrap().generate(150_000, 1);
        assert!(mcf.stats().data_footprint_bytes() > 1 << 20);
        // linpack-like: tile fits comfortably in the L2.
        let lp = by_name("linpack_like").unwrap().generate(50_000, 1);
        assert!(lp.stats().data_footprint_bytes() < 256 << 10);
        // astar-like: chase sized for the L2.
        let astar = by_name("astar_like").unwrap().generate(100_000, 1);
        let fp = astar.stats().data_footprint_bytes();
        assert!(
            (128 << 10..1 << 20).contains(&(fp as usize)),
            "astar footprint {fp}"
        );
    }

    #[test]
    fn every_workload_has_loads_and_branches() {
        for spec in all() {
            let t = spec.generate(10_000, 2);
            let s = t.stats();
            // Server workloads are front-end bound with dilute load mixes;
            // everything else is load-richer.
            let floor = if spec.category == Category::Server {
                0.05
            } else {
                0.1
            };
            assert!(
                s.load_fraction() > floor,
                "{} load fraction {}",
                spec.name,
                s.load_fraction()
            );
            assert!(s.branches > 0, "{} has no branches", spec.name);
        }
    }
}
