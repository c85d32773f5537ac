//! Trace identity and the binary trace format, pinned by committed files:
//! what the generators emit must not move, and a trace file an earlier
//! build wrote must still read and re-write to the same bytes.
//!
//! * `golden/trace_digests.txt` — one digest per suite generator at a
//!   small scale and seed 42, over every op's decoded fields (pc, class,
//!   registers, memory address and size, load value, branch record).
//! * `golden/trace_v1.ctrc` — a few thousand ops from two generators,
//!   written by `Trace::write_to` before micro-ops were compacted.
//!
//! It also checks that every generator's buffer holds exactly its ops
//! (`Trace::heap_bytes`), the memory a call's leased traces hold.
//!
//! Both were blessed by running this file against the commit before the
//! compaction. To re-bless after an intended generator or format change:
//!
//! ```sh
//! CATCH_BLESS=1 cargo test -p catch-tests --test trace_compat
//! git status crates/catch-tests/tests/golden/
//! ```

use catch_trace::hash::FxHasher;
use catch_trace::{BranchInfo, Category, MicroOp, Trace, TraceIoError};
use catch_workloads::suite;
use std::hash::Hasher;

const DIGESTS_PATH: &str = "tests/golden/trace_digests.txt";
const TRACE_PATH: &str = "tests/golden/trace_v1.ctrc";

/// Small scale for the digests: every generator runs its loop body many
/// times, and the suite stays well under a second.
const DIGEST_OPS: usize = 4_000;
const SEED: u64 = 42;

/// Ops each of the two generators contributes to the committed file.
const FILE_OPS_EACH: usize = 1_000;

fn blessing() -> bool {
    std::env::var_os("CATCH_BLESS").is_some()
}

/// The fields an op carries besides its public ones: load value, branch
/// record and access size.
fn decoded(op: &MicroOp) -> (u64, Option<BranchInfo>, Option<u8>) {
    (op.load_value(), op.branch(), op.mem.map(|m| m.size()))
}

fn digest(trace: &Trace) -> u64 {
    let mut h = FxHasher::default();
    h.write(trace.name().as_bytes());
    h.write(trace.category().label().as_bytes());
    h.write_usize(trace.len());
    let reg = |r: Option<catch_trace::ArchReg>| r.map_or(0xFF, |r| r.index() as u8);
    for op in trace.ops() {
        let (value, branch, size) = decoded(op);
        h.write_u64(op.pc.get());
        h.write(op.class.to_string().as_bytes());
        for src in op.srcs {
            h.write_u8(reg(src));
        }
        h.write_u8(reg(op.dst));
        match op.mem {
            Some(mem) => {
                h.write_u64(mem.addr.get());
                h.write_u8(size.unwrap_or(0));
            }
            None => h.write_u8(0xFF),
        }
        h.write_u64(value);
        match branch {
            Some(b) => {
                h.write_u64(b.target.get());
                h.write(format!("{:?}", b.kind).as_bytes());
                h.write_u8(u8::from(b.taken));
            }
            None => h.write_u8(0xFF),
        }
    }
    h.finish()
}

#[test]
fn every_generator_emits_the_committed_ops() {
    let mut actual = String::new();
    for spec in suite::all() {
        let trace = spec.generate(DIGEST_OPS, SEED);
        actual += &format!("{} {} {:016x}\n", spec.name, trace.len(), digest(&trace));
    }
    if blessing() {
        std::fs::write(DIGESTS_PATH, &actual).expect("write the digest snapshot");
        eprintln!("blessed {DIGESTS_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(DIGESTS_PATH).expect("committed digests");
    assert_eq!(actual.lines().count(), 28, "the suite has 28 generators");
    for (a, g) in actual.lines().zip(golden.lines()) {
        assert_eq!(
            a, g,
            "a generator's output moved; re-bless with CATCH_BLESS=1 if that is intended"
        );
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}

/// A trace's buffer is exactly its ops, with none of the builder's
/// doubling slack: these are the bytes a call's leased traces hold.
#[test]
fn every_generator_returns_an_exact_capacity_buffer() {
    for ops in [2_000, 80_000] {
        for spec in suite::all() {
            let trace = spec.generate(ops, SEED);
            assert_eq!(
                trace.heap_bytes(),
                trace.len() * std::mem::size_of::<MicroOp>(),
                "{} at {ops} ops",
                spec.name
            );
        }
    }
}

/// `FILE_OPS_EACH` ops of a pointer-chasing gather and of a server
/// workload: loads with values, stores, and all three branch kinds.
fn file_source() -> Trace {
    let mut ops = Vec::new();
    for name in ["mcf_like", "tpcc_like"] {
        let trace = suite::by_name(name)
            .expect("known workload")
            .generate(FILE_OPS_EACH, SEED);
        ops.extend_from_slice(&trace.ops()[..FILE_OPS_EACH]);
    }
    Trace::from_parts("golden_mix", Category::Server, ops)
}

fn write(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("writing to a Vec");
    bytes
}

#[test]
fn the_committed_trace_file_reads_and_rewrites_byte_for_byte() {
    if blessing() {
        std::fs::write(TRACE_PATH, write(&file_source())).expect("write the trace file");
        eprintln!("blessed {TRACE_PATH}");
        return;
    }
    let golden = std::fs::read(TRACE_PATH).expect("committed trace file");
    let trace = Trace::read_from(&mut golden.as_slice()).expect("the committed file reads");
    assert_eq!(trace.len(), 2 * FILE_OPS_EACH);
    assert_eq!(
        trace.ops(),
        file_source().ops(),
        "the file holds the generators' ops"
    );
    assert!(write(&trace) == golden, "re-writing changed the bytes");

    for cut in 0..golden.len() {
        let err = Trace::read_from(&mut &golden[..cut]);
        assert!(err.is_err(), "a file cut at byte {cut} read as a trace");
    }
}

/// A one-op trace of `op`, as bytes, and the offset of its flags byte.
fn one_op_file(op: MicroOp) -> (Vec<u8>, usize) {
    let bytes = write(&Trace::from_parts("x", Category::Client, vec![op]));
    // magic 4, version 2, category 1, name len 2 + "x", count 8, pc 8, class 1.
    (bytes, 4 + 2 + 1 + 2 + 1 + 8 + 8 + 1)
}

fn corrupt(bytes: &[u8]) -> &'static str {
    match Trace::read_from(&mut &bytes[..]) {
        Err(TraceIoError::Corrupt(what)) => what,
        other => panic!("expected a corrupt-record error, got {other:?}"),
    }
}

#[test]
fn records_the_compact_op_cannot_hold_are_corrupt() {
    use catch_trace::{Addr, ArchReg, BranchKind, OpClass, Pc};
    let pc = Pc::new(0x40);
    let r1 = ArchReg::new(1);
    let load = MicroOp::load(pc, r1, Addr::new(0x1000), 7, &[]);
    let (bytes, flags_at) = one_op_file(load);
    let size_at = flags_at + 1 + 4 + 8;
    for size in [0u8, 65, 255] {
        let mut b = bytes.clone();
        b[size_at] = size;
        assert_eq!(corrupt(&b), "access size", "size {size}");
    }

    // A load value on a store (class byte rewritten, record kept).
    let mut b = bytes.clone();
    b[flags_at - 1] = 6;
    assert_eq!(corrupt(&b), "load value on a non-load");

    // A memory record on an ALU op.
    let alu = MicroOp::compute(pc, OpClass::Alu, Some(r1), &[]);
    let (mut b, flags_at) = one_op_file(alu);
    b[flags_at] |= 1;
    b.extend_from_slice(&[0; 9]);
    assert_eq!(corrupt(&b), "memory record on a non-memory op");

    // A branch record on an ALU op, and a branch with none.
    let (mut b, flags_at) = one_op_file(alu);
    b[flags_at] |= 4;
    b.extend_from_slice(&[0; 10]);
    assert_eq!(corrupt(&b), "branch record on a non-branch");
    let info = BranchInfo {
        taken: true,
        target: Pc::new(0x80),
        kind: BranchKind::Direct,
    };
    let (mut b, flags_at) = one_op_file(MicroOp::new_branch(pc, info, &[]));
    b[flags_at] &= !4;
    b.truncate(b.len() - 10);
    assert_eq!(corrupt(&b), "branch without a branch record");

    // A taken byte other than 0 or 1 would not survive a re-write.
    let (mut b, _) = one_op_file(MicroOp::new_branch(pc, info, &[]));
    let last = b.len() - 1;
    b[last] = 2;
    assert_eq!(corrupt(&b), "branch taken flag");
}
