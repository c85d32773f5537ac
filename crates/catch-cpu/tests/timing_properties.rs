//! Timing properties of the out-of-order core model.
//!
//! Properties run on the in-repo deterministic case driver
//! ([`catch_trace::rng::Cases`]); a failing case prints the seed that
//! reproduces it.

use catch_cache::{CacheHierarchy, FixedLatencyBackend, HierarchyConfig, Level};
use catch_cpu::{run_lockstep, Core, CoreConfig};
use catch_trace::rng::{Cases, SplitMix64};
use catch_trace::{Addr, ArchReg, TraceBuilder};

fn hier() -> CacheHierarchy {
    CacheHierarchy::new(
        &HierarchyConfig::skylake_server(1),
        Box::new(FixedLatencyBackend::new(200)),
    )
}

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

#[derive(Clone, Debug)]
enum GenOp {
    Alu { dst: u8, src: u8 },
    Load { dst: u8, line: u64 },
    Store { line: u64, src: u8 },
    Branch { taken: bool, src: u8 },
}

fn gen_op(rng: &mut SplitMix64) -> GenOp {
    match rng.gen_range(0u64..4) {
        0 => GenOp::Alu {
            dst: rng.gen_range(1u64..8) as u8,
            src: rng.gen_range(1u64..8) as u8,
        },
        1 => GenOp::Load {
            dst: rng.gen_range(1u64..8) as u8,
            line: rng.gen_range(0u64..256),
        },
        2 => GenOp::Store {
            line: rng.gen_range(0u64..256),
            src: rng.gen_range(1u64..8) as u8,
        },
        _ => GenOp::Branch {
            taken: rng.gen_bool(0.5),
            src: rng.gen_range(1u64..8) as u8,
        },
    }
}

fn gen_ops(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<GenOp> {
    let n = rng.gen_range(min..max);
    (0..n).map(|_| gen_op(rng)).collect()
}

fn build(ops: &[GenOp]) -> catch_trace::Trace {
    let mut b = TraceBuilder::new("prop");
    for op in ops {
        match *op {
            GenOp::Alu { dst, src } => {
                b.alu(r(dst), &[r(src)]);
            }
            GenOp::Load { dst, line } => {
                b.load(r(dst), Addr::new(line * 64), line);
            }
            GenOp::Store { line, src } => {
                b.store(Addr::new(line * 64), &[r(src)]);
            }
            GenOp::Branch { taken, src } => {
                let t = b.cursor().advance(8);
                b.cond_branch(taken, t, &[r(src)]);
            }
        }
    }
    b.build()
}

/// IPC never exceeds the machine width, every op retires, and cycle
/// counts are deterministic.
#[test]
fn ipc_bounded_and_all_retire() {
    Cases::new(48).run(|rng| {
        let ops = gen_ops(rng, 1, 300);
        let trace = build(&ops);
        let expect = trace.len() as u64;
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = Core::new(0, trace, config);
        let stats = core.run_to_completion(&mut hier());
        assert_eq!(stats.instructions, expect);
        assert!(
            stats.ipc() <= 4.0 + 1e-9,
            "IPC {} beyond width",
            stats.ipc()
        );
        assert!(stats.cycles > 0);
    });
}

/// Monotonicity: making the L1 slower never speeds the program up.
#[test]
fn l1_latency_is_monotone() {
    Cases::new(48).run(|rng| {
        let ops = gen_ops(rng, 20, 200);
        let trace = build(&ops);
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        config.baseline_prefetchers = false;
        let cycles_at = |extra: u64| {
            let mut h = hier();
            h.add_level_latency(Level::L1, extra);
            let mut core = Core::new(0, trace.clone(), config.clone());
            core.run_to_completion(&mut h).cycles
        };
        let fast = cycles_at(0);
        let slow = cycles_at(10);
        // Greedy age-ordered scheduling is subject to (Graham-style)
        // anomalies, so strict monotonicity does not hold cycle-for-cycle;
        // allow a small scheduling-slack tolerance.
        let slack = fast / 20 + 16;
        assert!(
            slow + slack >= fast,
            "slower L1 gave materially fewer cycles: {slow} < {fast}"
        );
    });
}

/// Appending a suffix never makes the whole program finish sooner
/// than the prefix alone (inserting ops *within* a program can change
/// branch-predictor aliasing, so only suffix extension is monotone).
#[test]
fn suffix_extension_is_monotone() {
    Cases::new(48).run(|rng| {
        let ops = gen_ops(rng, 10, 100);
        let prefix = build(&ops);
        let doubled: Vec<GenOp> = ops.iter().chain(ops.iter()).cloned().collect();
        let extended = build(&doubled);
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let run = |t: catch_trace::Trace| {
            let mut core = Core::new(0, t, config.clone());
            core.run_to_completion(&mut hier()).cycles
        };
        let short = run(prefix);
        let long = run(extended);
        assert!(
            long >= short,
            "longer trace finished sooner: {long} < {short}"
        );
    });
}

/// The ROB caps memory-level parallelism: a window of independent loads
/// completes in far fewer cycles than their serial latency sum.
#[test]
fn independent_loads_overlap() {
    let mut b = TraceBuilder::new("mlp");
    for i in 0..64u64 {
        b.load(r(1), Addr::new(i * 4096), 0); // distinct pages, all miss
    }
    let mut config = CoreConfig::baseline();
    config.perfect_l1i = true;
    config.baseline_prefetchers = false;
    let mut core = Core::new(0, b.build(), config);
    let stats = core.run_to_completion(&mut hier());
    // 64 serial misses would be ≥ 64 × 240 cycles; MLP must slash that.
    assert!(
        stats.cycles < 64 * 240 / 4,
        "no overlap: {} cycles",
        stats.cycles
    );
}

/// Dependent loads cannot overlap: a pointer chase takes at least the sum
/// of its miss latencies.
#[test]
fn dependent_loads_serialise() {
    let mut b = TraceBuilder::new("serial");
    let mut addr = 0u64;
    for _ in 0..32 {
        let next = (addr + 7919) % 100_000;
        b.load_dep(r(1), Addr::new(addr * 64), next, &[r(1)]);
        addr = next;
    }
    let mut config = CoreConfig::baseline();
    config.perfect_l1i = true;
    config.baseline_prefetchers = false;
    let mut core = Core::new(0, b.build(), config);
    let stats = core.run_to_completion(&mut hier());
    assert!(
        stats.cycles >= 32 * 240,
        "chase overlapped impossibly: {} cycles",
        stats.cycles
    );
}

/// A run split at op `k` (the boundary a warm-up or a sampled interval
/// ends on) is the same run: stopping `run_lockstep` after the tick that
/// retires past `k` and resuming with `run_to_completion` matches one
/// uninterrupted run in every statistic, with the skip on and off.
#[test]
fn split_run_equals_unsplit_run() {
    Cases::new(48).run(|rng| {
        let ops = gen_ops(rng, 20, 300);
        let trace = build(&ops);
        let k = rng.gen_range(1..trace.len());
        let mut config = if rng.gen_bool(0.5) {
            CoreConfig::catch()
        } else {
            CoreConfig::baseline()
        };
        for skip_ahead in [false, true] {
            config.skip_ahead = skip_ahead;
            let whole = Core::new(0, trace.clone(), config.clone()).run_to_completion(&mut hier());

            let mut h = hier();
            let mut core = Core::new(0, trace.clone(), config.clone());
            run_lockstep(std::slice::from_mut(&mut core), &mut h, k);
            let retired = core.retired() as usize;
            assert!(
                (k..k + config.retire_width).contains(&retired),
                "stopped at {retired} for split point {k}"
            );
            let split = core.run_to_completion(&mut h);
            assert_eq!(split, whole, "split at {k} (skip_ahead {skip_ahead})");
        }
    });
}
