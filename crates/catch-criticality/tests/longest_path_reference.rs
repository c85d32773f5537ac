//! Gold-model check: the hardware's *incremental* longest-path
//! computation must agree with a brute-force dynamic-programming pass
//! over the same dependence graph, for arbitrary random instruction
//! windows — including windows that overflow the buffer, are walked and
//! flushed, and wrap around the ring the graph stores them in.
//!
//! Properties run on the in-repo deterministic case driver
//! ([`catch_trace::rng::Cases`]); a failing case prints the seed that
//! reproduces it.

use catch_cache::Level;
use catch_criticality::{DdgGraph, DetectorConfig, NodeKind, PathStep, RetiredInst};
use catch_trace::rng::{Cases, SplitMix64};
use catch_trace::Pc;

/// A compact random instruction for graph generation.
#[derive(Clone, Debug)]
struct GenInst {
    latency: u64,
    /// Producer offsets (1 = previous instruction), 0 = none.
    dep1: u64,
    dep2: u64,
    /// Hit level when the instruction is a load.
    load: Option<Level>,
    mispredict: bool,
}

impl GenInst {
    /// Window-local producer indices of instruction `i`, in the order the
    /// hardware relaxes them.
    fn producers(&self, i: usize) -> impl Iterator<Item = usize> {
        [self.dep1, self.dep2]
            .into_iter()
            .filter(move |&dep| dep != 0 && dep as usize <= i)
            .map(move |dep| i - dep as usize)
    }

    /// The retired form of instruction `seq` (a global sequence number).
    fn retired(&self, seq: u64) -> RetiredInst {
        let producers: Vec<u64> = [self.dep1, self.dep2]
            .into_iter()
            .filter(|&dep| dep != 0 && dep <= seq)
            .map(|dep| seq - dep)
            .collect();
        let mut ri = RetiredInst::new(pc(seq), self.latency).with_producers(&producers);
        if let Some(level) = self.load {
            ri = ri.as_load(level);
        }
        if self.mispredict {
            ri = ri.as_mispredicted_branch();
        }
        ri
    }
}

fn pc(seq: u64) -> Pc {
    Pc::new(0x1000 + seq * 4)
}

fn config(rob: usize) -> DetectorConfig {
    DetectorConfig {
        rob_size: rob,
        quantize_shift: 0,
        rename_latency: 1,
        redirect_penalty: 10,
        ..DetectorConfig::paper()
    }
}

/// Brute-force reference: compute D/E/C node costs with a full DP over
/// the entire window using the same edge rules as the hardware model.
fn reference_costs(insts: &[GenInst], cfg: &DetectorConfig) -> Vec<(u64, u64, u64)> {
    let n = insts.len();
    let mut costs = vec![(0u64, 0u64, 0u64); n];
    // Quantized latency.
    let lat: Vec<u64> = insts.iter().map(|i| cfg.quantize(i.latency)).collect();
    for i in 0..n {
        let mut d = 0u64;
        if i > 0 {
            d = d.max(costs[i - 1].0); // D-D
        }
        if i >= cfg.rob_size {
            d = d.max(costs[i - cfg.rob_size].2); // C-D
        }
        if i > 0 && insts[i - 1].mispredict {
            d = d.max(costs[i - 1].1 + lat[i - 1] + cfg.redirect_penalty); // E-D
        }
        let mut e = d + cfg.rename_latency; // D-E
        for p in insts[i].producers(i) {
            e = e.max(costs[p].1 + lat[p]); // E-E
        }
        let mut c = e + lat[i]; // E-C
        if i > 0 {
            c = c.max(costs[i - 1].2); // C-C
        }
        costs[i] = (d, e, c);
    }
    costs
}

/// Reference walk over the DP: from the youngest C node, step to the
/// incoming edge that attains each node's cost — the first in the
/// hardware's relaxation order when several tie — and record the E nodes
/// of loads. `front` is the window's first sequence number.
fn reference_walk(
    insts: &[GenInst],
    costs: &[(u64, u64, u64)],
    cfg: &DetectorConfig,
    front: u64,
) -> (Vec<PathStep>, Vec<(Pc, Level)>) {
    let lat: Vec<u64> = insts.iter().map(|i| cfg.quantize(i.latency)).collect();
    let mut steps = Vec::new();
    let mut loads = Vec::new();
    let Some(mut i) = insts.len().checked_sub(1) else {
        return (steps, loads);
    };
    let mut kind = NodeKind::Commit;
    loop {
        steps.push(PathStep {
            seq: front + i as u64,
            kind,
        });
        let (d, e, c) = costs[i];
        match kind {
            NodeKind::Commit => {
                if c == e + lat[i] {
                    kind = NodeKind::Execute;
                } else {
                    i -= 1; // C-C
                }
            }
            NodeKind::Execute => {
                if let Some(level) = insts[i].load {
                    loads.push((pc(front + i as u64), level));
                }
                let from = (e > d + cfg.rename_latency)
                    .then(|| insts[i].producers(i).find(|&p| costs[p].1 + lat[p] == e))
                    .flatten();
                match from {
                    Some(p) => i = p,
                    None => kind = NodeKind::Dispatch,
                }
            }
            NodeKind::Dispatch => {
                let prev_d = (i > 0).then(|| costs[i - 1].0);
                let depth = (i >= cfg.rob_size).then(|| costs[i - cfg.rob_size].2);
                let bad_spec = (i > 0 && insts[i - 1].mispredict)
                    .then(|| costs[i - 1].1 + lat[i - 1] + cfg.redirect_penalty);
                if d == 0 {
                    break; // window start
                } else if prev_d == Some(d) {
                    i -= 1;
                } else if depth == Some(d) {
                    i -= cfg.rob_size;
                    kind = NodeKind::Commit;
                } else {
                    assert_eq!(bad_spec, Some(d), "D cost has no source");
                    i -= 1;
                    kind = NodeKind::Execute;
                }
            }
        }
    }
    (steps, loads)
}

fn gen_inst(rng: &mut SplitMix64, max_latency: u64) -> GenInst {
    let levels = [Level::L1, Level::L2, Level::Llc, Level::Memory];
    GenInst {
        latency: rng.gen_range(1u64..max_latency),
        dep1: rng.gen_range(0u64..4),
        dep2: rng.gen_range(0u64..8),
        load: rng
            .gen_bool(0.5)
            .then(|| levels[rng.gen_range(0usize..levels.len())]),
        mispredict: rng.gen_bool(0.1),
    }
}

fn gen_insts(rng: &mut SplitMix64, min: usize, max: usize) -> Vec<GenInst> {
    let n = rng.gen_range(min..max);
    (0..n).map(|_| gen_inst(rng, 31)).collect()
}

/// Checks the buffered window (`insts`, starting at sequence `front`)
/// against the reference: every E cost, the instructions just outside
/// the window, and the whole walk — steps and critical loads.
fn check_window(graph: &DdgGraph, insts: &[GenInst], front: u64, cfg: &DetectorConfig) {
    assert_eq!(graph.len(), insts.len(), "window length");
    let reference = reference_costs(insts, cfg);
    for (i, &(_, e_ref, _)) in reference.iter().enumerate() {
        let seq = front + i as u64;
        let node = graph.node(seq).expect("buffered");
        assert_eq!(node.pc, pc(seq), "slot {seq} holds a stale node");
        assert_eq!(node.e_cost(), e_ref, "E cost mismatch at instruction {seq}");
    }
    assert!(front == 0 || graph.node(front - 1).is_none());
    assert!(graph.node(front + insts.len() as u64).is_none());

    let (ref_steps, ref_loads) = reference_walk(insts, &reference, cfg, front);
    let mut steps = Vec::new();
    let mut loads = Vec::new();
    graph.walk_critical_path(|step, load| {
        steps.push(step);
        loads.extend(load);
    });
    assert_eq!(steps, ref_steps, "walk steps (window from {front})");
    assert_eq!(loads, ref_loads, "critical loads (window from {front})");
}

#[test]
fn incremental_costs_match_brute_force() {
    Cases::new(128).run(|rng| {
        let insts = gen_insts(rng, 2, 40);
        let rob = rng.gen_range(16usize..48);
        let cfg = config(rob);
        // Stay within the buffer so nothing is discarded mid-test.
        if insts.len() > cfg.buffer_capacity() {
            return;
        }
        let mut graph = DdgGraph::new(cfg.clone());
        for (i, inst) in insts.iter().enumerate() {
            graph.push(inst.retired(i as u64));
        }

        let reference = reference_costs(&insts, &cfg);
        // E-node costs must match exactly for every instruction.
        for (i, &(_, e_ref, _)) in reference.iter().enumerate() {
            let node = graph.node(i as u64).expect("buffered");
            assert_eq!(
                node.e_cost(),
                e_ref,
                "E cost mismatch at instruction {i} (rob {rob})"
            );
        }
    });
}

/// The enumerated critical path must (a) start at the youngest C node,
/// (b) only step to nodes with non-increasing cost, and (c) contain
/// every load the graph reports as critical.
#[test]
fn walk_is_consistent() {
    Cases::new(128).run(|rng| {
        let insts = gen_insts(rng, 2, 100);
        let cfg = config(64); // buffer capacity 160 > max window here
        let mut graph = DdgGraph::new(cfg);
        for (i, inst) in insts.iter().enumerate() {
            let mut ri = RetiredInst::new(pc(i as u64), inst.latency);
            if inst.dep1 != 0 && inst.dep1 as usize <= i {
                ri = ri.with_producers(&[(i - inst.dep1 as usize) as u64]);
            }
            if inst.load.is_some() {
                ri = ri.as_load(Level::Llc);
            }
            graph.push(ri);
        }
        let mut path = Vec::new();
        let mut critical = Vec::new();
        graph.walk_critical_path(|step, load| {
            path.push(step);
            critical.extend(load);
        });
        assert!(!path.is_empty());
        assert_eq!(path[0].seq, insts.len() as u64 - 1);
        assert_eq!(path[0].kind, NodeKind::Commit);
        // Sequence numbers never increase along the backward walk by more
        // than the window (sanity) and the path ends at the window start
        // or a D node.
        for w in path.windows(2) {
            assert!(w[1].seq <= w[0].seq);
        }
        // Critical loads are E-nodes of loads on the path.
        for (pc, _) in critical {
            let on_path = path.iter().any(|s| {
                s.kind == NodeKind::Execute && graph.node(s.seq).map(|n| n.pc) == Some(pc)
            });
            assert!(on_path, "critical load {pc} not on walked path");
        }
    });
}

/// Long streams with the detector's walk-and-flush cadence interleaved
/// with overflows: windows start anywhere in the ring and wrap past its
/// end. Every window is checked against the reference right before it
/// is discarded (by a flush or an overflow), and sometimes mid-way.
#[test]
fn wrapping_windows_match_the_reference_walk() {
    Cases::new(48).run(|rng| {
        let rob = rng.gen_range(4usize..24);
        let cfg = DetectorConfig {
            quantize_shift: [0, 3][rng.gen_range(0usize..2)],
            ..config(rob)
        };
        let capacity = cfg.buffer_capacity();
        let walk_probability = [0.0, 0.3, 0.9][rng.gen_range(0usize..3)];
        let mut graph = DdgGraph::new(cfg.clone());
        let mut window: Vec<GenInst> = Vec::new();
        let mut front = 0u64;
        let mut overflows = 0u64;
        let mut walks = 0u64;
        for seq in 0..(capacity as u64 * 12) {
            if graph.len() == capacity {
                check_window(&graph, &window, front, &cfg);
                window.clear();
                front = seq;
                overflows += 1;
            }
            let inst = gen_inst(rng, 300);
            assert_eq!(graph.push(inst.retired(seq)), seq);
            window.push(inst);
            if graph.ready_to_walk() && rng.gen_bool(walk_probability) {
                check_window(&graph, &window, front, &cfg);
                graph.flush();
                window.clear();
                front = seq + 1;
                walks += 1;
            } else if rng.gen_bool(0.05) {
                check_window(&graph, &window, front, &cfg);
            }
        }
        check_window(&graph, &window, front, &cfg);
        assert_eq!(graph.overflows(), overflows);
        assert!(walks + overflows >= 8, "the ring wrapped too rarely");
    });
}
