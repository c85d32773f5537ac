//! The buffered data-dependence graph and its incremental critical path.

use crate::config::DetectorConfig;
use catch_cache::Level;
use catch_trace::Pc;

/// A retired instruction as observed by the criticality hardware.
///
/// Producers are identified by *retirement sequence numbers* (a monotonic
/// counter maintained by the core); the graph ignores producers that have
/// already left the buffered window.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetiredInst {
    /// Program counter.
    pub pc: Pc,
    /// True for loads.
    pub is_load: bool,
    /// Where a load hit (None for non-loads).
    pub hit_level: Option<Level>,
    /// Dispatch-to-writeback latency in cycles.
    pub exec_latency: u64,
    /// Sequence numbers of register producers.
    pub src_producers: [Option<u64>; 3],
    /// Sequence number of a forwarding store, if any.
    pub mem_producer: Option<u64>,
    /// True if this is a branch that was mispredicted (adds an E→D edge to
    /// the next instruction).
    pub mispredicted_branch: bool,
}

impl RetiredInst {
    /// Creates a plain instruction with the given execution latency.
    pub fn new(pc: Pc, exec_latency: u64) -> Self {
        RetiredInst {
            pc,
            is_load: false,
            hit_level: None,
            exec_latency,
            src_producers: [None; 3],
            mem_producer: None,
            mispredicted_branch: false,
        }
    }

    /// Shorthand for a compute op depending on up to three producers.
    pub fn compute(pc: Pc, exec_latency: u64, producers: &[u64]) -> Self {
        RetiredInst::new(pc, exec_latency).with_producers(producers)
    }

    /// Sets register producers (at most 3).
    pub fn with_producers(mut self, producers: &[u64]) -> Self {
        assert!(producers.len() <= 3, "at most 3 register producers");
        for (slot, &p) in self.src_producers.iter_mut().zip(producers) {
            *slot = Some(p);
        }
        self
    }

    /// Sets a store-forwarding producer.
    pub fn with_mem_producer(mut self, seq: u64) -> Self {
        self.mem_producer = Some(seq);
        self
    }

    /// Marks this instruction as a load that hit at `level`.
    pub fn as_load(mut self, level: Level) -> Self {
        self.is_load = true;
        self.hit_level = Some(level);
        self
    }

    /// Marks this instruction as a mispredicted branch.
    pub fn as_mispredicted_branch(mut self) -> Self {
        self.mispredicted_branch = true;
        self
    }
}

/// Which of the three Fields nodes a path step refers to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// D: allocation into the OOO.
    Dispatch,
    /// E: dispatch to the execution units.
    Execute,
    /// C: writeback.
    Commit,
}

/// One step of the enumerated critical path.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PathStep {
    /// Retirement sequence number of the instruction.
    pub seq: u64,
    /// Node within the instruction.
    pub kind: NodeKind,
}

/// How a D node obtained its longest distance.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
enum DFrom {
    #[default]
    Start,
    PrevD,
    BadSpec(u64),
    Depth(u64),
}

/// One instruction's nodes, costs and prev-node pointers.
#[derive(Copy, Clone, Debug, Default)]
pub struct GraphNode {
    /// PC of the instruction (hardware stores a hashed PC; we keep the full
    /// PC and account the hashed width in the area model).
    pub pc: Pc,
    /// True for loads.
    pub is_load: bool,
    /// Load hit level.
    pub hit_level: Option<Level>,
    lat: u64,
    d_cost: u64,
    e_cost: u64,
    c_cost: u64,
    d_from: DFrom,
    /// E reached through this producer's E node (else through own D).
    e_from_producer: Option<u64>,
    /// C reached from own E (else from previous C).
    c_from_e: bool,
}

impl GraphNode {
    /// Longest distance of the E node from the window start.
    pub fn e_cost(&self) -> u64 {
        self.e_cost
    }

    /// Quantized execution latency used for edge weights.
    pub fn latency(&self) -> u64 {
        self.lat
    }
}

/// The buffered DDG with incremental longest-path computation.
///
/// Mirrors the hardware: a circular buffer of `2.5 × ROB` instruction
/// entries; each insertion relaxes only the new instruction's incoming
/// edges; a walk over the prev-node pointers enumerates the critical path
/// of the buffered window.
///
/// The buffer is a ring allocated once: instruction `seq` lives in slot
/// `seq mod 2^k` (the smallest power of two holding the capacity), and
/// the window is the sequence range `[front, next_seq)`. Discarding the
/// window moves `front` and touches no node, so neither insertion nor a
/// walk allocates.
///
/// # Worked example (paper Figure 6)
///
/// The paper walks through six instructions — `R0 = [R1]` (a 20-cycle
/// load), `CMP R0,8`, `JLE`, an independent `R3 = [R4]`, `R5 = [R0]`,
/// and `R0 = R5 + R3` — showing how each insertion relaxes only its
/// incoming edges. With exact (unquantised) latencies and zero rename
/// latency the same incremental node costs fall out here:
///
/// ```
/// use catch_cache::Level;
/// use catch_criticality::{DdgGraph, DetectorConfig, RetiredInst};
/// use catch_trace::Pc;
///
/// let config = DetectorConfig {
///     quantize_shift: 0,
///     rename_latency: 0,
///     ..DetectorConfig::paper()
/// };
/// let mut g = DdgGraph::new(config);
/// let pc = |n: u64| Pc::new(0x400 + n * 4);
///
/// let i1 = g.push(RetiredInst::new(pc(1), 20).as_load(Level::L2)); // R0 = [R1]
/// let i2 = g.push(RetiredInst::compute(pc(2), 4, &[i1]));          // CMP R0, 8
/// let i3 = g.push(RetiredInst::compute(pc(3), 4, &[i2]));          // JLE
/// let i4 = g.push(RetiredInst::new(pc(4), 10).as_load(Level::L2)); // R3 = [R4]
/// let i5 = g.push(RetiredInst::compute(pc(5), 10, &[i1]).as_load(Level::L2)); // R5 = [R0]
/// let i6 = g.push(RetiredInst::compute(pc(6), 4, &[i4, i5]));      // R0 = R5 + R3
///
/// // E-node costs: the dependent chain through the 20-cycle load wins.
/// assert_eq!(g.node(i2).unwrap().e_cost(), 20); // waits for R0
/// assert_eq!(g.node(i4).unwrap().e_cost(), 0);  // independent load
/// assert_eq!(g.node(i5).unwrap().e_cost(), 20); // also waits for R0
/// assert_eq!(g.node(i6).unwrap().e_cost(), 30); // R5 arrives at 30
///
/// // Only the loads on the critical path are reported: the chain head
/// // (i1) and the dependent load (i5) — not the independent i4.
/// let mut critical = Vec::new();
/// g.walk_critical_path(|_, load| critical.extend(load.map(|(pc, _)| pc)));
/// assert!(critical.contains(&pc(1)));
/// assert!(critical.contains(&pc(5)));
/// assert!(!critical.contains(&pc(4)));
/// # let _ = i3;
/// ```
#[derive(Debug)]
pub struct DdgGraph {
    config: DetectorConfig,
    /// Ring storage, `capacity.next_power_of_two()` slots.
    nodes: Vec<GraphNode>,
    /// `nodes.len() - 1`: maps a sequence number to its slot.
    mask: u64,
    capacity: usize,
    walk_threshold: usize,
    /// Sequence number of the oldest buffered instruction.
    front: u64,
    next_seq: u64,
    /// Set when the previously inserted instruction was a mispredicted
    /// branch (its E→D edge applies to the next insertion).
    pending_bad_spec: Option<u64>,
    overflows: u64,
}

impl DdgGraph {
    /// Creates an empty graph with its whole buffer allocated.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < walk_threshold() <= buffer_capacity()`: a window
    /// larger than the buffer overflows before it is ever walked, so the
    /// detector would silently report nothing.
    pub fn new(config: DetectorConfig) -> Self {
        let capacity = config.buffer_capacity();
        let walk_threshold = config.walk_threshold();
        assert!(
            0 < walk_threshold && walk_threshold <= capacity,
            "detector walk window ({walk_threshold} instructions) must be non-empty \
             and fit its graph buffer ({capacity} instructions)"
        );
        let slots = capacity.next_power_of_two();
        DdgGraph {
            config,
            nodes: vec![GraphNode::default(); slots],
            mask: slots as u64 - 1,
            capacity,
            walk_threshold,
            front: 0,
            next_seq: 0,
            pending_bad_spec: None,
            overflows: 0,
        }
    }

    /// Number of buffered instructions.
    pub fn len(&self) -> usize {
        (self.next_seq - self.front) as usize
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.next_seq == self.front
    }

    /// Times the buffer overflowed and was discarded.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// True once enough instructions are buffered to walk.
    pub fn ready_to_walk(&self) -> bool {
        self.len() >= self.walk_threshold
    }

    /// Sequence number the next insertion will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    #[inline]
    fn get(&self, seq: u64) -> Option<&GraphNode> {
        // One comparison covers both ends: below `front` wraps to a huge
        // offset.
        (seq.wrapping_sub(self.front) < self.next_seq - self.front)
            .then(|| &self.nodes[(seq & self.mask) as usize])
    }

    /// Inserts a retired instruction, relaxing its incoming edges.
    /// Returns the sequence number assigned.
    pub fn push(&mut self, inst: RetiredInst) -> u64 {
        if self.len() >= self.capacity {
            // Hardware discards and starts afresh on overflow.
            self.flush();
            self.overflows += 1;
        }
        let seq = self.next_seq;
        let lat = self.config.quantize(inst.exec_latency);
        // The youngest buffered instruction's D and C costs.
        let prev = self.get(seq.wrapping_sub(1)).map(|p| (p.d_cost, p.c_cost));

        // --- D node: D-D, C-D (depth) and E-D (bad speculation) edges.
        let mut d_cost = 0;
        let mut d_from = DFrom::Start;
        if let Some((prev_d, _)) = prev {
            // In-order allocation.
            if prev_d > d_cost {
                d_cost = prev_d;
                d_from = DFrom::PrevD;
            }
        }
        let rob = self.config.rob_size as u64;
        if seq >= rob {
            // Finite ROB: allocation waits for (seq - rob) to commit.
            if let Some(older) = self.get(seq - rob) {
                if older.c_cost > d_cost {
                    d_cost = older.c_cost;
                    d_from = DFrom::Depth(seq - rob);
                }
            }
        }
        if let Some(branch_seq) = self.pending_bad_spec.take() {
            if let Some(branch) = self.get(branch_seq) {
                let cost = branch.e_cost + branch.lat + self.config.redirect_penalty;
                if cost > d_cost {
                    d_cost = cost;
                    d_from = DFrom::BadSpec(branch_seq);
                }
            }
        }

        // --- E node: D-E (rename) and E-E (data/memory dependences).
        let mut e_cost = d_cost + self.config.rename_latency;
        let mut e_from_producer = None;
        for producer in inst
            .src_producers
            .iter()
            .chain(std::iter::once(&inst.mem_producer))
            .flatten()
        {
            if let Some(p) = self.get(*producer) {
                let cost = p.e_cost + p.lat;
                if cost > e_cost {
                    e_cost = cost;
                    e_from_producer = Some(*producer);
                }
            }
        }

        // --- C node: E-C (execution latency) and C-C (in-order commit).
        let mut c_cost = e_cost + lat;
        let mut c_from_e = true;
        if let Some((_, prev_c)) = prev {
            if prev_c > c_cost {
                c_cost = prev_c;
                c_from_e = false;
            }
        }

        if inst.mispredicted_branch {
            self.pending_bad_spec = Some(seq);
        }

        self.nodes[(seq & self.mask) as usize] = GraphNode {
            pc: inst.pc,
            is_load: inst.is_load,
            hit_level: inst.hit_level,
            lat,
            d_cost,
            e_cost,
            c_cost,
            d_from,
            e_from_producer,
            c_from_e,
        };
        self.next_seq += 1;
        seq
    }

    /// Walks the critical path backwards from the youngest C node and
    /// hands every step to `visit`, youngest first, together with the
    /// critical load the step records: `Some((pc, level))` for the E node
    /// of a buffered load with a hit level, the nodes the paper's table
    /// learns from. A step naming an instruction outside the window ends
    /// the walk but is still visited (with `None`), so a caller counting
    /// steps counts it. Nothing is allocated; an empty graph visits
    /// nothing.
    pub fn walk_critical_path(&self, mut visit: impl FnMut(PathStep, Option<(Pc, Level)>)) {
        if self.is_empty() {
            return;
        }
        let front = self.front;
        let mut cursor = PathStep {
            seq: self.next_seq - 1,
            kind: NodeKind::Commit,
        };
        // Bounded by 3 nodes per buffered instruction.
        let bound = self.len() * 3 + 3;
        for _ in 0..bound {
            let Some(node) = self.get(cursor.seq) else {
                visit(cursor, None);
                break;
            };
            let load = match (cursor.kind, node.is_load, node.hit_level) {
                (NodeKind::Execute, true, Some(level)) => Some((node.pc, level)),
                _ => None,
            };
            visit(cursor, load);
            let seq = cursor.seq;
            let next = match cursor.kind {
                NodeKind::Commit => {
                    if node.c_from_e {
                        Some(PathStep {
                            seq,
                            kind: NodeKind::Execute,
                        })
                    } else if seq > front {
                        Some(PathStep {
                            seq: seq - 1,
                            kind: NodeKind::Commit,
                        })
                    } else {
                        None
                    }
                }
                NodeKind::Execute => match node.e_from_producer {
                    Some(p) => Some(PathStep {
                        seq: p,
                        kind: NodeKind::Execute,
                    }),
                    None => Some(PathStep {
                        seq,
                        kind: NodeKind::Dispatch,
                    }),
                },
                NodeKind::Dispatch => match node.d_from {
                    DFrom::Start => None,
                    DFrom::PrevD => (seq > front).then(|| PathStep {
                        seq: seq - 1,
                        kind: NodeKind::Dispatch,
                    }),
                    DFrom::BadSpec(b) => Some(PathStep {
                        seq: b,
                        kind: NodeKind::Execute,
                    }),
                    DFrom::Depth(c) => Some(PathStep {
                        seq: c,
                        kind: NodeKind::Commit,
                    }),
                },
            };
            match next {
                Some(step) => cursor = step,
                None => break,
            }
        }
    }

    /// Looks up a buffered node by sequence number.
    pub fn node(&self, seq: u64) -> Option<&GraphNode> {
        self.get(seq)
    }

    /// Clears the buffer (the hardware resets its read pointer after a
    /// walk).
    pub fn flush(&mut self) {
        self.front = self.next_seq;
        self.pending_bad_spec = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DetectorConfig {
        DetectorConfig {
            rob_size: 8,
            quantize_shift: 0, // exact latencies for test readability
            rename_latency: 0,
            redirect_penalty: 10,
            ..DetectorConfig::paper()
        }
    }

    fn pc(n: u64) -> Pc {
        Pc::new(n * 4)
    }

    fn path(g: &DdgGraph) -> Vec<PathStep> {
        let mut steps = Vec::new();
        g.walk_critical_path(|step, _| steps.push(step));
        steps
    }

    fn critical_loads(g: &DdgGraph) -> Vec<(Pc, Level)> {
        let mut loads = Vec::new();
        g.walk_critical_path(|_, load| loads.extend(load));
        loads
    }

    #[test]
    fn dependence_chain_dominates_path() {
        let mut g = DdgGraph::new(config());
        // load (200 cycles, LLC miss-like) -> alu -> alu ; plus an
        // independent cheap alu that must not be critical.
        let s0 = g.push(RetiredInst::new(pc(0), 200).as_load(Level::Memory));
        let s1 = g.push(RetiredInst::compute(pc(1), 1, &[s0]));
        let _i = g.push(RetiredInst::new(pc(2), 1)); // independent
        let s3 = g.push(RetiredInst::compute(pc(3), 1, &[s1]));
        let on_path: Vec<u64> = path(&g)
            .iter()
            .filter(|s| s.kind == NodeKind::Execute)
            .map(|s| s.seq)
            .collect();
        assert!(on_path.contains(&s0));
        assert!(on_path.contains(&s1));
        assert!(on_path.contains(&s3));
        assert!(!on_path.contains(&2));
    }

    #[test]
    fn critical_loads_reports_pc_and_level() {
        let mut g = DdgGraph::new(config());
        let s0 = g.push(RetiredInst::new(pc(0), 40).as_load(Level::Llc));
        g.push(RetiredInst::compute(pc(1), 1, &[s0]));
        assert_eq!(critical_loads(&g), vec![(pc(0), Level::Llc)]);
    }

    #[test]
    fn short_chains_hidden_by_window_are_not_critical() {
        // Two parallel chains; the long one wins, the short one's loads are
        // not on the path.
        let mut g = DdgGraph::new(config());
        let a0 = g.push(RetiredInst::new(pc(0), 100).as_load(Level::Llc));
        let b0 = g.push(RetiredInst::new(pc(10), 5).as_load(Level::L2));
        let a1 = g.push(RetiredInst::compute(pc(1), 1, &[a0]));
        let _b1 = g.push(RetiredInst::compute(pc(11), 1, &[b0]));
        let _a2 = g.push(RetiredInst::compute(pc(2), 1, &[a1]));
        let loads = critical_loads(&g);
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0].0, pc(0));
    }

    #[test]
    fn mispredicted_branch_extends_path_through_e_d_edge() {
        let mut g = DdgGraph::new(config());
        // A branch dependent on a slow load mispredicts; the next
        // instruction's D hangs off the branch's E.
        let s0 = g.push(RetiredInst::new(pc(0), 25).as_load(Level::Llc));
        let _b = g.push(RetiredInst::compute(pc(1), 1, &[s0]).as_mispredicted_branch());
        let s2 = g.push(RetiredInst::new(pc(2), 1));
        let node2 = g.node(s2).unwrap();
        // d_cost = e_cost(branch) + lat(branch) + redirect = 25 + 1 + 10.
        assert_eq!(node2.d_cost, 36);
        assert!(path(&g).contains(&PathStep {
            seq: s0,
            kind: NodeKind::Execute
        }));
    }

    #[test]
    fn rob_depth_edge_limits_allocation() {
        let cfg = config(); // rob 8
        let mut g = DdgGraph::new(cfg);
        // One slow instruction, then enough cheap independent ones that the
        // ROB-depth C->D edge matters for instruction 8.
        g.push(RetiredInst::new(pc(0), 30));
        for i in 1..=8 {
            g.push(RetiredInst::new(pc(i), 1));
        }
        // Instruction 8 allocates only after instruction 0 commits.
        let n8 = g.node(8).unwrap();
        assert!(n8.d_cost >= 30, "d_cost {} must include C0", n8.d_cost);
    }

    #[test]
    fn overflow_discards_and_counts() {
        let mut cfg = config();
        cfg.rob_size = 4;
        cfg.buffer_factor_x10 = 10; // capacity 4
        cfg.walk_factor_x10 = 10; // walk window 4
        let mut g = DdgGraph::new(cfg);
        for i in 0..5 {
            g.push(RetiredInst::new(pc(i), 1));
        }
        assert_eq!(g.overflows(), 1);
        assert_eq!(g.len(), 1);
    }

    #[test]
    #[should_panic(expected = "must be non-empty and fit its graph buffer")]
    fn rejects_a_walk_window_larger_than_the_buffer() {
        let cfg = DetectorConfig {
            walk_factor_x10: 30,
            ..DetectorConfig::paper()
        };
        let _ = DdgGraph::new(cfg);
    }

    #[test]
    #[should_panic(expected = "must be non-empty and fit its graph buffer")]
    fn rejects_an_empty_buffer() {
        let cfg = DetectorConfig {
            rob_size: 0,
            ..DetectorConfig::paper()
        };
        let _ = DdgGraph::new(cfg);
    }

    #[test]
    fn paper_and_ablation_windows_are_accepted() {
        for rob_size in [128, 224, 448] {
            let g = DdgGraph::new(DetectorConfig {
                rob_size,
                ..DetectorConfig::paper()
            });
            assert!(g.is_empty());
        }
    }

    #[test]
    fn walk_terminates_on_empty_graph() {
        let g = DdgGraph::new(config());
        assert!(path(&g).is_empty());
        assert!(critical_loads(&g).is_empty());
    }

    #[test]
    fn flush_resets_window_but_not_seq() {
        let mut g = DdgGraph::new(config());
        g.push(RetiredInst::new(pc(0), 1));
        let next = g.next_seq();
        g.flush();
        assert!(g.is_empty());
        assert_eq!(g.next_seq(), next);
        // Producers from before the flush are ignored gracefully.
        let s = g.push(RetiredInst::compute(pc(1), 1, &[0]));
        assert!(g.node(s).unwrap().e_from_producer.is_none());
    }

    #[test]
    fn figure2_style_example() {
        // Mirrors the paper's Figure 2 narrative: three loads hit L2/LLC;
        // only the one feeding the long chain is critical.
        let mut g = DdgGraph::new(config());
        let ld_crit = g.push(RetiredInst::new(pc(0), 30).as_load(Level::Llc));
        let ld_nc1 = g.push(RetiredInst::new(pc(1), 11).as_load(Level::L2));
        let dep = g.push(RetiredInst::compute(pc(2), 20, &[ld_crit]));
        let _nc2 = g.push(RetiredInst::compute(pc(3), 1, &[ld_nc1]));
        let _tail = g.push(RetiredInst::compute(pc(4), 20, &[dep]));
        let loads = critical_loads(&g);
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[0], (pc(0), Level::Llc));
    }
}
