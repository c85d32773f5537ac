//! The in-order front end: fetch, branch prediction, L1I and code
//! runahead.

use crate::branch::{BranchStats, BranchUnit};
use crate::config::CoreConfig;
use catch_cache::{AccessKind, CacheHierarchy, Level};
use catch_prefetch::CodeRunahead;
use catch_trace::{LineAddr, MicroOp, OpClass, Trace};
use std::collections::VecDeque;

/// Front-end counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Micro-ops fetched.
    pub fetched: u64,
    /// L1I misses taken (stalls).
    pub icache_misses: u64,
    /// Code-runahead prefetches issued.
    pub code_prefetches: u64,
    /// Mispredicted branches fetched.
    pub mispredicts: u64,
    /// Cycles spent stalled on the instruction cache.
    pub icache_stall_cycles: u64,
}

impl catch_trace::counters::Counters for FrontendStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn catch_trace::counters::CounterSink) {
        use catch_trace::counters::push_counter;
        push_counter(out, prefix, "fetched", self.fetched);
        push_counter(out, prefix, "icache_misses", self.icache_misses);
        push_counter(out, prefix, "code_prefetches", self.code_prefetches);
        push_counter(out, prefix, "mispredicts", self.mispredicts);
        push_counter(out, prefix, "icache_stall_cycles", self.icache_stall_cycles);
    }
}

impl catch_trace::counters::FromCounters for FrontendStats {
    fn from_counters(
        prefix: &str,
        src: &mut catch_trace::counters::CounterSource,
    ) -> Result<Self, String> {
        Ok(FrontendStats {
            fetched: src.take(prefix, "fetched")?,
            icache_misses: src.take(prefix, "icache_misses")?,
            code_prefetches: src.take(prefix, "code_prefetches")?,
            mispredicts: src.take(prefix, "mispredicts")?,
            icache_stall_cycles: src.take(prefix, "icache_stall_cycles")?,
        })
    }
}

/// Fetches micro-ops in program order, consulting the L1I per code line
/// and stopping at mispredicted branches until the core reports
/// resolution.
#[derive(Debug)]
pub struct Frontend {
    core_id: usize,
    cursor: usize,
    predictor: BranchUnit,
    runahead: CodeRunahead,
    code_prefetch_enabled: bool,
    perfect_l1i: bool,
    fetch_width: usize,
    runahead_lines: usize,
    last_code_line: Option<LineAddr>,
    stall_until: u64,
    blocked_on_mispredict: bool,
    stats: FrontendStats,
    /// Scratch for the runahead line walk, filtered in place down to the
    /// lines to prefetch (reused across stalls so the per-cycle path
    /// allocates nothing).
    runahead_scratch: Vec<LineAddr>,
}

impl Frontend {
    /// Creates the front end for `core_id`.
    pub fn new(core_id: usize, config: &CoreConfig) -> Self {
        Frontend {
            core_id,
            cursor: 0,
            predictor: BranchUnit::skylake_like(),
            runahead: CodeRunahead::new(config.code_runahead_lines.max(1)),
            code_prefetch_enabled: config.tact.code,
            perfect_l1i: config.perfect_l1i,
            fetch_width: config.fetch_width,
            runahead_lines: config.code_runahead_lines,
            last_code_line: None,
            stall_until: 0,
            blocked_on_mispredict: false,
            stats: FrontendStats::default(),
            runahead_scratch: Vec::new(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// Branch predictor counters.
    pub fn branch_stats(&self) -> BranchStats {
        self.predictor.stats()
    }

    /// Position in the trace.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// True when the whole trace has been fetched.
    pub fn done(&self, trace: &Trace) -> bool {
        self.cursor >= trace.len()
    }

    /// The core calls this when the blocking mispredicted branch resolves;
    /// fetch resumes at `resume_cycle` (resolution + redirect penalty).
    pub fn resume_after_redirect(&mut self, resume_cycle: u64) {
        debug_assert!(self.blocked_on_mispredict, "spurious redirect resume");
        self.blocked_on_mispredict = false;
        self.stall_until = self.stall_until.max(resume_cycle);
        self.runahead.on_redirect();
        // The redirect refetches from a new path; the fetch-line register
        // is stale.
        self.last_code_line = None;
    }

    /// True if fetch is currently blocked waiting for a branch.
    pub fn blocked(&self) -> bool {
        self.blocked_on_mispredict
    }

    /// The cycle fetch resumes after the current I-cache stall (0 when
    /// not stalled). Used by the skip-ahead event computation.
    pub fn stall_until(&self) -> u64 {
        self.stall_until
    }

    /// Bulk-accounts `n` stalled fetch cycles: the per-cycle loop counts
    /// one per stalled tick; the skip path adds the whole span at once.
    pub fn add_stall_cycles(&mut self, n: u64) {
        self.stats.icache_stall_cycles += n;
    }

    /// Fetches up to `fetch_width` µops at `cycle`, pushing
    /// `(op, mispredicted)` pairs in program order onto `out` (the
    /// core's fetch buffer — filled in place so the per-cycle path
    /// allocates nothing). Returns the number of µops fetched.
    pub fn fetch(
        &mut self,
        trace: &Trace,
        cycle: u64,
        hier: &mut CacheHierarchy,
        budget: usize,
        out: &mut VecDeque<(MicroOp, bool)>,
    ) -> usize {
        let mut pushed = 0;
        if self.blocked_on_mispredict || cycle < self.stall_until {
            if cycle < self.stall_until && !self.blocked_on_mispredict {
                self.stats.icache_stall_cycles += 1;
            }
            return pushed;
        }
        let width = self.fetch_width.min(budget);
        let ops = trace.ops();
        while pushed < width {
            let Some(op) = ops.get(self.cursor) else {
                break;
            };
            let op = *op;

            // Instruction cache per code line.
            if !self.perfect_l1i {
                let line = op.pc.line();
                if self.last_code_line != Some(line) {
                    let outcome = hier.access(self.core_id, AccessKind::Code, line, cycle);
                    self.last_code_line = Some(line);
                    if outcome.hit_level != Level::L1 || outcome.merged_in_flight {
                        // Stall until the line arrives; re-fetch this op
                        // then (the line will hit).
                        self.stats.icache_misses += 1;
                        self.stall_until = outcome.ready_at(cycle);
                        if self.code_prefetch_enabled {
                            self.run_code_ahead(trace, line, cycle, hier);
                        }
                        break;
                    }
                }
            }

            self.cursor += 1;
            self.stats.fetched += 1;

            // Branches: predict, and block fetch on a mispredict.
            let mut mispredicted = false;
            if op.class == OpClass::Branch {
                if let Some(info) = op.branch() {
                    mispredicted = self.predictor.predict_and_train(op.pc, info);
                }
                if mispredicted {
                    self.stats.mispredicts += 1;
                    self.blocked_on_mispredict = true;
                    out.push_back((op, true));
                    pushed += 1;
                    break;
                }
            }
            out.push_back((op, mispredicted));
            pushed += 1;
        }
        pushed
    }

    /// Functionally consumes one micro-op during a sampling fast-forward:
    /// advances the cursor and trains the branch predictor (keeping
    /// direction history and target tables warm), without touching fetch
    /// stall state or counters. Returns the op's code line the first time
    /// it differs from the previous op's, so the caller can warm the L1I
    /// (`None` under a perfect L1I).
    pub fn functional_step(&mut self, op: &MicroOp) -> Option<LineAddr> {
        self.cursor += 1;
        if op.class == OpClass::Branch {
            if let Some(info) = op.branch() {
                let _ = self.predictor.predict_and_train(op.pc, info);
            }
        }
        if self.perfect_l1i {
            return None;
        }
        let line = op.pc.line();
        if self.last_code_line == Some(line) {
            None
        } else {
            self.last_code_line = Some(line);
            Some(line)
        }
    }

    /// Clears transient fetch state after a fast-forward so detailed
    /// simulation resumes cleanly: any in-progress I-cache stall or
    /// mispredict block belonged to ops that are now functionally retired.
    pub fn end_fast_forward(&mut self) {
        self.stall_until = 0;
        self.blocked_on_mispredict = false;
        self.runahead.on_redirect();
    }

    /// The CNPIP code runahead: while stalled on `miss_line`, walk the
    /// *predicted* future instruction stream and prefetch the code lines
    /// it crosses. The walk follows the trace (the correct path) but stops
    /// at the first conditional branch the predictor would get wrong and
    /// at indirect branches — beyond those the real CNPIP would diverge.
    fn run_code_ahead(
        &mut self,
        trace: &Trace,
        miss_line: LineAddr,
        cycle: u64,
        hier: &mut CacheHierarchy,
    ) {
        self.runahead_scratch.clear();
        let mut last = Some(miss_line);
        for op in trace.ops().iter().skip(self.cursor) {
            if self.runahead_scratch.len() >= self.runahead_lines * 2 {
                break;
            }
            let line = op.pc.line();
            if Some(line) != last {
                self.runahead_scratch.push(line);
                last = Some(line);
            }
            if op.class == OpClass::Branch {
                if let Some(info) = op.branch() {
                    match info.kind {
                        catch_trace::BranchKind::Conditional => {
                            if self.predictor.peek_direction(op.pc) != info.taken {
                                break;
                            }
                        }
                        catch_trace::BranchKind::Indirect => break,
                        catch_trace::BranchKind::Direct => {}
                    }
                }
            }
        }
        self.runahead
            .on_stall(miss_line, &mut self.runahead_scratch);
        for &line in &self.runahead_scratch {
            self.stats.code_prefetches += 1;
            hier.access(self.core_id, AccessKind::CodePrefetch, line, cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_cache::{FixedLatencyBackend, HierarchyConfig};
    use catch_trace::{ArchReg, TraceBuilder};

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(
            &HierarchyConfig::skylake_server(1),
            Box::new(FixedLatencyBackend::new(200)),
        )
    }

    fn straight_trace(n: usize) -> Trace {
        let mut b = TraceBuilder::new("t");
        for _ in 0..n {
            b.alu(ArchReg::new(1), &[]);
        }
        b.build()
    }

    #[test]
    fn first_fetch_misses_icache_and_stalls() {
        let trace = straight_trace(8);
        let mut h = hier();
        let mut f = Frontend::new(0, &CoreConfig::baseline());
        let mut out = VecDeque::new();
        let got = f.fetch(&trace, 0, &mut h, 16, &mut out);
        assert_eq!(got, 0, "cold I-miss stalls fetch");
        assert_eq!(f.stats().icache_misses, 1);
        // After the fill, fetch proceeds at full width.
        let got = f.fetch(&trace, 10_000, &mut h, 16, &mut out);
        assert_eq!(got, 4);
        assert_eq!(out.len(), 4);
        assert_eq!(f.stats().fetched, 4);
    }

    #[test]
    fn perfect_l1i_never_stalls() {
        let trace = straight_trace(8);
        let mut h = hier();
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut f = Frontend::new(0, &config);
        let mut out = VecDeque::new();
        let got = f.fetch(&trace, 0, &mut h, 16, &mut out);
        assert_eq!(got, 4);
        assert_eq!(f.stats().icache_misses, 0);
    }

    #[test]
    fn mispredicted_branch_blocks_fetch_until_resume() {
        // A data-dependent alternating branch mispredicts early.
        let mut b = TraceBuilder::new("t");
        for i in 0..8u64 {
            b.alu(ArchReg::new(1), &[]);
            let target = b.cursor().advance(8);
            b.cond_branch(i % 2 == 0, target, &[ArchReg::new(1)]);
        }
        let trace = b.build();
        let mut h = hier();
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut f = Frontend::new(0, &config);
        // Fetch until a mispredict blocks.
        let mut out = VecDeque::new();
        let mut fetched = 0;
        let mut cycle = 0;
        while !f.blocked() && fetched < 16 {
            fetched += f.fetch(&trace, cycle, &mut h, 4, &mut out);
            cycle += 1;
        }
        assert!(f.blocked(), "alternating branch must mispredict");
        assert_eq!(f.fetch(&trace, cycle, &mut h, 4, &mut out), 0);
        f.resume_after_redirect(cycle + 20);
        assert_eq!(f.fetch(&trace, cycle + 10, &mut h, 4, &mut out), 0);
        assert!(f.fetch(&trace, cycle + 20, &mut h, 4, &mut out) > 0);
    }

    #[test]
    fn code_runahead_prefetches_future_lines() {
        // Straight-line code spanning many lines.
        let trace = straight_trace(200);
        let mut h = hier();
        let mut config = CoreConfig::baseline();
        config.tact.code = true;
        let mut f = Frontend::new(0, &config);
        let mut out = VecDeque::new();
        let _ = f.fetch(&trace, 0, &mut h, 16, &mut out); // cold miss triggers runahead
        assert!(f.stats().code_prefetches > 0);
        // The prefetched next line should now be present or in flight.
        let second_line = trace.ops()[16].pc.line();
        assert!(h.probe_level(0, true, second_line) == Level::L1);
    }

    #[test]
    fn done_after_whole_trace() {
        let trace = straight_trace(5);
        let mut h = hier();
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut f = Frontend::new(0, &config);
        let mut out = VecDeque::new();
        let mut cycle = 0;
        while !f.done(&trace) {
            f.fetch(&trace, cycle, &mut h, 4, &mut out);
            cycle += 1;
        }
        assert_eq!(f.cursor(), 5);
    }
}
