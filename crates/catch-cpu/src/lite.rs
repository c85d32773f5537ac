//! The timing-lite core: an in-order-issue scoreboard model.
//!
//! [`LiteCore`] is the middle rung of the fidelity ladder (DESIGN.md
//! §14): it drives the **real** memory hierarchy, branch predictor,
//! criticality detector and TACT prefetchers through the same
//! [`Frontend`] and [`MemoryInterface`] as the full [`Core`], but
//! replaces the out-of-order back end (ROB dependence graph, wake heap,
//! scheduler window scan, rollback bookkeeping) with a per-register
//! **completion-timestamp scoreboard**:
//!
//! * Ops issue strictly in program order, up to `alloc_width` per cycle
//!   under the per-class port budgets. An op never waits for its
//!   operands at issue — its completion cycle is *computed* as
//!   `max(issue cycle, operand ready cycles) + latency`, which models an
//!   idealised out-of-order machine with perfect scheduling (the classic
//!   interval-simulation approximation).
//! * The reorder window is enforced by a ring of in-order retire
//!   timestamps: op *n* cannot issue before op *n − rob_size* has
//!   retired, and at most `retire_width` ops retire per cycle. Long
//!   dependence chains therefore stall issue exactly as a full window
//!   would, without per-entry bookkeeping.
//! * The scheduler window is a dataflow constraint, not an issue gate:
//!   the full core only selects from the oldest `sched_window` ROB
//!   entries, so op *n* cannot begin execution before op
//!   *n − sched_window* retires. The lite model lifts each op's
//!   operand-ready time to that retire timestamp (read straight from
//!   the retire ring, like retire pacing). This is what bounds
//!   memory-level parallelism on pointer-chasing code — without it the
//!   lite model would let independent misses far behind a long
//!   dependence chain proceed that the full core's scheduler window
//!   would have fenced off.
//! * Loads take the real demand path ([`MemoryInterface::load`] with
//!   prefetchers, TACT and the detector), are bounded by the real MSHR
//!   cap, and forward from in-flight stores at the same 2-cycle latency
//!   as the full core. Mispredicted branches block fetch until their
//!   computed resolution plus the redirect penalty.
//! * Retired ops feed the criticality detector in program order with
//!   their computed execution latencies, and critical PCs sync to TACT
//!   at the same cadence as the full core.
//!
//! The model intentionally omits: speculative wrong-path execution,
//! scheduler-window and port *conflict* modelling beyond per-cycle
//! budgets, and exact access timestamps for dependent loads (a load is
//! presented to the hierarchy at its issue cycle even when its operands
//! are ready later). The `ladder` experiment in `catch-core` measures
//! the resulting IPC/MPKI error against the full core per workload and
//! CI gates on the bound.
//!
//! Like [`Core`], the lite core runs either the naive per-cycle tick
//! loop or stall skip-ahead over the `timeq` calendar queue. Blocked
//! gates (window full, MSHR full, fetch stall, mispredict redirect)
//! post their wake cycles, so idle spans collapse to O(1) queue peeks.

use crate::config::CoreConfig;
use crate::core::{CRITICAL_SYNC_INTERVAL, MAINT_PERIOD};
use crate::frontend::Frontend;
use crate::memory::MemoryInterface;
use crate::stats::CoreStats;
use crate::Core;
use catch_cache::{CacheHierarchy, Level};
use catch_criticality::{AnyDetector, CriticalityDetector, HeuristicDetector, RetiredInst};
use catch_obs::{Event, EventClass, EventKind, Obs, OccupancyHist, OCC_SAMPLE_PERIOD};
use catch_prefetch::MemoryImage;
use catch_timeq::{CalendarQueue, ServiceRequest, Source};
use catch_trace::hash::FxHashMap;
use catch_trace::{ArchReg, MicroOp, OpClass, Trace};
use std::collections::VecDeque;

/// The timing-lite in-order-issue core (see the module docs).
#[derive(Debug)]
pub struct LiteCore {
    id: usize,
    config: CoreConfig,
    trace: Trace,
    frontend: Frontend,
    fetch_buffer: VecDeque<(MicroOp, bool)>,
    mem: MemoryInterface,
    detector: AnyDetector,
    /// Program-order op id (producer ids for the detector feed).
    next_id: u64,
    /// Scoreboard: id of the last writer of each architectural register.
    last_writer: [Option<u64>; ArchReg::COUNT],
    /// Scoreboard: cycle the last write of each register completes.
    reg_ready: [u64; ArchReg::COUNT],
    /// In-flight stores by 8-byte-aligned address: (id, completion).
    last_store: FxHashMap<u64, (u64, u64)>,
    /// In-order retire timestamps of the ops currently in the window
    /// (bounded by `rob_size`); the front entry gates issue of op
    /// *n − rob_size*.
    window: VecDeque<u64>,
    /// Execution-start cycles of recently issued ops, kept only for
    /// scheduler-occupancy sampling (an op holds a scheduler slot until
    /// its operands arrive). Pruned at every sample.
    sched_ring: Vec<u64>,
    /// Completion cycles of loads outstanding to the hierarchy (the
    /// L1D MSHR file), pruned lazily like the full core's.
    outstanding_loads: Vec<u64>,
    cycle: u64,
    retired: u64,
    /// Latest computed retire timestamp (the run's critical path).
    last_retire: u64,
    critical_sync_at: u64,
    warmup_snapshot: Option<CoreStats>,
    obs: Obs,
    /// Wake reservations for stall skip-ahead (see [`Core`]'s).
    timeq: CalendarQueue,
    /// Window occupancy (in-flight, unretired ops), sampled every
    /// [`OCC_SAMPLE_PERIOD`] cycles — the lite analogue of ROB occupancy.
    rob_occ: OccupancyHist,
    /// Fetch-buffer pressure clamped to the scheduler window, same
    /// cadence (the lite analogue of scheduler occupancy).
    sched_occ: OccupancyHist,
    /// Load-MSHR occupancy, same cadence (identical semantics to the
    /// full core's histogram).
    mshr_occ: OccupancyHist,
}

impl LiteCore {
    /// Creates a lite core for `trace` with the given configuration.
    pub fn new(id: usize, trace: Trace, config: CoreConfig) -> Self {
        let image = MemoryImage::from_trace(&trace);
        LiteCore {
            id,
            frontend: Frontend::new(id, &config),
            fetch_buffer: VecDeque::with_capacity(config.fetch_buffer),
            mem: MemoryInterface::new(id, &config, image),
            detector: match &config.detector_kind {
                crate::config::DetectorKind::Graph => {
                    AnyDetector::Graph(CriticalityDetector::new(config.detector.clone()))
                }
                crate::config::DetectorKind::Heuristic(h) => AnyDetector::Heuristic(
                    HeuristicDetector::new(config.detector.clone(), h.clone()),
                ),
            },
            next_id: 0,
            last_writer: [None; ArchReg::COUNT],
            reg_ready: [0; ArchReg::COUNT],
            last_store: FxHashMap::default(),
            window: VecDeque::with_capacity(config.rob_size + 1),
            sched_ring: Vec::with_capacity(config.sched_window + 1),
            outstanding_loads: Vec::with_capacity(config.max_outstanding_loads + 1),
            cycle: 0,
            retired: 0,
            last_retire: 0,
            critical_sync_at: CRITICAL_SYNC_INTERVAL,
            warmup_snapshot: None,
            obs: Obs::off(),
            timeq: CalendarQueue::new(),
            config,
            trace,
            rob_occ: OccupancyHist::default(),
            sched_occ: OccupancyHist::default(),
            mshr_occ: OccupancyHist::default(),
        }
    }

    /// Attaches an observability handle (see [`Core::set_obs`]).
    pub fn set_obs(&mut self, obs: Obs) {
        self.detector.set_obs(obs.clone(), self.id as u32);
        self.mem.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Core id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The trace being executed.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Retired (issued — the lite core retires at issue) µops so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// True when the whole trace has been fetched and issued.
    pub fn done(&self) -> bool {
        self.frontend.done(&self.trace) && self.fetch_buffer.is_empty()
    }

    /// Criticality detector (for inspection).
    pub fn detector(&self) -> &AnyDetector {
        &self.detector
    }

    /// Snapshot of statistics (measured since [`LiteCore::end_warmup`],
    /// or from the start).
    pub fn stats(&self) -> CoreStats {
        let raw = self.raw_stats();
        match &self.warmup_snapshot {
            Some(base) => raw.minus(base),
            None => raw,
        }
    }

    fn raw_stats(&self) -> CoreStats {
        CoreStats {
            instructions: self.retired,
            cycles: self.cycle,
            frontend: self.frontend.stats(),
            branches: self.frontend.branch_stats(),
            memory: self.mem.stats(),
            detector: self.detector.stats(),
            tact: self.mem.tact_stats(),
            rob_occ: self.rob_occ,
            sched_occ: self.sched_occ,
            mshr_occ: self.mshr_occ,
        }
    }

    /// Marks the end of warm-up (see [`Core::end_warmup`]).
    pub fn end_warmup(&mut self) {
        self.warmup_snapshot = Some(self.raw_stats());
    }

    /// One cycle, reporting whether issue or fetch made progress. The
    /// same contract as the OOO core's: a no-progress cycle changes
    /// nothing but the clock and the bulk-reproducible per-cycle
    /// statistics, so skipped idle spans replay exactly.
    fn tick_progress(&mut self, hier: &mut CacheHierarchy) -> bool {
        let cycle = self.cycle;
        if cycle.is_multiple_of(OCC_SAMPLE_PERIOD) {
            self.sample_occupancy(cycle);
        }
        let mut progress = self.issue_stage(hier, cycle);
        progress |= self.fetch_stage(hier, cycle);
        self.cycle += 1;
        if self.cycle.is_multiple_of(MAINT_PERIOD) {
            self.maintenance_at(hier, self.cycle);
        }
        progress
    }

    /// One scheduling quantum with stall skip-ahead: a tick, plus a jump
    /// to the next wake when it made no progress (the single-core case
    /// of [`run_lockstep`](crate::run_lockstep)'s rule).
    fn tick_or_skip(&mut self, hier: &mut CacheHierarchy) {
        let progress = self.tick_progress(hier);
        if !progress && self.config.skip_ahead {
            if let Some(target) = self.next_wake_cycle() {
                if target > self.cycle {
                    self.advance_to(hier, target);
                }
            }
        }
    }

    /// The skip target: the earliest pending wake reservation.
    fn next_wake_cycle(&mut self) -> Option<u64> {
        self.timeq.peek_next(self.cycle)
    }

    /// Jumps the clock to `target`, replaying the per-cycle side effects
    /// of the skipped idle span (occupancy samples, stalled fetch
    /// accounting, maintenance boundaries) exactly as the naive loop
    /// would have produced them — the same contract as the OOO core's.
    fn advance_to(&mut self, hier: &mut CacheHierarchy, target: u64) {
        let start = self.cycle;
        debug_assert!(target > start, "advance_to must move forward");
        if !self.frontend.blocked()
            && self.fetch_buffer.len() < self.config.fetch_buffer
            && !self.frontend.done(&self.trace)
        {
            let stalled = self
                .frontend
                .stall_until()
                .min(target)
                .saturating_sub(start);
            if stalled > 0 {
                self.frontend.add_stall_cycles(stalled);
            }
        }
        let mut x = start.next_multiple_of(OCC_SAMPLE_PERIOD);
        while x <= target {
            if x > start && x.is_multiple_of(MAINT_PERIOD) {
                self.maintenance_at(hier, x);
            }
            if x < target {
                self.sample_occupancy(x);
            }
            x += OCC_SAMPLE_PERIOD;
        }
        self.cycle = target;
    }

    fn maintenance_at(&mut self, hier: &mut CacheHierarchy, now: u64) {
        hier.maintain(now);
        // A store whose completion has passed can no longer forward;
        // its dependence edge has long been consumed by any load that
        // needed it, so the entry is dead weight.
        self.last_store.retain(|_, (_, done)| *done >= now);
    }

    fn post_wake(&mut self, at: u64, source: Source) {
        if let Err(bp) = self.timeq.post(ServiceRequest::new(at, source)) {
            let _ = self.timeq.post(ServiceRequest::new(bp.retry_at, source));
        }
    }

    fn sample_occupancy(&mut self, cycle: u64) {
        // Retired window entries are pruned opportunistically so the
        // sample reflects live (unretired) ops.
        while self.window.front().is_some_and(|&retire| retire < cycle) {
            self.window.pop_front();
        }
        let rob_used = self.window.len() as u64;
        let rob_cap = self.config.rob_size as u64;
        let sched_cap = self.config.sched_window as u64;
        // Ops whose operands have arrived have left the scheduler; the
        // full core reports unstarted ROB entries clamped the same way.
        self.sched_ring.retain(|&start| start > cycle);
        let sched_used = (self.sched_ring.len() as u64).min(sched_cap);
        let mshr_used = self
            .outstanding_loads
            .iter()
            .filter(|&&done| done >= cycle)
            .count() as u64;
        let mshr_cap = self.config.max_outstanding_loads as u64;
        self.rob_occ.record(rob_used, rob_cap);
        self.sched_occ.record(sched_used, sched_cap);
        self.mshr_occ.record(mshr_used, mshr_cap);
        if self.obs.wants(EventClass::OCCUPANCY) {
            let core = self.id as u32;
            for kind in [
                EventKind::RobOccupancy {
                    used: rob_used as u32,
                    cap: rob_cap as u32,
                },
                EventKind::SchedOccupancy {
                    used: sched_used as u32,
                    cap: sched_cap as u32,
                },
                EventKind::MshrOccupancy {
                    used: mshr_used as u32,
                    cap: mshr_cap as u32,
                },
            ] {
                self.obs
                    .emit(EventClass::OCCUPANCY, || Event { cycle, core, kind });
            }
        }
    }

    fn issue_stage(&mut self, hier: &mut CacheHierarchy, cycle: u64) -> bool {
        let mut int_budget = self.config.ports.int_ports;
        let mut fp_budget = self.config.ports.fp_ports;
        let mut load_budget = self.config.ports.load_ports;
        let mut store_budget = self.config.ports.store_ports;
        let mut issued = 0usize;
        while issued < self.config.alloc_width {
            // Window gate: op n waits for op n − rob_size to retire.
            if self.window.len() >= self.config.rob_size {
                let gate = *self.window.front().expect("non-empty window");
                if gate > cycle {
                    if self.config.skip_ahead && issued == 0 {
                        self.post_wake(gate, Source::Exec);
                    }
                    break;
                }
                self.window.pop_front();
            }
            let Some(&(op, mispredicted)) = self.fetch_buffer.front() else {
                break;
            };
            // In-order issue: a class whose port budget is exhausted
            // blocks everything behind it this cycle.
            let budget = match op.class {
                OpClass::Load => &mut load_budget,
                OpClass::Store => &mut store_budget,
                OpClass::FpAdd | OpClass::FpMul => &mut fp_budget,
                _ => &mut int_budget,
            };
            if *budget == 0 {
                break;
            }
            // MSHR gate, with the same lazy pruning as the full core.
            if op.class == OpClass::Load
                && self.outstanding_loads.len() >= self.config.max_outstanding_loads
            {
                self.outstanding_loads.retain(|&done| done > cycle);
                if self.outstanding_loads.len() >= self.config.max_outstanding_loads {
                    if self.config.skip_ahead && issued == 0 {
                        if let Some(&free_at) = self.outstanding_loads.iter().min() {
                            self.post_wake(free_at, Source::Exec);
                        }
                    }
                    break;
                }
            }
            *budget -= 1;
            self.fetch_buffer.pop_front();
            issued += 1;
            let id = self.next_id;
            self.next_id += 1;

            // Dependence timestamps and producer ids, in program order.
            let mut deps = [None; 4];
            let mut ready = cycle;
            for (slot, src) in deps.iter_mut().zip(op.sources()) {
                *slot = self.last_writer[src.index()];
                ready = ready.max(self.reg_ready[src.index()]);
            }
            // Scheduler window: the full core only selects from the
            // oldest `sched_window` ROB entries, so this op cannot
            // begin execution before op n − sched_window has retired.
            // The retire ring holds a contiguous suffix of issued ops
            // (front-pruned only), so when it is deep enough the gating
            // retire timestamp is an index away; when it is shallower,
            // that op retired in the past and the constraint is moot.
            // `exec_at` is the monotone part of the execution-start
            // estimate (retires are monotone); hierarchy accesses are
            // stamped with it so the demand stream reaches prefetchers
            // at the pace the full core would produce, instead of
            // compressed to allocation rate.
            let mut exec_at = cycle;
            if self.window.len() >= self.config.sched_window {
                let gate = self.window[self.window.len() - self.config.sched_window];
                ready = ready.max(gate);
                exec_at = exec_at.max(gate);
            }
            // The op holds a scheduler slot until its operands arrive
            // (occupancy sampling only).
            self.sched_ring.push(ready);

            let (complete, hit_level) = match op.class {
                OpClass::Load => {
                    let mem = op.mem.expect("loads reference memory");
                    let key = mem.addr.get() & !7;
                    let mut forwarded = false;
                    if let Some(&(sid, store_done)) = self.last_store.get(&key) {
                        deps[3] = Some(sid);
                        // Forward while the producing store is still in
                        // flight (mirrors "still in the window").
                        forwarded = store_done > exec_at;
                    }
                    if forwarded {
                        self.mem.note_forwarded_load();
                        (ready + 2, Some(Level::L1))
                    } else {
                        let feeder = self.mem.feeder_hint(&op);
                        self.mem.on_alloc_op(&op);
                        let (latency, level) =
                            self.mem.load(hier, &op, feeder, exec_at, &self.detector);
                        (ready + latency, Some(level))
                    }
                }
                OpClass::Store => {
                    self.mem.on_alloc_op(&op);
                    self.mem.store(hier, &op, exec_at);
                    let complete = ready + self.config.latencies.of(OpClass::Store);
                    if let Some(mem) = op.mem {
                        self.last_store.insert(mem.addr.get() & !7, (id, complete));
                    }
                    (complete, None)
                }
                class => {
                    self.mem.on_alloc_op(&op);
                    (ready + self.config.latencies.of(class), None)
                }
            };
            if op.class == OpClass::Load {
                // Forwarded loads never took an MSHR; L1 hits release
                // theirs immediately — same occupancy rule as the full
                // core.
                if hit_level.is_some_and(|l| l != Level::L1) {
                    self.outstanding_loads.push(complete);
                }
            }
            if let Some(dst) = op.dst {
                self.last_writer[dst.index()] = Some(id);
                self.reg_ready[dst.index()] = complete;
            }

            // In-order retirement: monotone, at most retire_width per
            // cycle (op n retires no earlier than one cycle after op
            // n − retire_width).
            let mut retire = complete.max(self.last_retire);
            if self.window.len() >= self.config.retire_width {
                let pace = self.window[self.window.len() - self.config.retire_width];
                retire = retire.max(pace + 1);
            }
            self.last_retire = retire;
            self.window.push_back(retire);
            self.retired += 1;

            self.obs.emit(EventClass::CORE, || Event {
                cycle,
                core: self.id as u32,
                kind: EventKind::Exec {
                    pc: op.pc.get(),
                    latency: complete.saturating_sub(ready).max(1),
                },
            });
            self.obs.emit(EventClass::CORE, || Event {
                cycle,
                core: self.id as u32,
                kind: EventKind::Retire { pc: op.pc.get() },
            });

            // Criticality feed, program order, computed latencies.
            let mut inst = RetiredInst {
                pc: op.pc,
                is_load: op.class == OpClass::Load,
                hit_level,
                exec_latency: complete.saturating_sub(ready),
                src_producers: [deps[0], deps[1], deps[2]],
                mem_producer: deps[3],
                mispredicted_branch: mispredicted,
            };
            if !inst.is_load {
                inst.hit_level = None;
            }
            self.detector.on_retire_at(inst, cycle);
            if self.retired >= self.critical_sync_at {
                self.critical_sync_at = self.retired + CRITICAL_SYNC_INTERVAL;
                if self.config.tact.data {
                    self.mem.note_critical_pcs(self.detector.critical_pcs());
                }
            }

            if mispredicted {
                let resume = complete + self.config.mispredict_penalty;
                self.frontend.resume_after_redirect(resume);
                if self.config.skip_ahead {
                    self.post_wake(resume, Source::Frontend);
                }
            }
        }
        issued > 0
    }

    fn fetch_stage(&mut self, hier: &mut CacheHierarchy, cycle: u64) -> bool {
        let space = self
            .config
            .fetch_buffer
            .saturating_sub(self.fetch_buffer.len());
        if space == 0 {
            return false;
        }
        let misses_before = self.frontend.stats().icache_misses;
        let pushed = self
            .frontend
            .fetch(&self.trace, cycle, hier, space, &mut self.fetch_buffer);
        let missed = self.frontend.stats().icache_misses != misses_before;
        if missed && self.config.skip_ahead {
            self.post_wake(self.frontend.stall_until(), Source::Frontend);
        }
        pushed > 0 || missed
    }

    /// Functionally fast-forwards to trace position `until_op`, exactly
    /// like [`Core::fast_forward`]: warm hierarchy accesses and branch
    /// training at one op per cycle, no detailed timing. The lite rung
    /// uses this for its warm-up phase.
    pub fn fast_forward(&mut self, hier: &mut CacheHierarchy, until_op: usize) {
        debug_assert!(
            self.fetch_buffer.is_empty(),
            "fast_forward requires an empty fetch buffer"
        );
        let until = until_op.min(self.trace.len());
        while self.frontend.cursor() < until {
            let op = self.trace.ops()[self.frontend.cursor()];
            if let Some(code_line) = self.frontend.functional_step(&op) {
                hier.warm_access(
                    self.id,
                    catch_cache::AccessKind::Code,
                    code_line,
                    self.cycle,
                );
            }
            if let Some(mem) = op.mem {
                let kind = if op.class == OpClass::Store {
                    catch_cache::AccessKind::Store
                } else {
                    catch_cache::AccessKind::Load
                };
                hier.warm_access(self.id, kind, mem.addr.line(), self.cycle);
            }
            self.retired += 1;
            self.cycle += 1;
            if self.cycle.is_multiple_of(MAINT_PERIOD) {
                self.maintenance_at(hier, self.cycle);
            }
        }
        self.frontend.end_fast_forward();
        self.last_writer = [None; ArchReg::COUNT];
        self.reg_ready = [0; ArchReg::COUNT];
        self.last_store.clear();
        self.window.clear();
        self.sched_ring.clear();
        self.outstanding_loads.clear();
        self.last_retire = self.cycle;
        self.timeq.clear();
    }

    /// Runs to completion, then advances the clock to the last computed
    /// retire timestamp so `cycles` covers the full critical path (the
    /// full core ticks through its ROB drain; the lite core jumps).
    ///
    /// # Panics
    ///
    /// Panics if the cycle budget (`1000 × ops + 10_000_000`) is
    /// exceeded — a simulator bug.
    pub fn run_to_completion(&mut self, hier: &mut CacheHierarchy) -> CoreStats {
        let budget = 1000 * self.trace.len() as u64 + 10_000_000;
        while !self.done() {
            self.tick_or_skip(hier);
            assert!(
                self.cycle < budget,
                "lite core {} exceeded cycle budget: likely deadlock at cycle {}",
                self.id,
                self.cycle
            );
        }
        if self.last_retire > self.cycle {
            // Only maintenance boundaries are replayed in the tail: the
            // machine is architecturally empty, and the full core's
            // drain ticks take no occupancy samples either.
            let target = self.last_retire;
            let mut x = (self.cycle + 1).next_multiple_of(MAINT_PERIOD);
            while x <= target {
                self.maintenance_at(hier, x);
                x += MAINT_PERIOD;
            }
            self.cycle = target;
        }
        self.stats()
    }
}

/// A convenience used by the ladder's fast rung: run [`Core`]'s
/// functional fast-forward over the whole trace (the existing
/// `fast_forward` path, bit-for-bit), returning its stats. Lives here so
/// the fidelity dispatch in `catch-core` reads as three rungs of one
/// ladder.
pub fn run_fast_functional(
    id: usize,
    trace: Trace,
    config: CoreConfig,
    hier: &mut CacheHierarchy,
    warmup_ops: usize,
) -> CoreStats {
    let mut core = Core::new(id, trace, config);
    let len = core.trace().len();
    if warmup_ops > 0 {
        core.fast_forward(hier, warmup_ops.min(len));
        core.end_warmup();
        hier.reset_stats();
    }
    core.fast_forward(hier, len);
    core.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_cache::{FixedLatencyBackend, HierarchyConfig};
    use catch_trace::{Addr, TraceBuilder};

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(
            &HierarchyConfig::skylake_server(1),
            Box::new(FixedLatencyBackend::new(200)),
        )
    }

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let mut b = TraceBuilder::new("ilp");
        let top = b.label();
        for rep in 0..500 {
            b.jump_to(top);
            for i in 0..8 {
                b.alu(r(i), &[]);
            }
            b.backedge(top, rep != 499);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = LiteCore::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert!(
            stats.ipc() > 2.5,
            "independent ALU stream should issue near width: IPC {}",
            stats.ipc()
        );
    }

    #[test]
    fn dependent_chain_is_serialised() {
        let mut b = TraceBuilder::new("chain");
        b.alu(r(1), &[]);
        for _ in 0..2000 {
            b.alu(r(1), &[r(1)]);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = LiteCore::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert!(
            stats.ipc() < 1.2,
            "dependent ALU chain is ~1 IPC: {}",
            stats.ipc()
        );
    }

    #[test]
    fn load_latency_gates_dependent_chain() {
        let chain = |lines: u64| {
            let mut b = TraceBuilder::new("ptr");
            let top = b.label();
            for i in 0..1500u64 {
                b.jump_to(top);
                let addr = Addr::new((i % lines) * 64);
                b.load_dep(r(1), addr, 0, &[r(1)]);
                b.backedge(top, i != 1499);
            }
            b.build()
        };
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        config.baseline_prefetchers = false;
        let small = LiteCore::new(0, chain(4), config.clone())
            .run_to_completion(&mut hier())
            .ipc();
        let large = LiteCore::new(0, chain(200_000), config)
            .run_to_completion(&mut hier())
            .ipc();
        assert!(
            small > 3.0 * large,
            "L1-resident chase {small} must beat DRAM chase {large}"
        );
    }

    #[test]
    fn store_to_load_forwarding_is_fast() {
        let mut b = TraceBuilder::new("fwd");
        b.alu(r(1), &[]);
        for i in 0..500u64 {
            b.store(Addr::new(0x5000 + i * 8), &[r(1)]);
            b.load_dep(r(2), Addr::new(0x5000 + i * 8), 0, &[]);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = LiteCore::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert!(stats.memory.forwarded > 400, "{}", stats.memory.forwarded);
    }

    #[test]
    fn detector_sees_all_retired_instructions() {
        let mut b = TraceBuilder::new("t");
        for i in 0..1000u64 {
            b.load(r(1), Addr::new((i % 64) * 64), 0);
            b.alu(r(2), &[r(1)]);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = LiteCore::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert_eq!(stats.detector.retired, 2000);
        assert_eq!(stats.instructions, 2000);
    }

    #[test]
    fn mshr_cap_limits_memory_parallelism() {
        let build = || {
            let mut b = TraceBuilder::new("mlp");
            for i in 0..64u64 {
                b.load(r(1), Addr::new(i * 4096), 0);
            }
            b.build()
        };
        let mut wide = CoreConfig::baseline();
        wide.perfect_l1i = true;
        wide.baseline_prefetchers = false;
        wide.max_outstanding_loads = 16;
        let mut narrow = wide.clone();
        narrow.max_outstanding_loads = 1;
        let run = |cfg: CoreConfig| {
            LiteCore::new(0, build(), cfg)
                .run_to_completion(&mut hier())
                .cycles
        };
        let fast = run(wide);
        let slow = run(narrow);
        assert!(
            slow > 3 * fast,
            "one MSHR must serialise misses: {slow} vs {fast}"
        );
    }

    #[test]
    fn engines_agree_bit_exactly() {
        // The naive loop and the calendar-queue skip must produce
        // identical stats, like the full core's engine-parity guarantee.
        let build = || {
            let mut b = TraceBuilder::new("par");
            for i in 0..3000u64 {
                b.load(r(1), Addr::new((i % 700) * 64), 0);
                b.alu(r(2), &[r(1)]);
                let tgt = b.cursor().advance(8);
                b.cond_branch(i % 3 == 0, tgt, &[r(2)]);
            }
            b.build()
        };
        let mut naive = CoreConfig::baseline();
        naive.skip_ahead = false;
        let mut skip = naive.clone();
        skip.skip_ahead = true;
        let a = LiteCore::new(0, build(), naive).run_to_completion(&mut hier());
        let b = LiteCore::new(0, build(), skip).run_to_completion(&mut hier());
        assert_eq!(a, b, "lite loops must agree bit-exactly");
    }

    #[test]
    fn fast_forward_warms_and_detailed_region_hits() {
        let mut b = TraceBuilder::new("ff");
        for i in 0..2000u64 {
            b.load(r(1), Addr::new((i % 128) * 64), 0);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        config.baseline_prefetchers = false;
        let mut h = hier();
        let mut core = LiteCore::new(0, b.build(), config);
        core.fast_forward(&mut h, 1000);
        assert_eq!(core.retired(), 1000);
        let stats = core.run_to_completion(&mut h);
        assert_eq!(stats.instructions, 2000);
        assert_eq!(stats.memory.loads, 1000);
        assert!(
            stats.memory.loads_by_level[0] > 950,
            "warmed set must hit in L1: {:?}",
            stats.memory.loads_by_level
        );
    }

    #[test]
    fn lite_tracks_the_full_core_within_tolerance() {
        // A mixed kernel: the lite IPC should be in the same regime as
        // the full core's (the golden-workload bound lives in the
        // catch-core ladder experiment; this is the unit-level sanity
        // version).
        let build = || {
            let mut b = TraceBuilder::new("mix");
            for i in 0..6000u64 {
                b.load(r(1), Addr::new((i % 4096) * 64), 0);
                b.alu(r(2), &[r(1)]);
                b.alu(r(3), &[]);
                let tgt = b.cursor().advance(8);
                b.cond_branch(i % 7 == 0, tgt, &[r(3)]);
            }
            b.build()
        };
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let full = Core::new(0, build(), config.clone())
            .run_to_completion(&mut hier())
            .ipc();
        let lite = LiteCore::new(0, build(), config)
            .run_to_completion(&mut hier())
            .ipc();
        let err = (lite - full).abs() / full * 100.0;
        assert!(
            err < 35.0,
            "lite IPC {lite:.3} strays too far from full {full:.3} ({err:.1}%)"
        );
    }

    #[test]
    fn fast_functional_matches_core_fast_forward_bitwise() {
        let build = || {
            let mut b = TraceBuilder::new("fastrung");
            for i in 0..1500u64 {
                b.load(r(1), Addr::new((i % 512) * 64), 0);
                b.alu(r(2), &[r(1)]);
            }
            b.build()
        };
        let config = CoreConfig::baseline();
        let via_helper = run_fast_functional(0, build(), config.clone(), &mut hier(), 500);
        let manual = {
            let mut h = hier();
            let mut core = Core::new(0, build(), config);
            core.fast_forward(&mut h, 500);
            core.end_warmup();
            h.reset_stats();
            core.fast_forward(&mut h, 3000);
            core.stats()
        };
        assert_eq!(via_helper, manual, "fast rung is the existing fast-forward");
    }
}
