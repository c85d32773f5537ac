//! The assembled out-of-order core.

use crate::config::CoreConfig;
use crate::frontend::Frontend;
use crate::memory::MemoryInterface;
use crate::rob::{Rob, RobEntry};
use crate::stats::CoreStats;
use catch_cache::{AccessKind, CacheHierarchy};
use catch_criticality::{AnyDetector, CriticalityDetector, HeuristicDetector, RetiredInst};
use catch_obs::{Event, EventClass, EventKind, Obs, OccupancyHist, OCC_SAMPLE_PERIOD};
use catch_prefetch::MemoryImage;
use catch_timeq::{CalendarQueue, ServiceRequest, Source};
use catch_trace::hash::FxHashMap;
use catch_trace::{ArchReg, MicroOp, OpClass, Trace};
use std::collections::VecDeque;

/// How often (in retired µops) newly detected critical PCs are pushed to
/// TACT.
pub(crate) const CRITICAL_SYNC_INTERVAL: u64 = 512;

/// Cadence (in cycles) of ledger/bookkeeping maintenance. A multiple of
/// [`OCC_SAMPLE_PERIOD`], which the skip-ahead bulk replay relies on.
pub(crate) const MAINT_PERIOD: u64 = 65_536;

/// One out-of-order core bound to a trace.
///
/// [`run_lockstep`] drives one or more cores against a shared hierarchy
/// (the multi-core driver interleaves cores); [`Core::run_to_completion`]
/// is its single-core form.
#[derive(Debug)]
pub struct Core {
    id: usize,
    config: CoreConfig,
    trace: Trace,
    frontend: Frontend,
    fetch_buffer: VecDeque<(MicroOp, bool)>,
    rob: Rob,
    mem: MemoryInterface,
    detector: AnyDetector,
    next_id: u64,
    last_writer: [Option<u64>; ArchReg::COUNT],
    last_store: FxHashMap<u64, u64>,
    cycle: u64,
    retired: u64,
    critical_sync_at: u64,
    /// Stats snapshot taken at the end of warm-up; `stats()` subtracts it.
    warmup_snapshot: Option<CoreStats>,
    /// Pending front-end redirect: (branch id, set when it issues).
    pending_redirect: Option<u64>,
    /// Completion cycles of loads currently outstanding to the hierarchy
    /// (bounded by `max_outstanding_loads` — the L1D MSHR file).
    outstanding_loads: Vec<u64>,
    obs: Obs,
    /// The event queue driving stall skip-ahead: every wake source
    /// posts a [`ServiceRequest`] at its event cycle, and the idle-skip
    /// target is an O(1) queue peek. Posting is skipped when
    /// `skip_ahead` is off (idle spans are then walked tick by tick).
    timeq: CalendarQueue,
    /// ROB occupancy, sampled every [`OCC_SAMPLE_PERIOD`] cycles.
    rob_occ: OccupancyHist,
    /// Scheduler pressure (unissued ops clamped to the window), same cadence.
    sched_occ: OccupancyHist,
    /// Load-MSHR occupancy, same cadence.
    mshr_occ: OccupancyHist,
}

impl Core {
    /// Creates a core for `trace` with the given configuration.
    pub fn new(id: usize, trace: Trace, config: CoreConfig) -> Self {
        let image = MemoryImage::from_trace(&trace);
        Core {
            id,
            frontend: Frontend::new(id, &config),
            fetch_buffer: VecDeque::with_capacity(config.fetch_buffer),
            rob: Rob::new(config.rob_size),
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
            last_store: FxHashMap::default(),
            cycle: 0,
            retired: 0,
            critical_sync_at: CRITICAL_SYNC_INTERVAL,
            warmup_snapshot: None,
            outstanding_loads: Vec::with_capacity(config.max_outstanding_loads + 1),
            config,
            trace,
            pending_redirect: None,
            obs: Obs::off(),
            timeq: CalendarQueue::new(),
            rob_occ: OccupancyHist::default(),
            sched_occ: OccupancyHist::default(),
            mshr_occ: OccupancyHist::default(),
        }
    }

    /// Attaches an observability handle: pipeline events, occupancy
    /// samples, TACT and criticality-detector events all flow through
    /// clones of `obs`, attributed to this core. Detached by default.
    pub fn set_obs(&mut self, obs: Obs) {
        self.detector.set_obs(obs.clone(), self.id as u32);
        self.mem.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Core id (index into the hierarchy's private caches).
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

    /// Retired µops so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// True when the whole trace has been fetched and drained.
    pub fn done(&self) -> bool {
        self.frontend.done(&self.trace) && self.fetch_buffer.is_empty() && self.rob.is_empty()
    }

    /// Criticality detector (for inspection).
    pub fn detector(&self) -> &AnyDetector {
        &self.detector
    }

    /// Snapshot of statistics (measured since the last
    /// [`Core::end_warmup`], or from the start).
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

    /// Marks the end of warm-up: subsequent [`Core::stats`] cover only the
    /// steady-state interval. Microarchitectural state (caches, predictors,
    /// learned tables) is untouched.
    pub fn end_warmup(&mut self) {
        self.warmup_snapshot = Some(self.raw_stats());
    }

    /// One cycle (retire → issue → allocate → fetch), reporting whether
    /// any pipeline stage made progress (retired, issued, allocated or
    /// fetched a µop, or took an I-cache miss). A no-progress cycle
    /// changes nothing but the clock and the bulk-reproducible per-cycle
    /// statistics, which is what makes [`run_lockstep`]'s skip safe: the
    /// skipped span is guaranteed to replay as idle ticks.
    fn tick_progress(&mut self, hier: &mut CacheHierarchy) -> bool {
        let cycle = self.cycle;
        if cycle.is_multiple_of(OCC_SAMPLE_PERIOD) {
            self.sample_occupancy(cycle);
        }
        let mut progress = self.retire_stage(cycle);
        progress |= self.issue_stage(hier, cycle);
        progress |= self.allocate_stage(cycle);
        progress |= self.fetch_stage(hier, cycle);
        self.cycle += 1;
        self.periodic_maintenance(hier);
        progress
    }

    /// Posts a wake reservation for `at`, absorbing [`Backpressure`]
    /// (a race with the queue clock re-posts as a zero-delay
    /// self-wake).
    ///
    /// [`Backpressure`]: catch_timeq::Backpressure
    fn post_wake(&mut self, at: u64, source: Source) {
        if let Err(bp) = self.timeq.post(ServiceRequest::new(at, source)) {
            let _ = self.timeq.post(ServiceRequest::new(bp.retry_at, source));
        }
    }

    /// The skip target: the earliest pending wake reservation at or
    /// after the current cycle, a lower bound on the next cycle any
    /// pipeline stage can make progress. The queue may hold front-end
    /// reservations a fetchless drain loop does not need; probing those
    /// cycles is harmless (drain ticks neither sample nor account).
    /// `None` only for a finished (or deadlocked) core.
    fn next_wake_cycle(&mut self) -> Option<u64> {
        self.timeq.peek_next(self.cycle)
    }

    /// Records the periodic occupancy samples (always-on histograms) and
    /// mirrors them to the attached sink as counter events.
    fn sample_occupancy(&mut self, cycle: u64) {
        let rob_used = self.rob.len() as u64;
        let rob_cap = self.rob.capacity() as u64;
        let sched_cap = self.config.sched_window as u64;
        let sched_used = (self.rob.unstarted() as u64).min(sched_cap);
        // Completed fills are pruned lazily, so count live entries: a
        // fill with `done == cycle` still holds its MSHR at sample time
        // (the per-cycle loop pruned `done <= cycle - 1` last issue).
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

    /// Ledger/bookkeeping housekeeping, every [`MAINT_PERIOD`] cycles.
    /// Every clock-advance path (tick, drain, skip-ahead, functional
    /// fast-forward) funnels through this or [`Core::maintenance_at`],
    /// so full and sampled runs cannot drift on boundary handling.
    fn periodic_maintenance(&mut self, hier: &mut CacheHierarchy) {
        if self.cycle.is_multiple_of(MAINT_PERIOD) {
            self.maintenance_at(hier, self.cycle);
        }
    }

    /// The maintenance body for a specific boundary cycle `now` (a
    /// multiple of [`MAINT_PERIOD`]): hierarchy ledger retirement plus
    /// pruning of store-forwarding entries older than the ROB.
    fn maintenance_at(&mut self, hier: &mut CacheHierarchy, now: u64) {
        hier.maintain(now);
        let floor = self
            .rob
            .entries()
            .front()
            .map(|e| e.id)
            .unwrap_or(self.next_id);
        self.last_store.retain(|_, id| *id >= floor);
    }

    /// Jumps the clock from `self.cycle` to `target`, replaying the
    /// per-cycle side effects of the skipped idle span exactly as the
    /// naive loop would have produced them: occupancy samples (with
    /// their observability events) at every sample period, stalled
    /// fetch-cycle accounting, and periodic maintenance at every
    /// crossed boundary, in live-tick order. `with_fetch_stalls`
    /// mirrors whether the skipped loop would have run its fetch stage
    /// (false under [`Core::drain`], which also never samples).
    fn advance_to(&mut self, hier: &mut CacheHierarchy, target: u64, with_fetch_stalls: bool) {
        let start = self.cycle;
        debug_assert!(target > start, "advance_to must move forward");
        if with_fetch_stalls {
            // Each skipped tick with fetch-buffer space and an active
            // I-cache stall counts one stalled cycle (ticks in
            // [start, target) below stall_until).
            if !self.frontend.blocked() && self.fetch_buffer.len() < self.config.fetch_buffer {
                let stalled = self
                    .frontend
                    .stall_until()
                    .min(target)
                    .saturating_sub(start);
                if stalled > 0 {
                    self.frontend.add_stall_cycles(stalled);
                }
            }
            // Samples land at multiples of OCC_SAMPLE_PERIOD in
            // [start, target); maintenance boundaries (multiples of
            // MAINT_PERIOD, itself a multiple of the sample period) in
            // (start, target]. The maintenance a tick performs for
            // cycle x runs at the end of tick x-1, so at a shared x it
            // precedes the sample the next tick opens with.
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
        } else {
            // Drain ticks neither sample nor fetch: only maintenance.
            let mut x = (start + 1).next_multiple_of(MAINT_PERIOD);
            while x <= target {
                self.maintenance_at(hier, x);
                x += MAINT_PERIOD;
            }
        }
        self.cycle = target;
    }

    /// Ticks without fetching until the pipeline is empty (fetch buffer
    /// and ROB both drained). Sampled runs call this at the end of a
    /// detailed interval so the subsequent fast-forward starts from a
    /// quiesced machine; the drained cycles fall in the unmeasured gap
    /// between interval snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails to drain within a generous cycle
    /// budget (a simulator bug).
    pub fn drain(&mut self, hier: &mut CacheHierarchy) {
        let pending = (self.rob.len() + self.fetch_buffer.len()) as u64;
        let budget = self.cycle + 1000 * pending + 1_000_000;
        while !(self.rob.is_empty() && self.fetch_buffer.is_empty()) {
            let cycle = self.cycle;
            let mut progress = self.retire_stage(cycle);
            progress |= self.issue_stage(hier, cycle);
            progress |= self.allocate_stage(cycle);
            self.cycle += 1;
            self.periodic_maintenance(hier);
            if !progress && self.config.skip_ahead {
                // Same skip as the full loop, minus occupancy samples
                // and stall accounting (drain ticks take none).
                if let Some(target) = self.next_wake_cycle() {
                    if target > self.cycle {
                        self.advance_to(hier, target, false);
                    }
                }
            }
            assert!(
                self.cycle < budget,
                "core {} failed to drain: likely deadlock at cycle {}",
                self.id,
                self.cycle
            );
        }
    }

    /// Functionally fast-forwards to trace position `until_op` (an op
    /// index, clamped to the trace length) without detailed timing.
    ///
    /// Every skipped op still performs *functional warmup*: code and data
    /// lines take the demand path through the hierarchy via
    /// [`CacheHierarchy::warm_access`] (tags, replacement, dirty state
    /// and DRAM row-buffer state all update), and branches train the
    /// predictor — so a following detailed interval starts against warm
    /// microarchitectural state. Not modelled during the skip: pipeline
    /// timing (one op per cycle is assumed), prefetchers, and the
    /// criticality detector/TACT learning, which retrain quickly once
    /// detailed simulation resumes.
    ///
    /// Requires a drained pipeline (see [`Core::drain`]); `retired` and
    /// `cycle` advance so interval accounting stays monotonic.
    pub fn fast_forward(&mut self, hier: &mut CacheHierarchy, until_op: usize) {
        debug_assert!(
            self.rob.is_empty() && self.fetch_buffer.is_empty(),
            "fast_forward requires a drained pipeline"
        );
        let until = until_op.min(self.trace.len());
        while self.frontend.cursor() < until {
            let op = self.trace.ops()[self.frontend.cursor()];
            if let Some(code_line) = self.frontend.functional_step(&op) {
                hier.warm_access(self.id, AccessKind::Code, code_line, self.cycle);
            }
            if let Some(mem) = op.mem {
                let kind = if op.class == OpClass::Store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                hier.warm_access(self.id, kind, mem.addr.line(), self.cycle);
            }
            self.retired += 1;
            self.cycle += 1;
            self.periodic_maintenance(hier);
        }
        self.frontend.end_fast_forward();
        // Dependence bookkeeping references op ids that are now
        // functionally retired; clear it so resumed detailed execution
        // treats their consumers as ready.
        self.last_writer = [None; ArchReg::COUNT];
        self.last_store.clear();
        self.outstanding_loads.clear();
        // Reservations for the abandoned detailed interval are
        // meaningless at the fast-forwarded clock; drop them.
        self.timeq.clear();
    }

    /// Runs the core to completion against `hier`, returning final stats:
    /// [`run_lockstep`] with this core alone.
    ///
    /// # Panics
    ///
    /// Panics if the core deadlocks (see [`run_lockstep`]).
    pub fn run_to_completion(&mut self, hier: &mut CacheHierarchy) -> CoreStats {
        run_lockstep(std::slice::from_mut(self), hier, usize::MAX);
        self.stats()
    }

    fn retire_stage(&mut self, cycle: u64) -> bool {
        let mut retired_any = false;
        for _ in 0..self.config.retire_width {
            let Some(entry) = self.rob.try_retire(cycle) else {
                break;
            };
            retired_any = true;
            self.retired += 1;
            self.obs.emit(EventClass::CORE, || Event {
                cycle,
                core: self.id as u32,
                kind: EventKind::Retire {
                    pc: entry.op.pc.get(),
                },
            });

            // Criticality feed.
            let mut inst = RetiredInst {
                pc: entry.op.pc,
                is_load: entry.op.class == OpClass::Load,
                hit_level: entry.hit_level,
                exec_latency: entry.complete.saturating_sub(entry.dispatch),
                src_producers: [entry.deps[0], entry.deps[1], entry.deps[2]],
                mem_producer: entry.deps[3],
                mispredicted_branch: entry.mispredicted,
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
        }
        retired_any
    }

    fn issue_stage(&mut self, hier: &mut CacheHierarchy, cycle: u64) -> bool {
        let mut int_budget = self.config.ports.int_ports;
        let mut fp_budget = self.config.ports.fp_ports;
        let mut load_budget = self.config.ports.load_ports;
        let mut store_budget = self.config.ports.store_ports;
        let mut issued_any = false;

        // Pull every wake reservation due by now into the issuable
        // mask, then scan only that mask — O(issuable) per cycle. A
        // promoted entry's effective-ready cycle has passed by
        // construction, so no per-entry readiness recheck is needed.
        self.rob.promote_ready(cycle);
        let window = self.rob.len().min(self.config.sched_window);
        let mut pos = 0;
        // Ascending mask order is deque order, so issue priority (and
        // with it every counter) is identical to the full window walk.
        while let Some(i) = self.rob.next_issuable_at_or_after(pos) {
            if i >= window {
                break;
            }
            pos = i + 1;
            if int_budget + fp_budget + load_budget + store_budget == 0 {
                break;
            }
            let entry = &self.rob.entries()[i];
            let class = entry.op.class;
            if class == OpClass::Load
                && self.outstanding_loads.len() >= self.config.max_outstanding_loads
            {
                // MSHR fills are pruned lazily — only when the list hits
                // the cap — so the common case does no per-cycle scan.
                // Everything kept (and everything pushed this cycle)
                // completes after `cycle`, so length = live occupancy.
                self.outstanding_loads.retain(|&done| done > cycle);
                if self.outstanding_loads.len() >= self.config.max_outstanding_loads {
                    continue;
                }
            }
            let budget = match class {
                OpClass::Load => &mut load_budget,
                OpClass::Store => &mut store_budget,
                OpClass::FpAdd | OpClass::FpMul => &mut fp_budget,
                _ => &mut int_budget,
            };
            if *budget == 0 {
                continue;
            }
            *budget -= 1;
            issued_any = true;

            let (complete, hit_level) = self.execute(hier, i, cycle);
            if class == OpClass::Load && hit_level.is_some_and(|l| l != catch_cache::Level::L1) {
                self.outstanding_loads.push(complete);
            }
            let entry = self.rob.entry_mut(i);
            entry.hit_level = hit_level;
            let mispredicted = entry.mispredicted;
            let id = entry.id;
            let pc = entry.op.pc.get();
            self.rob.start(i, cycle, complete);
            if self.config.skip_ahead && complete > cycle + 1 {
                // One reservation covers every consequence of this
                // completion: head retirement, consumer readiness, and
                // the MSHR slot a miss fill frees. A wake at
                // `cycle + 1` is provably dead and not posted: this
                // tick issued, so the next tick runs unskipped — and
                // any peek after it prunes the ticket as stale.
                self.post_wake(complete, Source::Exec);
            }
            self.obs.emit(EventClass::CORE, || Event {
                cycle,
                core: self.id as u32,
                kind: EventKind::Exec {
                    pc,
                    latency: complete - cycle,
                },
            });

            if mispredicted && self.pending_redirect == Some(id) {
                self.pending_redirect = None;
                let resume = complete + self.config.mispredict_penalty;
                self.frontend.resume_after_redirect(resume);
                if self.config.skip_ahead {
                    self.post_wake(resume, Source::Frontend);
                }
            }
        }
        issued_any
    }

    fn execute(
        &mut self,
        hier: &mut CacheHierarchy,
        index: usize,
        cycle: u64,
    ) -> (u64, Option<catch_cache::Level>) {
        let entry = &self.rob.entries()[index];
        let op = entry.op;
        match op.class {
            OpClass::Load => {
                // Store-to-load forwarding: the producing store is still in
                // the window (not yet retired).
                if let Some(sid) = entry.deps[3] {
                    if self.rob.producer_ready_at(sid) != Some(0) {
                        self.mem.note_forwarded_load();
                        return (cycle + 2, Some(catch_cache::Level::L1));
                    }
                }
                let feeder = entry.feeder;
                let (latency, level) = self.mem.load(hier, &op, feeder, cycle, &self.detector);
                (cycle + latency, Some(level))
            }
            OpClass::Store => {
                self.mem.store(hier, &op, cycle);
                (cycle + self.config.latencies.of(OpClass::Store), None)
            }
            class => (cycle + self.config.latencies.of(class), None),
        }
    }

    fn allocate_stage(&mut self, cycle: u64) -> bool {
        let mut allocated_any = false;
        for _ in 0..self.config.alloc_width {
            if !self.rob.has_space() {
                break;
            }
            let Some((op, mispredicted)) = self.fetch_buffer.pop_front() else {
                break;
            };
            allocated_any = true;
            let id = self.next_id;
            self.next_id += 1;

            // Register and memory dependences, in program order.
            let mut deps = [None; 4];
            for (slot, src) in deps.iter_mut().zip(op.sources()) {
                *slot = self.last_writer[src.index()];
            }
            if op.class == OpClass::Load {
                if let Some(mem) = op.mem {
                    deps[3] = self.last_store.get(&(mem.addr.get() & !7)).copied();
                }
            }
            if let Some(dst) = op.dst {
                self.last_writer[dst.index()] = Some(id);
            }
            if op.class == OpClass::Store {
                if let Some(mem) = op.mem {
                    self.last_store.insert(mem.addr.get() & !7, id);
                }
            }
            if mispredicted {
                self.pending_redirect = Some(id);
            }
            // Feeder tracking happens in program order at allocation: hint
            // first (producers only), then fold this op into the flow.
            let mut entry = RobEntry::new(id, op, deps, mispredicted);
            if op.class == OpClass::Load {
                entry.feeder = self.mem.feeder_hint(&op);
            }
            self.mem.on_alloc_op(&op);
            self.rob.allocate(entry, cycle);
            self.obs.emit(EventClass::CORE, || Event {
                cycle,
                core: self.id as u32,
                kind: EventKind::Alloc { pc: op.pc.get() },
            });
        }
        allocated_any
    }

    fn fetch_stage(&mut self, hier: &mut CacheHierarchy, cycle: u64) -> bool {
        let space = self
            .config
            .fetch_buffer
            .saturating_sub(self.fetch_buffer.len());
        if space == 0 {
            return false;
        }
        // An I-cache miss fetches nothing but is still progress: it
        // accesses the hierarchy, arms the stall timer and may issue
        // runahead prefetches. (A stalled cycle's counter increment is
        // not progress — the skip path bulk-accounts those.)
        let misses_before = self.frontend.stats().icache_misses;
        let pushed = self
            .frontend
            .fetch(&self.trace, cycle, hier, space, &mut self.fetch_buffer);
        let missed = self.frontend.stats().icache_misses != misses_before;
        if missed && self.config.skip_ahead {
            // Fetch resumes when the I-cache stall ends.
            self.post_wake(self.frontend.stall_until(), Source::Frontend);
        }
        pushed > 0 || missed
    }
}

/// Drives `cores` in lock step against the shared `hier` until each has
/// finished its trace or retired at least `until_op` µops; a core that
/// reaches either stops ticking and idles with its caches resident. Every
/// detailed OOO cycle in the simulator runs here: a whole single-core run
/// ([`Core::run_to_completion`]), a warm-up or sampled interval (a
/// finite `until_op`: the call returns after the tick that retires past
/// it, so `until_op ≤ retired < until_op + retire_width`), and the
/// multi-programmed run. A jumped span retires nothing, so that boundary
/// falls on the same tick with the skip on or off.
///
/// Stall skip-ahead (when every core's `skip_ahead` is on): only when
/// every live core had an idle cycle may the shared clock jump, and only
/// to the earliest wake across them, since a nearer event on one core
/// could feed the others through the shared LLC and DRAM. With one core
/// that is the plain single-core skip. Statistics and event streams are
/// bit-identical to per-cycle ticking.
///
/// # Panics
///
/// Panics if a core's clock reaches `1000 × total ops + 10_000_000`
/// cycles (total ops over all cores' traces), which would indicate a
/// simulator deadlock.
pub fn run_lockstep(cores: &mut [Core], hier: &mut CacheHierarchy, until_op: usize) {
    let total_ops: usize = cores.iter().map(|c| c.trace.len()).sum();
    let budget = 1000 * total_ops as u64 + 10_000_000;
    let skip_ahead = cores.iter().all(|c| c.config.skip_ahead);
    let live = |c: &Core| !c.done() && (c.retired as usize) < until_op;
    loop {
        let mut ticked = false;
        let mut all_idle = true;
        for core in cores.iter_mut().filter(|c| live(c)) {
            ticked = true;
            all_idle &= !core.tick_progress(hier);
            assert!(
                core.cycle < budget,
                "core {} exceeded cycle budget: likely deadlock at cycle {}",
                core.id,
                core.cycle
            );
        }
        if !ticked {
            return;
        }
        if all_idle && skip_ahead {
            // An idle tick changes no core's liveness, so the live set
            // here is the one that just ticked, all at the same cycle.
            let target = cores
                .iter_mut()
                .filter(|c| live(c))
                .filter_map(|c| c.next_wake_cycle())
                .min();
            if let Some(target) = target {
                for core in cores.iter_mut().filter(|c| live(c)) {
                    if target > core.cycle {
                        core.advance_to(hier, target, true);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_cache::{FixedLatencyBackend, HierarchyConfig, Level};
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
        let trace = b.build();
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = Core::new(0, trace, config);
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
        let mut core = Core::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert!(
            stats.ipc() < 1.2,
            "dependent ALU chain is ~1 IPC: {}",
            stats.ipc()
        );
    }

    #[test]
    fn load_latency_gates_dependent_chain() {
        // Pointer-chase through L1-resident lines vs. far memory.
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
        let small = Core::new(0, chain(4), config.clone())
            .run_to_completion(&mut hier())
            .ipc();
        let large = Core::new(0, chain(200_000), config)
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
        let mut core = Core::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert!(stats.memory.forwarded > 400, "{}", stats.memory.forwarded);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let body = |pattern_random: bool| {
            let mut b = TraceBuilder::new("br");
            let mut x = 7u64;
            let top = b.label();
            for i in 0..2000u64 {
                b.jump_to(top);
                b.alu(r(1), &[]);
                x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
                let taken = if pattern_random { x >> 63 == 1 } else { true };
                let tgt = b.cursor().advance(8);
                b.cond_branch(taken, tgt, &[r(1)]);
                let _ = i;
            }
            b.build()
        };
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let predictable = Core::new(0, body(false), config.clone())
            .run_to_completion(&mut hier())
            .ipc();
        let random = Core::new(0, body(true), config)
            .run_to_completion(&mut hier())
            .ipc();
        assert!(
            predictable > 1.5 * random,
            "random branches must hurt: {predictable} vs {random}"
        );
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
        let mut core = Core::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert_eq!(stats.detector.retired, 2000);
        assert_eq!(stats.instructions, 2000);
    }

    #[test]
    fn mshr_cap_limits_memory_parallelism() {
        // Independent misses: generous MSHRs overlap them; a single MSHR
        // serialises them.
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
            Core::new(0, build(), cfg)
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
    fn drain_empties_pipeline_without_fetching() {
        let mut b = TraceBuilder::new("t");
        for i in 0..200u64 {
            b.load(r(1), Addr::new(i * 64), 0);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut h = hier();
        let mut core = Core::new(0, b.build(), config);
        for _ in 0..20 {
            core.tick_progress(&mut h);
        }
        let fetched_before = core.frontend.cursor();
        core.drain(&mut h);
        assert!(core.rob.is_empty());
        assert!(core.fetch_buffer.is_empty());
        assert_eq!(
            core.retired(),
            fetched_before as u64,
            "drain retires exactly what was fetched"
        );
        assert_eq!(
            core.frontend.cursor(),
            fetched_before,
            "drain must not fetch"
        );
    }

    #[test]
    fn fast_forward_advances_and_warms_caches() {
        // Loads cycling over a small 128-line set: after fast-forwarding
        // the first half, the detailed second half should be L1 hits.
        let mut b = TraceBuilder::new("ff");
        for i in 0..2000u64 {
            b.load(r(1), Addr::new((i % 128) * 64), 0);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        config.baseline_prefetchers = false;
        let mut h = hier();
        let mut core = Core::new(0, b.build(), config);
        core.fast_forward(&mut h, 1000);
        assert_eq!(core.retired(), 1000);
        let stats = core.run_to_completion(&mut h);
        assert_eq!(stats.instructions, 2000);
        // Only the 1000 detailed loads touch the memory interface, and
        // the warmed working set makes them L1 hits.
        assert_eq!(stats.memory.loads, 1000);
        assert!(
            stats.memory.loads_by_level[0] > 950,
            "warmed set must hit in L1: {:?}",
            stats.memory.loads_by_level
        );
    }

    #[test]
    fn fast_forward_trains_branch_predictor() {
        // An alternating branch mispredicts while the predictor learns
        // the pattern; a fast-forwarded first half absorbs that learning.
        let body = || {
            let mut b = TraceBuilder::new("br");
            for i in 0..4000u64 {
                b.alu(r(1), &[]);
                let tgt = b.cursor().advance(8);
                b.cond_branch(i % 2 == 0, tgt, &[r(1)]);
            }
            b.build()
        };
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let cold = {
            let mut core = Core::new(0, body(), config.clone());
            core.run_to_completion(&mut hier()).branches
        };
        let warmed = {
            let mut h = hier();
            let mut core = Core::new(0, body(), config);
            core.fast_forward(&mut h, 4000);
            core.end_warmup();
            core.run_to_completion(&mut h).branches
        };
        assert!(cold.cond_mispredicts > 0, "cold predictor must learn");
        assert!(
            warmed.cond_mispredicts < cold.cond_mispredicts,
            "warmup must cut mispredicts: cold {} vs warmed {}",
            cold.cond_mispredicts,
            warmed.cond_mispredicts
        );
    }

    #[test]
    fn attached_sink_observes_pipeline_events_without_perturbing_stats() {
        use catch_obs::{Obs, VecSink};
        use std::sync::{Arc, Mutex};
        let build = || {
            let mut b = TraceBuilder::new("obs");
            for i in 0..400u64 {
                b.load(r(1), Addr::new((i % 512) * 64), 0);
                b.alu(r(2), &[r(1)]);
            }
            b.build()
        };
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;

        let sink = Arc::new(Mutex::new(VecSink::new()));
        let mut traced_core = Core::new(0, build(), config.clone());
        traced_core.set_obs(Obs::attached(sink.clone(), catch_obs::EventClass::ALL));
        let traced = traced_core.run_to_completion(&mut hier());

        let baseline = Core::new(0, build(), config).run_to_completion(&mut hier());
        assert_eq!(traced, baseline, "tracing must not perturb the run");

        let events = sink.lock().unwrap().take();
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        for expected in [
            "core.alloc",
            "core.exec",
            "core.retire",
            "core.rob_occupancy",
            "core.sched_occupancy",
            "core.mshr_occupancy",
        ] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
        }
        assert!(traced.rob_occ.samples > 0, "always-on hist must sample");
        assert!(
            events.iter().all(|e| e.core == 0),
            "events attributed to core 0"
        );
    }

    #[test]
    fn only_the_feeder_builds_the_memory_image() {
        // A serial pointer chase through an array: a feeder load, then a
        // load at the pointer it returned, into an L2-resident set of
        // lines.
        let build = || {
            let mut b = TraceBuilder::new("chase");
            let top = b.label();
            for i in 0..20_000u64 {
                b.jump_to(top);
                let ptr = 0x1000_0000 + (i * 7919 % 2048) * 64;
                b.load_dep(r(1), Addr::new(0x10_0000 + i * 8), ptr, &[r(3)]);
                b.load_dep(r(2), Addr::new(ptr), 0, &[r(1)]);
                b.alu(r(3), &[r(2)]);
                b.backedge(top, i != 19_999);
            }
            b.build()
        };
        let mut baseline = Core::new(0, build(), CoreConfig::baseline());
        baseline.run_to_completion(&mut hier());
        assert!(
            !baseline.mem.image_built(),
            "without TACT data prefetching the trace's loads are never hashed"
        );
        let mut catch = Core::new(0, build(), CoreConfig::catch());
        let stats = catch.run_to_completion(&mut hier());
        assert!(stats.tact.feeder_learned > 0, "{:?}", stats.tact);
        assert!(catch.mem.image_built(), "the Feeder reads the image");
    }

    #[test]
    fn loads_by_level_accounts_all_loads() {
        let mut b = TraceBuilder::new("t");
        for i in 0..500u64 {
            b.load(r(1), Addr::new(i * 64), 0);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        config.baseline_prefetchers = false;
        let mut core = Core::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        let sum: u64 = stats.memory.loads_by_level.iter().sum();
        assert_eq!(sum, stats.memory.loads);
        assert_eq!(stats.memory.loads, 500);
        // Cold sequential loads: every line is a fresh memory access.
        assert!(stats.memory.loads_by_level[3] > 400);
        let _ = Level::Memory;
    }
}
