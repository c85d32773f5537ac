//! The pipeline shell both detailed cores share.
//!
//! [`Pipeline`] owns everything that is the same in the out-of-order
//! [`Core`](crate::Core) and the timing-lite
//! [`LiteCore`](crate::LiteCore): the front end and fetch buffer, the
//! memory interface and criticality detector, the clock, the wake
//! queue, the occupancy histograms and warm-up snapshot. Every way the
//! clock moves (a tick, a skipped idle span, a functional fast-forward)
//! is written here once. A [`BackEnd`] supplies only the stages between
//! fetch and retirement and the few facts the shell asks of them.

use crate::config::{CoreConfig, DetectorKind};
use crate::frontend::Frontend;
use crate::memory::MemoryInterface;
use crate::stats::CoreStats;
use catch_cache::{AccessKind, CacheHierarchy};
use catch_criticality::{AnyDetector, CriticalityDetector, HeuristicDetector, RetiredInst};
use catch_obs::{Event, EventClass, EventKind, Obs, OccupancyHist, OCC_SAMPLE_PERIOD};
use catch_prefetch::MemoryImage;
use catch_timeq::{CalendarQueue, ServiceRequest, Source};
use catch_trace::{ArchReg, MicroOp, OpClass, Trace};
use std::collections::VecDeque;

/// How often (in retired µops) newly detected critical PCs are pushed to
/// TACT.
const CRITICAL_SYNC_INTERVAL: u64 = 512;

/// Cadence (in cycles) of ledger/bookkeeping maintenance. A multiple of
/// [`OCC_SAMPLE_PERIOD`], which the skip-ahead bulk replay relies on.
const MAINT_PERIOD: u64 = 65_536;

/// The part of a detailed core that differs between the out-of-order
/// ([`Ooo`](crate::Ooo)) and timing-lite ([`Scoreboard`](crate::Scoreboard))
/// models. [`Pipeline`] calls these hooks; everything else is shared.
pub trait BackEnd: Sized {
    /// An empty back end for `config`.
    fn new(config: &CoreConfig) -> Self;

    /// This cycle's stages ahead of fetch, reporting whether any made
    /// progress. A no-progress call must change nothing the shell's
    /// idle-span replay does not reproduce, and must have posted a wake
    /// for the cycle it can next progress at (when `skip_ahead` is on).
    fn stages(p: &mut Pipeline<Self>, hier: &mut CacheHierarchy, cycle: u64) -> bool;

    /// True when no fetched µop is still in flight behind the fetch
    /// buffer.
    fn is_empty(&self) -> bool;

    /// `(window, scheduler)` occupancy at `cycle` for the periodic
    /// samples; the shell clamps the scheduler count to `sched_window`.
    fn occupancy(&mut self, cycle: u64) -> (u64, u64);

    /// Drops store-forwarding entries that can no longer forward, at
    /// maintenance boundary `now` (`next_id` is the next op id).
    fn prune(&mut self, now: u64, next_id: u64);

    /// Forgets in-flight state after a functional fast-forward to
    /// `cycle`.
    fn reset(&mut self, cycle: u64);

    /// Closes a run after the last µop left the fetch buffer
    /// ([`Pipeline::run_to_completion`] calls it; the default does
    /// nothing).
    fn finish(_p: &mut Pipeline<Self>, _hier: &mut CacheHierarchy) {}
}

/// One detailed core bound to a trace: the shared shell around back end
/// `B`.
///
/// [`run_lockstep`] drives one or more pipelines against a shared
/// hierarchy; [`Pipeline::run_to_completion`] is its single-core form.
#[derive(Debug)]
pub struct Pipeline<B: BackEnd> {
    pub(crate) id: usize,
    pub(crate) config: CoreConfig,
    pub(crate) trace: Trace,
    pub(crate) frontend: Frontend,
    pub(crate) fetch_buffer: VecDeque<(MicroOp, bool)>,
    pub(crate) mem: MemoryInterface,
    pub(crate) detector: AnyDetector,
    /// Program-order id of the next allocated (or issued) µop.
    pub(crate) next_id: u64,
    /// Id of the last writer of each architectural register.
    pub(crate) last_writer: [Option<u64>; ArchReg::COUNT],
    pub(crate) cycle: u64,
    retired: u64,
    critical_sync_at: u64,
    /// Stats snapshot taken at the end of warm-up; `stats()` subtracts it.
    warmup_snapshot: Option<CoreStats>,
    /// Completion cycles of loads currently outstanding to the hierarchy
    /// (bounded by `max_outstanding_loads` — the L1D MSHR file), pruned
    /// lazily by [`Pipeline::mshrs_full`].
    pub(crate) outstanding_loads: Vec<u64>,
    /// The cycle at which [`Pipeline::mshrs_full`] last found every
    /// load MSHR held. No load issues for the rest of that cycle, so the
    /// file stays full and later calls in the same cycle skip the scan.
    mshrs_full_at: Option<u64>,
    pub(crate) obs: Obs,
    /// The event queue driving stall skip-ahead: every wake source
    /// posts a [`ServiceRequest`] at its event cycle, and the idle-skip
    /// target is an O(1) queue peek. Posting is skipped when
    /// `skip_ahead` is off (idle spans are then walked tick by tick).
    timeq: CalendarQueue,
    /// Window occupancy (ROB, or the lite core's in-flight ops),
    /// sampled every [`OCC_SAMPLE_PERIOD`] cycles.
    rob_occ: OccupancyHist,
    /// Scheduler pressure clamped to the window, same cadence.
    sched_occ: OccupancyHist,
    /// Load-MSHR occupancy, same cadence.
    mshr_occ: OccupancyHist,
    /// The back end's own state.
    pub(crate) back: B,
}

impl<B: BackEnd> Pipeline<B> {
    /// Creates a core for `trace` with the given configuration.
    pub fn new(id: usize, trace: Trace, config: CoreConfig) -> Self {
        let image = MemoryImage::from_trace(&trace);
        Pipeline {
            id,
            frontend: Frontend::new(id, &config),
            fetch_buffer: VecDeque::with_capacity(config.fetch_buffer),
            mem: MemoryInterface::new(id, &config, image),
            detector: match &config.detector_kind {
                DetectorKind::Graph => {
                    AnyDetector::Graph(CriticalityDetector::new(config.detector.clone()))
                }
                DetectorKind::Heuristic(h) => AnyDetector::Heuristic(HeuristicDetector::new(
                    config.detector.clone(),
                    h.clone(),
                )),
            },
            next_id: 0,
            last_writer: [None; ArchReg::COUNT],
            cycle: 0,
            retired: 0,
            critical_sync_at: CRITICAL_SYNC_INTERVAL,
            warmup_snapshot: None,
            outstanding_loads: Vec::with_capacity(config.max_outstanding_loads + 1),
            mshrs_full_at: None,
            obs: Obs::off(),
            timeq: CalendarQueue::new(),
            rob_occ: OccupancyHist::default(),
            sched_occ: OccupancyHist::default(),
            mshr_occ: OccupancyHist::default(),
            back: B::new(&config),
            config,
            trace,
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

    /// Retired µops so far (the lite core retires at issue).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// True when the whole trace has been fetched and drained.
    pub fn done(&self) -> bool {
        self.frontend.done(&self.trace) && self.fetch_buffer.is_empty() && self.back.is_empty()
    }

    /// Criticality detector (for inspection).
    pub fn detector(&self) -> &AnyDetector {
        &self.detector
    }

    /// Snapshot of statistics (measured since the last
    /// [`Pipeline::end_warmup`], or from the start).
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

    /// Marks the end of warm-up: subsequent [`Pipeline::stats`] cover
    /// only the steady-state interval. Microarchitectural state (caches,
    /// predictors, learned tables) is untouched.
    pub fn end_warmup(&mut self) {
        self.warmup_snapshot = Some(self.raw_stats());
    }

    /// Runs the core to completion against `hier`, returning final stats:
    /// [`run_lockstep`] with this core alone, then the back end's
    /// [`BackEnd::finish`].
    ///
    /// # Panics
    ///
    /// Panics if the core deadlocks (see [`run_lockstep`]).
    pub fn run_to_completion(&mut self, hier: &mut CacheHierarchy) -> CoreStats {
        run_lockstep(std::slice::from_mut(self), hier, usize::MAX);
        B::finish(self, hier);
        self.stats()
    }

    /// One cycle (sample → back-end stages → fetch → maintenance),
    /// reporting whether any stage made progress (moved a µop or took
    /// an I-cache miss). A no-progress cycle changes nothing but the
    /// clock and the bulk-reproducible per-cycle statistics, which is
    /// what makes [`run_lockstep`]'s skip safe: the skipped span is
    /// guaranteed to replay as idle ticks.
    pub(crate) fn tick_progress(&mut self, hier: &mut CacheHierarchy) -> bool {
        let cycle = self.cycle;
        if cycle.is_multiple_of(OCC_SAMPLE_PERIOD) {
            self.sample_occupancy(cycle);
        }
        let mut progress = B::stages(self, hier, cycle);
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
    pub(crate) fn post_wake(&mut self, at: u64, source: Source) {
        if let Err(bp) = self.timeq.post(ServiceRequest::new(at, source)) {
            let _ = self.timeq.post(ServiceRequest::new(bp.retry_at, source));
        }
    }

    /// The skip target: the earliest pending wake reservation at or
    /// after the current cycle, a lower bound on the next cycle any
    /// stage can make progress. The queue may hold front-end
    /// reservations a fetchless drain loop does not need; probing those
    /// cycles is harmless (drain ticks neither sample nor account).
    /// `None` only for a finished (or deadlocked) core.
    pub(crate) fn next_wake_cycle(&mut self) -> Option<u64> {
        self.timeq.peek_next(self.cycle)
    }

    /// Records the periodic occupancy samples (always-on histograms) and
    /// mirrors them to the attached sink as counter events.
    fn sample_occupancy(&mut self, cycle: u64) {
        let (rob_used, sched_used) = self.back.occupancy(cycle);
        let rob_cap = self.config.rob_size as u64;
        let sched_cap = self.config.sched_window as u64;
        let sched_used = sched_used.min(sched_cap);
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
    /// fast-forward) funnels through this or [`Pipeline::maintenance_at`],
    /// so full and sampled runs cannot drift on boundary handling.
    pub(crate) fn periodic_maintenance(&mut self, hier: &mut CacheHierarchy) {
        if self.cycle.is_multiple_of(MAINT_PERIOD) {
            self.maintenance_at(hier, self.cycle);
        }
    }

    /// The maintenance body for a specific boundary cycle `now` (a
    /// multiple of [`MAINT_PERIOD`]): hierarchy ledger retirement plus
    /// the back end's store-forwarding prune.
    fn maintenance_at(&mut self, hier: &mut CacheHierarchy, now: u64) {
        hier.maintain(now);
        self.back.prune(now, self.next_id);
    }

    /// Jumps the clock from `self.cycle` to `target`, replaying the
    /// per-cycle side effects of the skipped idle span exactly as the
    /// naive loop would have produced them: occupancy samples (with
    /// their observability events) at every sample period, stalled
    /// fetch-cycle accounting, and periodic maintenance at every
    /// crossed boundary, in live-tick order. `with_fetch_stalls`
    /// mirrors whether the skipped loop would have run its fetch stage
    /// (false for the OOO drain and the lite tail, which also never
    /// sample).
    pub(crate) fn advance_to(
        &mut self,
        hier: &mut CacheHierarchy,
        target: u64,
        with_fetch_stalls: bool,
    ) {
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
            // Fetchless ticks neither sample nor fetch: only maintenance.
            let mut x = (start + 1).next_multiple_of(MAINT_PERIOD);
            while x <= target {
                self.maintenance_at(hier, x);
                x += MAINT_PERIOD;
            }
        }
        self.cycle = target;
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
    /// Requires a drained pipeline (see [`Pipeline::drain`]); `retired`
    /// and `cycle` advance so interval accounting stays monotonic.
    pub fn fast_forward(&mut self, hier: &mut CacheHierarchy, until_op: usize) {
        debug_assert!(
            self.back.is_empty() && self.fetch_buffer.is_empty(),
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
        self.outstanding_loads.clear();
        self.mshrs_full_at = None;
        self.back.reset(self.cycle);
        // Reservations for the abandoned detailed interval are
        // meaningless at the fast-forwarded clock; drop them.
        self.timeq.clear();
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

    /// True when every load MSHR is held at `cycle`. Completed fills
    /// are pruned lazily — only when the list hits the cap — so the
    /// common case does no per-cycle scan. Everything kept (and
    /// everything pushed this cycle) completes after `cycle`, so length
    /// is live occupancy. A full file is remembered for the rest of
    /// `cycle`: the issue scan asks once per issuable load.
    pub(crate) fn mshrs_full(&mut self, cycle: u64) -> bool {
        let cap = self.config.max_outstanding_loads;
        if self.mshrs_full_at == Some(cycle) {
            debug_assert!(self.outstanding_loads.len() >= cap);
            return true;
        }
        if self.outstanding_loads.len() < cap {
            return false;
        }
        self.outstanding_loads.retain(|&done| done > cycle);
        let full = self.outstanding_loads.len() >= cap;
        if full {
            self.mshrs_full_at = Some(cycle);
        }
        full
    }

    /// Retires one µop at `cycle`: its retire event, the retired count,
    /// the criticality feed (in program order; `hit_level` is kept for
    /// loads only), and every [`CRITICAL_SYNC_INTERVAL`] retires the
    /// push of detected critical PCs to TACT.
    pub(crate) fn retire_to_detector(&mut self, mut inst: RetiredInst, cycle: u64) {
        self.obs.emit(EventClass::CORE, || Event {
            cycle,
            core: self.id as u32,
            kind: EventKind::Retire { pc: inst.pc.get() },
        });
        self.retired += 1;
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
}

/// Drives `cores` in lock step against the shared `hier` until each has
/// finished its trace or retired at least `until_op` µops; a core that
/// reaches either stops ticking and idles with its caches resident. Every
/// detailed cycle in the simulator runs here, on either back end: a whole
/// single-core run ([`Pipeline::run_to_completion`]), a warm-up or
/// sampled interval (a finite `until_op`: the call returns after the tick
/// that retires past it, so `until_op ≤ retired < until_op + width`), and
/// the multi-programmed run. A jumped span retires nothing, so that
/// boundary falls on the same tick with the skip on or off.
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
pub fn run_lockstep<B: BackEnd>(
    cores: &mut [Pipeline<B>],
    hier: &mut CacheHierarchy,
    until_op: usize,
) {
    let total_ops: usize = cores.iter().map(|c| c.trace.len()).sum();
    let budget = 1000 * total_ops as u64 + 10_000_000;
    let skip_ahead = cores.iter().all(|c| c.config.skip_ahead);
    let live = |c: &Pipeline<B>| !c.done() && (c.retired as usize) < until_op;
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

/// Unit behaviour both back ends must show, written once: the `core`
/// and `lite` test modules run each body on their own back end.
#[cfg(test)]
pub(crate) mod shared_tests {
    use super::*;
    use catch_cache::{FixedLatencyBackend, HierarchyConfig};
    use catch_trace::{Addr, TraceBuilder};

    pub(crate) fn hier() -> CacheHierarchy {
        CacheHierarchy::new(
            &HierarchyConfig::skylake_server(1),
            Box::new(FixedLatencyBackend::new(200)),
        )
    }

    pub(crate) fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    pub(crate) fn engines_agree_bit_exactly<B: BackEnd>() {
        // The naive per-cycle loop and the calendar-queue skip must
        // produce identical stats, across a warm-up split too.
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
        for base in [CoreConfig::baseline(), CoreConfig::catch()] {
            let run = |skip_ahead: bool| {
                let mut config = base.clone();
                config.skip_ahead = skip_ahead;
                let mut h = hier();
                let mut core = Pipeline::<B>::new(0, build(), config);
                run_lockstep(std::slice::from_mut(&mut core), &mut h, 2000);
                core.end_warmup();
                core.run_to_completion(&mut h)
            };
            assert_eq!(run(false), run(true), "loops must agree bit-exactly");
        }
    }

    pub(crate) fn independent_alus_reach_high_ipc<B: BackEnd>() {
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
        let mut core = Pipeline::<B>::new(0, trace, config);
        let stats = core.run_to_completion(&mut hier());
        assert!(
            stats.ipc() > 2.5,
            "independent ALU stream should issue near width: IPC {}",
            stats.ipc()
        );
    }

    pub(crate) fn dependent_chain_is_serialised<B: BackEnd>() {
        let mut b = TraceBuilder::new("chain");
        b.alu(r(1), &[]);
        for _ in 0..2000 {
            b.alu(r(1), &[r(1)]);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = Pipeline::<B>::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert!(
            stats.ipc() < 1.2,
            "dependent ALU chain is ~1 IPC: {}",
            stats.ipc()
        );
    }

    pub(crate) fn load_latency_gates_dependent_chain<B: BackEnd>() {
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
        let small = Pipeline::<B>::new(0, chain(4), config.clone())
            .run_to_completion(&mut hier())
            .ipc();
        let large = Pipeline::<B>::new(0, chain(200_000), config)
            .run_to_completion(&mut hier())
            .ipc();
        assert!(
            small > 3.0 * large,
            "L1-resident chase {small} must beat DRAM chase {large}"
        );
    }

    pub(crate) fn store_to_load_forwarding_is_fast<B: BackEnd>() {
        let mut b = TraceBuilder::new("fwd");
        b.alu(r(1), &[]);
        for i in 0..500u64 {
            b.store(Addr::new(0x5000 + i * 8), &[r(1)]);
            b.load_dep(r(2), Addr::new(0x5000 + i * 8), 0, &[]);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = Pipeline::<B>::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert!(stats.memory.forwarded > 400, "{}", stats.memory.forwarded);
    }

    pub(crate) fn detector_sees_all_retired_instructions<B: BackEnd>() {
        let mut b = TraceBuilder::new("t");
        for i in 0..1000u64 {
            b.load(r(1), Addr::new((i % 64) * 64), 0);
            b.alu(r(2), &[r(1)]);
        }
        let mut config = CoreConfig::baseline();
        config.perfect_l1i = true;
        let mut core = Pipeline::<B>::new(0, b.build(), config);
        let stats = core.run_to_completion(&mut hier());
        assert_eq!(stats.detector.retired, 2000);
        assert_eq!(stats.instructions, 2000);
    }

    pub(crate) fn mshr_cap_limits_memory_parallelism<B: BackEnd>() {
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
            Pipeline::<B>::new(0, build(), cfg)
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

    pub(crate) fn fast_forward_warms_the_detailed_region<B: BackEnd>() {
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
        let mut core = Pipeline::<B>::new(0, b.build(), config);
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
}
