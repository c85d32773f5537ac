//! The timing-lite core: an in-order-issue scoreboard model.
//!
//! [`LiteCore`] is the middle rung of the fidelity ladder (DESIGN.md
//! §14): it drives the **real** memory hierarchy, branch predictor,
//! criticality detector and TACT prefetchers through the same
//! [`Frontend`](crate::Frontend) and
//! [`MemoryInterface`](crate::MemoryInterface) as the full [`Core`], but
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
//! * Loads take the real demand path
//!   ([`MemoryInterface::load`](crate::MemoryInterface::load) with
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
//! The lite core is the [`Scoreboard`] back end of the same
//! [`Pipeline`] shell as [`Core`]: front end, fetch, the MSHR gate, the
//! detector feed, the clock and its idle-span replay are shared, and its
//! cycle loop is [`run_lockstep`](crate::run_lockstep) (naive per-cycle
//! ticks or stall skip-ahead over the `timeq` calendar queue) followed
//! by [`BackEnd::finish`]'s jump to the last computed retire. Blocked
//! gates (window full, MSHR full, fetch stall, mispredict redirect)
//! post their wake cycles, so idle spans collapse to O(1) queue peeks.

use crate::pipeline::{BackEnd, Pipeline};
use crate::{Core, CoreConfig, CoreStats};
use catch_cache::{CacheHierarchy, Level};
use catch_criticality::RetiredInst;
use catch_obs::{Event, EventClass, EventKind};
use catch_timeq::Source;
use catch_trace::hash::FxHashMap;
use catch_trace::{ArchReg, OpClass, Trace};
use std::collections::VecDeque;

/// The timing-lite back end: a completion-timestamp scoreboard (see the
/// module docs).
#[derive(Debug)]
pub struct Scoreboard {
    /// Cycle the last write of each register completes.
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
    /// Latest computed retire timestamp (the run's critical path).
    last_retire: u64,
}

/// The timing-lite in-order-issue core: the [`Pipeline`] shell around
/// the [`Scoreboard`] back end.
pub type LiteCore = Pipeline<Scoreboard>;

impl BackEnd for Scoreboard {
    fn new(config: &CoreConfig) -> Self {
        Scoreboard {
            reg_ready: [0; ArchReg::COUNT],
            last_store: FxHashMap::default(),
            window: VecDeque::with_capacity(config.rob_size + 1),
            sched_ring: Vec::with_capacity(config.sched_window + 1),
            last_retire: 0,
        }
    }

    fn stages(p: &mut LiteCore, hier: &mut CacheHierarchy, cycle: u64) -> bool {
        p.issue_stage(hier, cycle)
    }

    /// Ops retire at issue, so nothing waits behind the fetch buffer.
    fn is_empty(&self) -> bool {
        true
    }

    /// Unretired window entries (the analogue of ROB occupancy), and
    /// ops still waiting for operands (the full core reports unstarted
    /// ROB entries the same way). Both are pruned here, so the sample
    /// reflects live ops.
    fn occupancy(&mut self, cycle: u64) -> (u64, u64) {
        while self.window.front().is_some_and(|&retire| retire < cycle) {
            self.window.pop_front();
        }
        self.sched_ring.retain(|&start| start > cycle);
        (self.window.len() as u64, self.sched_ring.len() as u64)
    }

    /// A store whose completion has passed can no longer forward; its
    /// dependence edge has long been consumed by any load that needed
    /// it, so the entry is dead weight.
    fn prune(&mut self, now: u64, _next_id: u64) {
        self.last_store.retain(|_, (_, done)| *done >= now);
    }

    fn reset(&mut self, cycle: u64) {
        self.reg_ready = [0; ArchReg::COUNT];
        self.last_store.clear();
        self.window.clear();
        self.sched_ring.clear();
        self.last_retire = cycle;
    }

    /// Advances the clock to the last computed retire timestamp so
    /// `cycles` covers the full critical path (the full core ticks
    /// through its ROB drain; the lite core jumps). Only maintenance
    /// boundaries are replayed in the tail: the machine is
    /// architecturally empty, and the full core's drain ticks take no
    /// occupancy samples either.
    fn finish(p: &mut LiteCore, hier: &mut CacheHierarchy) {
        let target = p.back.last_retire;
        if target > p.cycle {
            p.advance_to(hier, target, false);
        }
    }
}

impl LiteCore {
    fn issue_stage(&mut self, hier: &mut CacheHierarchy, cycle: u64) -> bool {
        let mut int_budget = self.config.ports.int_ports;
        let mut fp_budget = self.config.ports.fp_ports;
        let mut load_budget = self.config.ports.load_ports;
        let mut store_budget = self.config.ports.store_ports;
        let mut issued = 0usize;
        while issued < self.config.alloc_width {
            // Window gate: op n waits for op n − rob_size to retire.
            if self.back.window.len() >= self.config.rob_size {
                let gate = *self.back.window.front().expect("non-empty window");
                if gate > cycle {
                    if self.config.skip_ahead && issued == 0 {
                        self.post_wake(gate, Source::Exec);
                    }
                    break;
                }
                self.back.window.pop_front();
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
            if op.class == OpClass::Load && self.mshrs_full(cycle) {
                if self.config.skip_ahead && issued == 0 {
                    if let Some(&free_at) = self.outstanding_loads.iter().min() {
                        self.post_wake(free_at, Source::Exec);
                    }
                }
                break;
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
                ready = ready.max(self.back.reg_ready[src.index()]);
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
            let window = &self.back.window;
            let mut exec_at = cycle;
            if window.len() >= self.config.sched_window {
                let gate = window[window.len() - self.config.sched_window];
                ready = ready.max(gate);
                exec_at = exec_at.max(gate);
            }
            // The op holds a scheduler slot until its operands arrive
            // (occupancy sampling only).
            self.back.sched_ring.push(ready);

            let (complete, hit_level) = match op.class {
                OpClass::Load => {
                    let mem = op.mem.expect("loads reference memory");
                    let key = mem.addr.get() & !7;
                    let mut forwarded = false;
                    if let Some(&(sid, store_done)) = self.back.last_store.get(&key) {
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
                        self.back
                            .last_store
                            .insert(mem.addr.get() & !7, (id, complete));
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
                self.back.reg_ready[dst.index()] = complete;
            }

            // In-order retirement: monotone, at most retire_width per
            // cycle (op n retires no earlier than one cycle after op
            // n − retire_width).
            let window = &mut self.back.window;
            let mut retire = complete.max(self.back.last_retire);
            if window.len() >= self.config.retire_width {
                let pace = window[window.len() - self.config.retire_width];
                retire = retire.max(pace + 1);
            }
            self.back.last_retire = retire;
            window.push_back(retire);

            self.obs.emit(EventClass::CORE, || Event {
                cycle,
                core: self.id as u32,
                kind: EventKind::Exec {
                    pc: op.pc.get(),
                    latency: complete.saturating_sub(ready).max(1),
                },
            });
            // Criticality feed, program order, computed latencies.
            self.retire_to_detector(
                RetiredInst {
                    pc: op.pc,
                    is_load: op.class == OpClass::Load,
                    hit_level,
                    exec_latency: complete.saturating_sub(ready),
                    src_producers: [deps[0], deps[1], deps[2]],
                    mem_producer: deps[3],
                    mispredicted_branch: mispredicted,
                },
                cycle,
            );

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
    use crate::pipeline::shared_tests::{self as shared, hier, r};
    use catch_trace::{Addr, TraceBuilder};

    #[test]
    fn independent_alus_reach_high_ipc() {
        shared::independent_alus_reach_high_ipc::<Scoreboard>();
    }

    #[test]
    fn dependent_chain_is_serialised() {
        shared::dependent_chain_is_serialised::<Scoreboard>();
    }

    #[test]
    fn load_latency_gates_dependent_chain() {
        shared::load_latency_gates_dependent_chain::<Scoreboard>();
    }

    #[test]
    fn store_to_load_forwarding_is_fast() {
        shared::store_to_load_forwarding_is_fast::<Scoreboard>();
    }

    #[test]
    fn detector_sees_all_retired_instructions() {
        shared::detector_sees_all_retired_instructions::<Scoreboard>();
    }

    #[test]
    fn mshr_cap_limits_memory_parallelism() {
        shared::mshr_cap_limits_memory_parallelism::<Scoreboard>();
    }

    #[test]
    fn engines_agree_bit_exactly() {
        shared::engines_agree_bit_exactly::<Scoreboard>();
    }

    #[test]
    fn fast_forward_warms_and_detailed_region_hits() {
        shared::fast_forward_warms_the_detailed_region::<Scoreboard>();
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
