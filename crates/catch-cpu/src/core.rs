//! The out-of-order back end and its [`Core`].

use crate::pipeline::{BackEnd, Pipeline};
use crate::rob::{Rob, RobEntry};
use crate::CoreConfig;
use catch_cache::CacheHierarchy;
use catch_criticality::RetiredInst;
use catch_obs::{Event, EventClass, EventKind};
use catch_timeq::Source;
use catch_trace::hash::FxHashMap;
use catch_trace::OpClass;

/// The out-of-order back end: in-order allocation into the ROB,
/// age-ordered scheduling over the oldest `sched_window` entries with
/// per-class port limits, loads and stores against the hierarchy with
/// store-to-load forwarding, and in-order retirement.
#[derive(Debug)]
pub struct Ooo {
    rob: Rob,
    /// Pending front-end redirect: the id of the mispredicted branch
    /// whose issue resumes fetch.
    pending_redirect: Option<u64>,
    /// Youngest store id per 8-byte-aligned address, the memory
    /// dependence a later load takes at allocation.
    last_store: FxHashMap<u64, u64>,
}

/// One out-of-order core bound to a trace: the [`Pipeline`] shell around
/// the [`Ooo`] back end.
pub type Core = Pipeline<Ooo>;

impl BackEnd for Ooo {
    fn new(config: &CoreConfig) -> Self {
        Ooo {
            rob: Rob::new(config.rob_size),
            pending_redirect: None,
            last_store: FxHashMap::default(),
        }
    }

    /// Retire → issue → allocate.
    fn stages(p: &mut Core, hier: &mut CacheHierarchy, cycle: u64) -> bool {
        let mut progress = p.retire_stage(cycle);
        progress |= p.issue_stage(hier, cycle);
        progress |= p.allocate_stage(cycle);
        progress
    }

    fn is_empty(&self) -> bool {
        self.rob.is_empty()
    }

    /// ROB entries, and unissued entries (the scheduler's pressure).
    fn occupancy(&mut self, _cycle: u64) -> (u64, u64) {
        (self.rob.len() as u64, self.rob.unstarted() as u64)
    }

    /// A store older than the oldest ROB entry has retired, so no load
    /// still to allocate can forward from it.
    fn prune(&mut self, _now: u64, next_id: u64) {
        let floor = self.rob.entries().front().map(|e| e.id).unwrap_or(next_id);
        self.last_store.retain(|_, id| *id >= floor);
    }

    fn reset(&mut self, _cycle: u64) {
        self.last_store.clear();
    }
}

impl Core {
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
        let pending = (self.back.rob.len() + self.fetch_buffer.len()) as u64;
        let budget = self.cycle + 1000 * pending + 1_000_000;
        while !(self.back.rob.is_empty() && self.fetch_buffer.is_empty()) {
            let progress = Ooo::stages(self, hier, self.cycle);
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

    fn retire_stage(&mut self, cycle: u64) -> bool {
        let mut retired_any = false;
        for _ in 0..self.config.retire_width {
            let Some(entry) = self.back.rob.try_retire(cycle) else {
                break;
            };
            retired_any = true;
            self.retire_to_detector(
                RetiredInst {
                    pc: entry.op.pc,
                    is_load: entry.op.class == OpClass::Load,
                    hit_level: entry.hit_level,
                    exec_latency: entry.complete.saturating_sub(entry.dispatch),
                    src_producers: [entry.deps[0], entry.deps[1], entry.deps[2]],
                    mem_producer: entry.deps[3],
                    mispredicted_branch: entry.mispredicted,
                },
                cycle,
            );
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
        self.back.rob.promote_ready(cycle);
        let window = self.back.rob.len().min(self.config.sched_window);
        let mut pos = 0;
        // Ascending mask order is deque order, so issue priority (and
        // with it every counter) is identical to the full window walk.
        while let Some(i) = self.back.rob.next_issuable_at_or_after(pos) {
            if i >= window {
                break;
            }
            pos = i + 1;
            if int_budget + fp_budget + load_budget + store_budget == 0 {
                break;
            }
            let class = self.back.rob.entries()[i].op.class;
            if class == OpClass::Load && self.mshrs_full(cycle) {
                continue;
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
            let entry = self.back.rob.entry_mut(i);
            entry.hit_level = hit_level;
            let mispredicted = entry.mispredicted;
            let id = entry.id;
            let pc = entry.op.pc.get();
            self.back.rob.start(i, cycle, complete);
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

            if mispredicted && self.back.pending_redirect == Some(id) {
                self.back.pending_redirect = None;
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
        let entry = &self.back.rob.entries()[index];
        let op = entry.op;
        match op.class {
            OpClass::Load => {
                // Store-to-load forwarding: the producing store is still in
                // the window (not yet retired).
                if let Some(sid) = entry.deps[3] {
                    if self.back.rob.producer_ready_at(sid) != Some(0) {
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
            if !self.back.rob.has_space() {
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
                    deps[3] = self.back.last_store.get(&(mem.addr.get() & !7)).copied();
                }
            }
            if let Some(dst) = op.dst {
                self.last_writer[dst.index()] = Some(id);
            }
            if op.class == OpClass::Store {
                if let Some(mem) = op.mem {
                    self.back.last_store.insert(mem.addr.get() & !7, id);
                }
            }
            if mispredicted {
                self.back.pending_redirect = Some(id);
            }
            // Feeder tracking happens in program order at allocation: hint
            // first (producers only), then fold this op into the flow.
            let mut entry = RobEntry::new(id, op, deps, mispredicted);
            if op.class == OpClass::Load {
                entry.feeder = self.mem.feeder_hint(&op);
            }
            self.mem.on_alloc_op(&op);
            self.back.rob.allocate(entry, cycle);
            self.obs.emit(EventClass::CORE, || Event {
                cycle,
                core: self.id as u32,
                kind: EventKind::Alloc { pc: op.pc.get() },
            });
        }
        allocated_any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::shared_tests::{self as shared, hier, r};
    use catch_cache::Level;
    use catch_trace::{Addr, TraceBuilder};

    #[test]
    fn independent_alus_reach_high_ipc() {
        shared::independent_alus_reach_high_ipc::<Ooo>();
    }

    #[test]
    fn dependent_chain_is_serialised() {
        shared::dependent_chain_is_serialised::<Ooo>();
    }

    #[test]
    fn load_latency_gates_dependent_chain() {
        shared::load_latency_gates_dependent_chain::<Ooo>();
    }

    #[test]
    fn store_to_load_forwarding_is_fast() {
        shared::store_to_load_forwarding_is_fast::<Ooo>();
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
        shared::detector_sees_all_retired_instructions::<Ooo>();
    }

    #[test]
    fn mshr_cap_limits_memory_parallelism() {
        shared::mshr_cap_limits_memory_parallelism::<Ooo>();
    }

    #[test]
    fn engines_agree_bit_exactly() {
        shared::engines_agree_bit_exactly::<Ooo>();
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
        assert!(core.back.rob.is_empty());
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
        shared::fast_forward_warms_the_detailed_region::<Ooo>();
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
