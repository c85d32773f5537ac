//! TACT — Timeliness Aware and Criticality Triggered prefetchers
//! (paper Section IV-B).
//!
//! TACT accelerates a small set of *critical* load PCs (identified by the
//! criticality detector) by prefetching their lines from the L2/LLC into
//! the L1, just in time. Three data prefetchers are expressed over the
//! `(Target-PC, Trigger-PC, Association)` tuple of the paper:
//!
//! * **Deep Self** — trigger is the target itself; association is an
//!   address stride, prefetched at a learned *safe* distance (up to 16).
//! * **Cross** — trigger is a different load PC touching the same 4 KB
//!   page (found via the [`TriggerCache`]); association is a stable
//!   address delta.
//! * **Feeder** — trigger is the load producing the target's address
//!   (found by register-flow tracking); association is
//!   `address = scale × data + base` with scale ∈ {1, 2, 4, 8}.
//!
//! [`CodeRunahead`] is the fourth member: it runs the front end's
//! next-prefetch instruction pointer ahead of a stalled fetch to prefetch
//! code lines into the L1I.

pub mod area;
mod code;
mod regfile;
mod selfstride;
mod target;
mod trigger_cache;

pub use code::{CodeRunahead, CodeRunaheadStats};
pub use regfile::FeederRegFile;
pub use selfstride::SelfStride;
pub use target::{TargetEntry, TargetTable};
pub use trigger_cache::TriggerCache;

use crate::image::MemoryImage;
use catch_trace::hash::FxHashMap;
use catch_trace::key::{Key, KeySink};
use catch_trace::{Addr, MicroOp, OpClass, Pc};

/// Configuration of the TACT data prefetchers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TactConfig {
    /// Critical target PCs tracked (paper: 32).
    pub max_targets: usize,
    /// Maximum Deep-Self prefetch distance (paper: 16).
    pub deep_max_distance: u8,
    /// Feeder self-prefetch distance (paper: up to 4).
    pub feeder_distance: u8,
    /// Instances of a trigger candidate examined before switching
    /// (paper: 16).
    pub cross_instances_per_candidate: u8,
    /// Full passes over the candidate set before giving up (paper: 4).
    pub cross_candidate_wraps: u8,
    /// Enable the Cross prefetcher.
    pub enable_cross: bool,
    /// Enable the Deep-Self prefetcher.
    pub enable_deep: bool,
    /// Enable the Feeder prefetcher.
    pub enable_feeder: bool,
    /// Maximum prefetch addresses returned per observed load.
    pub max_prefetches_per_event: usize,
}

impl TactConfig {
    /// Paper defaults.
    pub fn paper() -> Self {
        TactConfig {
            max_targets: 32,
            deep_max_distance: 16,
            feeder_distance: 4,
            cross_instances_per_candidate: 16,
            cross_candidate_wraps: 4,
            enable_cross: true,
            enable_deep: true,
            enable_feeder: true,
            max_prefetches_per_event: 8,
        }
    }

    /// Disables every data component (used to build up Figure 13).
    pub fn disabled() -> Self {
        TactConfig {
            enable_cross: false,
            enable_deep: false,
            enable_feeder: false,
            ..TactConfig::paper()
        }
    }
}

impl Key for TactConfig {
    fn key(&self, sink: &mut KeySink) {
        let TactConfig {
            max_targets,
            deep_max_distance,
            feeder_distance,
            cross_instances_per_candidate,
            cross_candidate_wraps,
            enable_cross,
            enable_deep,
            enable_feeder,
            max_prefetches_per_event,
        } = self;
        max_targets.key(sink);
        deep_max_distance.key(sink);
        feeder_distance.key(sink);
        cross_instances_per_candidate.key(sink);
        cross_candidate_wraps.key(sink);
        enable_cross.key(sink);
        enable_deep.key(sink);
        enable_feeder.key(sink);
        max_prefetches_per_event.key(sink);
    }
}

impl Default for TactConfig {
    fn default() -> Self {
        TactConfig::paper()
    }
}

/// Which TACT component produced a prefetch address (used by the
/// observability layer to attribute `tact.target` events).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TactComponent {
    /// Deep self-targets (same-PC strided chains).
    Deep,
    /// Cross trigger→target pairs.
    Cross,
    /// Feeder-driven pre-computation.
    Feeder,
}

/// Counters for the TACT data prefetchers.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TactStats {
    /// Critical targets allocated.
    pub targets_allocated: u64,
    /// Prefetch addresses emitted by Deep-Self (distance 1 included).
    pub deep_issued: u64,
    /// Prefetch addresses emitted by Cross triggers.
    pub cross_issued: u64,
    /// Prefetch addresses emitted by Feeder triggers.
    pub feeder_issued: u64,
    /// Cross associations learned.
    pub cross_learned: u64,
    /// Feeder (trigger, scale, base) associations learned.
    pub feeder_learned: u64,
}

impl catch_trace::counters::Counters for TactStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn catch_trace::counters::CounterSink) {
        use catch_trace::counters::push_counter;
        push_counter(out, prefix, "targets_allocated", self.targets_allocated);
        push_counter(out, prefix, "deep_issued", self.deep_issued);
        push_counter(out, prefix, "cross_issued", self.cross_issued);
        push_counter(out, prefix, "feeder_issued", self.feeder_issued);
        push_counter(out, prefix, "cross_learned", self.cross_learned);
        push_counter(out, prefix, "feeder_learned", self.feeder_learned);
    }
}

impl catch_trace::counters::FromCounters for TactStats {
    fn from_counters(
        prefix: &str,
        src: &mut catch_trace::counters::CounterSource,
    ) -> Result<Self, String> {
        Ok(TactStats {
            targets_allocated: src.take(prefix, "targets_allocated")?,
            deep_issued: src.take(prefix, "deep_issued")?,
            cross_issued: src.take(prefix, "cross_issued")?,
            feeder_issued: src.take(prefix, "feeder_issued")?,
            cross_learned: src.take(prefix, "cross_learned")?,
            feeder_learned: src.take(prefix, "feeder_learned")?,
        })
    }
}

/// The TACT data-prefetch engine.
///
/// Drive it with:
/// * [`TactPrefetcher::note_critical`] when the criticality detector
///   flags a load PC,
/// * [`TactPrefetcher::on_op`] for every retired micro-op (register-flow
///   tracking for the Feeder),
/// * [`TactPrefetcher::on_load`] for every executed load — fills a
///   caller-owned buffer with the byte addresses TACT wants prefetched
///   into the L1D.
#[derive(Debug)]
pub struct TactPrefetcher {
    config: TactConfig,
    targets: TargetTable,
    trigger_cache: TriggerCache,
    regfile: FeederRegFile,
    /// Learned cross associations: trigger PC → (target PC, delta bytes).
    cross_assocs: FxHashMap<Pc, Vec<(Pc, i64)>>,
    /// Last observed address of cross-candidate PCs under training.
    candidate_addrs: FxHashMap<Pc, Addr>,
    /// Confirmed feeder PCs → (self-stride state, dependent targets).
    feeders: FxHashMap<Pc, (SelfStride, Vec<Pc>)>,
    stats: TactStats,
}

impl TactPrefetcher {
    /// Creates the engine.
    pub fn new(config: TactConfig) -> Self {
        TactPrefetcher {
            targets: TargetTable::new(config.max_targets),
            trigger_cache: TriggerCache::new(8, 8),
            regfile: FeederRegFile::new(),
            cross_assocs: FxHashMap::default(),
            candidate_addrs: FxHashMap::default(),
            feeders: FxHashMap::default(),
            config,
            stats: TactStats::default(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &TactConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> TactStats {
        self.stats
    }

    /// Registers `pc` as a critical target (idempotent; refreshes LRU).
    pub fn note_critical(&mut self, pc: Pc) {
        if self.targets.touch_or_allocate(pc) {
            self.stats.targets_allocated += 1;
        }
    }

    /// True if `pc` currently has a target entry.
    pub fn is_target(&self, pc: Pc) -> bool {
        self.targets.contains(pc)
    }

    /// Observes register flow of a micro-op at allocation/rename time
    /// (in program order, as the paper's feeder-tracking hardware does).
    pub fn on_op(&mut self, op: &MicroOp) {
        if !self.config.enable_feeder {
            return;
        }
        self.regfile.observe(op);
    }

    /// The feeder candidate (PC, value) for a load at allocation time —
    /// the youngest load in program order feeding its sources. Capture
    /// this *before* calling [`TactPrefetcher::on_op`] for the same op,
    /// and pass it to [`TactPrefetcher::on_load`] at execution.
    pub fn feeder_hint(&self, op: &MicroOp) -> Option<(Pc, u64)> {
        if !self.config.enable_feeder {
            return None;
        }
        self.regfile.youngest_feeder(op)
    }

    /// Observes an executed load and writes the byte addresses TACT wants
    /// prefetched into the L1D to `out`, each tagged with the component
    /// that produced it (for `tact.target` attribution). `out` is cleared
    /// first, so one caller-owned buffer serves every load and the steady
    /// state allocates nothing. `feeder` is the allocation-time hint from
    /// [`TactPrefetcher::feeder_hint`].
    pub fn on_load(
        &mut self,
        op: &MicroOp,
        feeder: Option<(Pc, u64)>,
        image: &MemoryImage,
        out: &mut Vec<(Addr, TactComponent)>,
    ) {
        debug_assert_eq!(op.class, OpClass::Load, "on_load takes loads");
        out.clear();
        let Some(mem) = op.mem else {
            return;
        };
        let pc = op.pc;
        let addr = mem.addr;

        // 1. Every load is a potential future cross trigger.
        self.trigger_cache.observe(addr.page(), pc);
        if let Some(last) = self.candidate_addrs.get_mut(&pc) {
            *last = addr;
        }

        // 2. Fire learned cross associations where this load triggers.
        if self.config.enable_cross {
            if let Some(assocs) = self.cross_assocs.get(&pc) {
                for &(target, delta) in assocs {
                    if self.targets.contains(target) {
                        self.stats.cross_issued += 1;
                        out.push((addr.offset(delta), TactComponent::Cross));
                    }
                }
            }
        }

        // 3. Fire feeder prefetches where this load feeds targets.
        if self.config.enable_feeder {
            self.feeder_fire(pc, addr, op.load_value(), image, out);
        }

        // 4. Train (and fire Deep-Self) when this load is itself a target:
        // the one probe of the target table this load makes.
        if let Some(slot) = self.targets.find(pc) {
            self.train_target(slot, op, addr, feeder, out);
        }

        out.truncate(self.config.max_prefetches_per_event);
        out.dedup_by_key(|(a, _)| a.line());
    }

    /// Training and Deep-Self emission for the critical target in `slot`.
    fn train_target(
        &mut self,
        slot: usize,
        op: &MicroOp,
        addr: Addr,
        feeder: Option<(Pc, u64)>,
        out: &mut Vec<(Addr, TactComponent)>,
    ) {
        self.targets.touch(slot);

        // Deep Self.
        let before = out.len();
        let deep = self.targets.entry_mut(slot).self_stride.train_and_predict(
            addr,
            self.config.deep_max_distance,
            self.config.enable_deep,
        );
        out.extend(deep.map(|a| (a, TactComponent::Deep)));
        self.stats.deep_issued += (out.len() - before) as u64;

        // Cross training.
        if self.config.enable_cross {
            self.train_cross(slot, op.pc, addr);
        }

        // Feeder training.
        if self.config.enable_feeder {
            self.train_feeder(slot, op.pc, addr, feeder);
        }
    }

    fn train_cross(&mut self, slot: usize, target_pc: Pc, addr: Addr) {
        // Split borrows: the page's candidates stay in the trigger cache.
        let candidates = self.trigger_cache.candidates(addr.page());
        let entry = self.targets.entry_mut(slot);
        if entry.cross_learned.is_some() {
            return;
        }
        let cross = &mut entry.cross;
        // Ensure a current candidate.
        if cross.current.is_none() {
            let next = candidates
                .iter()
                .copied()
                .find(|&c| c != target_pc && !cross.tried.contains(&Some(c)));
            if let Some(c) = next {
                cross.adopt(c);
                self.candidate_addrs.entry(c).or_insert(Addr::new(0));
            }
            return;
        }
        let cand = cross.current.expect("checked above");
        let Some(&trig_addr) = self.candidate_addrs.get(&cand) else {
            return;
        };
        let delta = addr.get() as i64 - trig_addr.get() as i64;
        let stable = cross.observe_delta(delta);
        if stable && delta.unsigned_abs() < catch_trace::PAGE_BYTES {
            entry.cross_learned = Some((cand, delta));
            self.cross_assocs
                .entry(cand)
                .or_default()
                .push((target_pc, delta));
            self.stats.cross_learned += 1;
        } else if cross.exhausted(
            self.config.cross_instances_per_candidate,
            self.config.cross_candidate_wraps,
        ) {
            // Move to the next candidate PC from the trigger cache.
            let next = candidates
                .iter()
                .copied()
                .find(|&c| c != target_pc && !cross.tried.contains(&Some(c)));
            cross.advance(next);
        }
    }

    fn train_feeder(&mut self, slot: usize, target_pc: Pc, addr: Addr, feeder: Option<(Pc, u64)>) {
        // The youngest load (in program order) feeding this load's
        // sources, captured by the core at allocation time.
        let Some((feeder_pc, feeder_value)) = feeder else {
            return;
        };
        if feeder_pc == target_pc {
            return; // self dependence is Deep-Self's job
        }
        let entry = self.targets.entry_mut(slot);
        let confirmed = entry.feeder.observe_candidate(feeder_pc);
        if !confirmed {
            return;
        }
        // Learn address = scale * data + base.
        if entry.feeder.learned.is_none() {
            if let Some((scale, base)) = entry.feeder.train_relation(addr, feeder_value) {
                entry.feeder.learned = Some((scale, base));
                self.stats.feeder_learned += 1;
                self.feeders
                    .entry(feeder_pc)
                    .or_insert_with(|| (SelfStride::new(), Vec::new()))
                    .1
                    .push(target_pc);
            }
        }
    }

    /// Emits target prefetches into `out` when a confirmed feeder
    /// executes.
    fn feeder_fire(
        &mut self,
        pc: Pc,
        addr: Addr,
        value: u64,
        image: &MemoryImage,
        out: &mut Vec<(Addr, TactComponent)>,
    ) {
        let Some((self_stride, dependents)) = self.feeders.get_mut(&pc) else {
            return;
        };
        // Train the feeder's own stride and predict future feeder
        // addresses (the paper prefetches the feeder up to distance 4 and
        // chains the returned data into target prefetches).
        let feeder_future = self_stride.train_and_predict_all(addr, self.config.feeder_distance);

        let before = out.len();
        for &target_pc in dependents.iter() {
            let Some(entry) = self.targets.get(target_pc) else {
                continue;
            };
            let Some((scale, base)) = entry.feeder.learned else {
                continue;
            };
            let target = |data: u64| {
                let addr = (scale as u64).wrapping_mul(data).wrapping_add(base as u64);
                (Addr::new(addr), TactComponent::Feeder)
            };
            // Distance 0: the data just loaded points at the next target.
            out.push(target(value));
            // Deeper: chase future feeder instances through the image.
            out.extend(
                feeder_future
                    .clone()
                    .filter_map(|fa| image.read(fa))
                    .map(target),
            );
        }
        self.stats.feeder_issued += (out.len() - before) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_trace::ArchReg;

    fn load(pc_n: u64, addr: u64, value: u64) -> MicroOp {
        MicroOp::load(Pc::new(pc_n), ArchReg::new(1), Addr::new(addr), value, &[])
    }

    /// One `on_load` into a fresh buffer, addresses only.
    fn fire(
        t: &mut TactPrefetcher,
        op: &MicroOp,
        feeder: Option<(Pc, u64)>,
        image: &MemoryImage,
    ) -> Vec<Addr> {
        let mut out = Vec::new();
        t.on_load(op, feeder, image, &mut out);
        out.into_iter().map(|(addr, _)| addr).collect()
    }

    fn dep_load(pc_n: u64, addr: u64, value: u64, src: ArchReg) -> MicroOp {
        MicroOp::load(
            Pc::new(pc_n),
            ArchReg::new(2),
            Addr::new(addr),
            value,
            &[src],
        )
    }

    #[test]
    fn deep_self_prefetches_critical_strided_load() {
        let mut t = TactPrefetcher::new(TactConfig::paper());
        let image = MemoryImage::new();
        let pc = Pc::new(0x100);
        t.note_critical(pc);
        let mut last = Vec::new();
        for i in 0..40u64 {
            let op = MicroOp::load(pc, ArchReg::new(1), Addr::new(i * 64), 0, &[]);
            last = fire(&mut t, &op, None, &image);
        }
        assert!(!last.is_empty(), "stable stride must emit prefetches");
        assert!(t.stats().deep_issued > 0);
        // Deep distance grows past 1.
        let max = last.iter().map(|a| a.get()).max().unwrap();
        assert!(max > 40 * 64, "deep prefetch reaches ahead: {max}");
        assert!(max <= 39 * 64 + 16 * 64 + 64, "capped at distance 16");
    }

    #[test]
    fn non_critical_loads_do_not_prefetch() {
        let mut t = TactPrefetcher::new(TactConfig::paper());
        let image = MemoryImage::new();
        for i in 0..40u64 {
            let out = fire(&mut t, &load(0x100, i * 64, 0), None, &image);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn cross_association_learns_and_fires() {
        let mut t = TactPrefetcher::new(TactConfig::paper());
        let image = MemoryImage::new();
        let trigger = Pc::new(0x200);
        let target = Pc::new(0x204);
        t.note_critical(target);
        // Trigger at X, target at X + 256, same page, random-ish X.
        for i in 0..80u64 {
            let x = 4096 * 10 + (i % 8) * 320; // stays in a few pages
            fire(&mut t, &load(0x200, x, 0), None, &image);
            fire(&mut t, &load(0x204, x + 256, 0), None, &image);
        }
        assert!(t.stats().cross_learned > 0, "delta must be learned");
        // Now a fresh trigger instance fires a prefetch for the target.
        let out = fire(&mut t, &load(0x200, 4096 * 20, 0), None, &image);
        assert!(out.contains(&Addr::new(4096 * 20 + 256)), "out {out:?}");
        let _ = (trigger, target);
    }

    #[test]
    fn feeder_association_chases_pointers() {
        let mut t = TactPrefetcher::new(TactConfig::paper());
        // Memory: feeder array at 0x1000 stride 8 holding pointers to
        // targets at value addresses.
        let mut image = MemoryImage::new();
        let src = ArchReg::new(1);
        for i in 0..200u64 {
            image.record(Addr::new(0x1000 + i * 8), 0x100000 + i * 4096);
        }
        let target = Pc::new(0x304);
        t.note_critical(target);
        let mut fired = Vec::new();
        for i in 0..60u64 {
            let feeder_op = MicroOp::load(
                Pc::new(0x300),
                src,
                Addr::new(0x1000 + i * 8),
                0x100000 + i * 4096,
                &[],
            );
            t.on_op(&feeder_op);
            let f = fire(&mut t, &feeder_op, None, &image);
            fired.extend(f);
            let target_op = dep_load(0x304, 0x100000 + i * 4096, 7, src);
            t.on_op(&target_op);
            let hint = t.feeder_hint(&target_op);
            fire(&mut t, &target_op, hint, &image);
        }
        assert!(t.stats().feeder_learned > 0, "feeder relation learned");
        assert!(
            t.stats().feeder_issued > 0,
            "feeder prefetches fired: {fired:?}"
        );
        // The fired addresses must be future target addresses.
        assert!(fired
            .iter()
            .any(|a| a.get() >= 0x100000 && a.get() % 4096 == 0));
    }

    #[test]
    fn component_disable_flags_respected() {
        let mut t = TactPrefetcher::new(TactConfig::disabled());
        let image = MemoryImage::new();
        let pc = Pc::new(0x100);
        t.note_critical(pc);
        for i in 0..40u64 {
            let out = fire(&mut t, &load(0x100, i * 64, 0), None, &image);
            assert!(out.is_empty(), "disabled TACT must stay quiet");
        }
        assert_eq!(t.stats().deep_issued, 0);
    }

    #[test]
    fn emission_is_capped_per_event() {
        let cfg = TactConfig {
            max_prefetches_per_event: 2,
            ..TactConfig::paper()
        };
        let mut t = TactPrefetcher::new(cfg);
        let image = MemoryImage::new();
        t.note_critical(Pc::new(0x100));
        for i in 0..60u64 {
            let out = fire(&mut t, &load(0x100, i * 64, 0), None, &image);
            assert!(out.len() <= 2);
        }
    }

    #[test]
    fn reused_buffer_gives_a_fresh_calls_output() {
        // Two identical engines see one stream mixing Deep-Self, Cross and
        // Feeder activity. One writes every load into a buffer still
        // holding junk and the previous load's output; the other gets a
        // new buffer per load. Outputs, order and tags must agree.
        let mut reused = TactPrefetcher::new(TactConfig::paper());
        let mut fresh = TactPrefetcher::new(TactConfig::paper());
        let mut image = MemoryImage::new();
        for i in 0..300u64 {
            image.record(Addr::new(0x1000 + i * 8), 0x100000 + i * 4096);
        }
        for t in [&mut reused, &mut fresh] {
            for pc in [0x204, 0x304, 0x400] {
                t.note_critical(Pc::new(pc));
            }
        }
        let src = ArchReg::new(1);
        let mut buf = vec![(Addr::new(0xdead_0000), TactComponent::Cross); 12];
        let mut components = Vec::new();
        for i in 0..240u64 {
            let x = 4096 * 10 + (i % 8) * 320;
            let ops = [
                MicroOp::load(
                    Pc::new(0x300),
                    src,
                    Addr::new(0x1000 + i * 8),
                    0x100000 + i * 4096,
                    &[],
                ),
                dep_load(0x304, 0x100000 + i * 4096, 7, src),
                load(0x200, x, 0),
                load(0x204, x + 256, 0),
                load(0x400, 0x800000 + i * 64, 0),
            ];
            for op in &ops {
                let hint = reused.feeder_hint(op);
                assert_eq!(hint, fresh.feeder_hint(op));
                reused.on_op(op);
                fresh.on_op(op);
                buf.push((Addr::new(0xbeef_0000 + i), TactComponent::Feeder));
                reused.on_load(op, hint, &image, &mut buf);
                let mut new = Vec::new();
                fresh.on_load(op, hint, &image, &mut new);
                assert_eq!(buf, new, "load {i} at {}", op.pc);
                components.extend(new.iter().map(|&(_, c)| c));
            }
        }
        assert_eq!(reused.stats(), fresh.stats());
        for c in [
            TactComponent::Deep,
            TactComponent::Cross,
            TactComponent::Feeder,
        ] {
            assert!(components.contains(&c), "{c:?} never fired");
        }
    }
}
