//! Heuristic criticality marking (the alternative the paper argues
//! against).
//!
//! Prior proposals (Tune et al. PACT'02, Subramaniam et al. HPCA'09)
//! detect critical loads from observable *symptoms* rather than the
//! dependence graph: loads in the shadow of a branch mispredict, loads
//! with long observed latency, loads feeding other loads. The paper notes
//! such heuristics "often flag many more PCs than are truly critical" —
//! e.g. a mispredicted branch in the shadow of an unrelated load miss
//! still tags that load.
//!
//! [`HeuristicDetector`] implements that family over the same retired
//! stream the graph detector consumes, so the two can be swapped under
//! CATCH and compared (the `heuristic` experiment, `run_experiment heuristic`).

use crate::config::DetectorConfig;
use crate::detector::DetectorStats;
use crate::graph::RetiredInst;
use crate::table::CriticalLoadTable;
use catch_obs::{Event, EventClass, EventKind, Obs};
use catch_trace::key::{Key, KeySink};
use catch_trace::Pc;
use std::collections::VecDeque;

/// Tuning knobs of the heuristic detector.
#[derive(Clone, Debug, PartialEq)]
pub struct HeuristicConfig {
    /// Retired ops scanned backwards from a mispredicted branch
    /// ("shadow" window).
    pub shadow_window: usize,
    /// Dependence levels followed from the branch when flagging its
    /// producer loads.
    pub dep_depth: usize,
    /// Loads with at least this observed latency are flagged outright.
    pub latency_threshold: u64,
}

impl Key for HeuristicConfig {
    fn key(&self, sink: &mut KeySink) {
        let HeuristicConfig {
            shadow_window,
            dep_depth,
            latency_threshold,
        } = self;
        shadow_window.key(sink);
        dep_depth.key(sink);
        latency_threshold.key(sink);
    }
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            shadow_window: 8,
            dep_depth: 2,
            latency_threshold: 30,
        }
    }
}

struct WindowEntry {
    seq: u64,
    inst: RetiredInst,
}

/// Symptom-based critical-load marking with the same table interface as
/// the graph detector.
pub struct HeuristicDetector {
    detector_config: DetectorConfig,
    config: HeuristicConfig,
    table: CriticalLoadTable,
    window: VecDeque<WindowEntry>,
    next_seq: u64,
    stats: DetectorStats,
    retired_since_relearn: u64,
    obs: Obs,
    obs_core: u32,
}

impl std::fmt::Debug for HeuristicDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeuristicDetector")
            .field("window", &self.window.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl HeuristicDetector {
    /// Creates a heuristic detector sharing the graph detector's table
    /// geometry, tracked levels and re-learn cadence.
    pub fn new(detector_config: DetectorConfig, config: HeuristicConfig) -> Self {
        let table =
            CriticalLoadTable::new(detector_config.table_entries, detector_config.table_ways);
        HeuristicDetector {
            detector_config,
            config,
            table,
            window: VecDeque::with_capacity(64),
            next_seq: 0,
            stats: DetectorStats::default(),
            retired_since_relearn: 0,
            obs: Obs::off(),
            obs_core: 0,
        }
    }

    /// Attaches an observability handle; table insertions/evictions emit
    /// criticality-class events attributed to `core`. Detached by default.
    pub fn set_obs(&mut self, obs: Obs, core: u32) {
        self.obs = obs;
        self.obs_core = core;
    }

    /// Counters (walks stay zero: no graph is maintained).
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Sequence number the next retired instruction receives.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    fn tracked(&self, inst: &RetiredInst) -> bool {
        inst.is_load
            && inst
                .hit_level
                .map(|l| self.detector_config.track_levels.contains(&l))
                .unwrap_or(false)
    }

    fn flag(&mut self, pc: Pc, cycle: u64) {
        self.stats.critical_load_observations += 1;
        let evicted = self.table.insert(pc);
        self.obs.emit(EventClass::CRIT, || Event {
            cycle,
            core: self.obs_core,
            kind: EventKind::CritInsert { pc: pc.get() },
        });
        if let Some(victim) = evicted {
            self.obs.emit(EventClass::CRIT, || Event {
                cycle,
                core: self.obs_core,
                kind: EventKind::CritEvict { pc: victim.get() },
            });
        }
    }

    /// Observes one retired instruction.
    pub fn on_retire(&mut self, inst: RetiredInst) {
        self.on_retire_at(inst, 0);
    }

    /// Cycle-stamped variant of [`HeuristicDetector::on_retire`]; the
    /// cycle only feeds attached event sinks and never alters detection.
    pub fn on_retire_at(&mut self, inst: RetiredInst, cycle: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.retired += 1;
        self.retired_since_relearn += 1;

        // Symptom 1: long observed latency.
        if self.tracked(&inst) && inst.exec_latency >= self.config.latency_threshold {
            self.flag(inst.pc, cycle);
        }

        // Symptom 2: mispredicted branch — flag its producer loads (up to
        // dep_depth) and every tracked load in its shadow window.
        if inst.mispredicted_branch {
            // Producer closure.
            let mut frontier: Vec<u64> = inst.src_producers.iter().flatten().copied().collect();
            for _ in 0..self.config.dep_depth {
                let mut next = Vec::new();
                for p in frontier.drain(..) {
                    if let Some(e) = self.window.iter().find(|e| e.seq == p) {
                        let einst = e.inst;
                        next.extend(einst.src_producers.iter().flatten().copied());
                        if self.tracked(&einst) {
                            self.flag(einst.pc, cycle);
                        }
                    }
                }
                frontier = next;
            }
            // Shadow window: recent tracked loads, related or not — the
            // over-flagging the paper warns about.
            let shadow: Vec<Pc> = self
                .window
                .iter()
                .rev()
                .take(self.config.shadow_window)
                .filter(|e| self.tracked(&e.inst))
                .map(|e| e.inst.pc)
                .collect();
            for pc in shadow {
                self.flag(pc, cycle);
            }
        }

        self.window.push_back(WindowEntry { seq, inst });
        if self.window.len() > 64 {
            self.window.pop_front();
        }

        if self.retired_since_relearn >= self.detector_config.confidence_reset_interval {
            self.retired_since_relearn = 0;
            self.stats.relearns += 1;
            self.table.relearn();
        }
    }

    /// True if `pc` is currently flagged with full confidence.
    pub fn is_critical(&self, pc: Pc) -> bool {
        self.table.is_critical(pc)
    }

    /// The table of flagged PCs.
    pub fn table(&self) -> &CriticalLoadTable {
        &self.table
    }
}

/// Either detection mechanism behind one interface, so the core model can
/// swap them per configuration.
#[derive(Debug)]
pub enum AnyDetector {
    /// The paper's buffered-DDG detector.
    Graph(crate::detector::CriticalityDetector),
    /// The symptom-heuristic alternative.
    Heuristic(HeuristicDetector),
}

impl AnyDetector {
    /// Observes a retired instruction.
    pub fn on_retire(&mut self, inst: RetiredInst) {
        match self {
            AnyDetector::Graph(d) => d.on_retire(inst),
            AnyDetector::Heuristic(d) => d.on_retire(inst),
        }
    }

    /// Cycle-stamped variant of [`AnyDetector::on_retire`] for
    /// observability; the cycle never alters detection.
    pub fn on_retire_at(&mut self, inst: RetiredInst, cycle: u64) {
        match self {
            AnyDetector::Graph(d) => d.on_retire_at(inst, cycle),
            AnyDetector::Heuristic(d) => d.on_retire_at(inst, cycle),
        }
    }

    /// Attaches an observability handle to whichever detector is active.
    pub fn set_obs(&mut self, obs: Obs, core: u32) {
        match self {
            AnyDetector::Graph(d) => d.set_obs(obs, core),
            AnyDetector::Heuristic(d) => d.set_obs(obs, core),
        }
    }

    /// True if `pc` is currently flagged critical.
    pub fn is_critical(&self, pc: Pc) -> bool {
        match self {
            AnyDetector::Graph(d) => d.is_critical(pc),
            AnyDetector::Heuristic(d) => d.is_critical(pc),
        }
    }

    /// Currently flagged PCs, read straight from the active table.
    pub fn critical_pcs(&self) -> impl Iterator<Item = Pc> + '_ {
        match self {
            AnyDetector::Graph(d) => d.table(),
            AnyDetector::Heuristic(d) => d.table(),
        }
        .critical_pcs()
    }

    /// Counters.
    pub fn stats(&self) -> DetectorStats {
        match self {
            AnyDetector::Graph(d) => d.stats(),
            AnyDetector::Heuristic(d) => d.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_cache::Level;

    fn pc(n: u64) -> Pc {
        Pc::new(0x1000 + n * 4)
    }

    fn detector() -> HeuristicDetector {
        HeuristicDetector::new(DetectorConfig::paper(), HeuristicConfig::default())
    }

    #[test]
    fn long_latency_loads_are_flagged() {
        let mut d = detector();
        for _ in 0..3 {
            d.on_retire(RetiredInst::new(pc(1), 40).as_load(Level::L2));
        }
        assert!(d.is_critical(pc(1)));
        // Short-latency load stays unflagged.
        for _ in 0..3 {
            d.on_retire(RetiredInst::new(pc(2), 10).as_load(Level::L2));
        }
        assert!(!d.is_critical(pc(2)));
    }

    #[test]
    fn shadow_of_mispredict_overflags_unrelated_loads() {
        let mut d = detector();
        for _ in 0..3 {
            // An L2-hit load completely unrelated to the branch...
            let seq = d.next_seq();
            d.on_retire(RetiredInst::new(pc(5), 15).as_load(Level::L2));
            // ...an independent producer for the branch...
            d.on_retire(RetiredInst::new(pc(6), 1));
            // ...and a mispredicted branch depending only on the ALU.
            d.on_retire(RetiredInst::compute(pc(7), 1, &[seq + 1]).as_mispredicted_branch());
        }
        // The heuristic flags the unrelated load anyway — the
        // over-flagging the paper criticises (a graph walk would not).
        assert!(d.is_critical(pc(5)));
    }

    #[test]
    fn producer_loads_of_mispredicted_branch_are_flagged() {
        let mut d = detector();
        for _ in 0..3 {
            let load_seq = d.next_seq();
            d.on_retire(RetiredInst::new(pc(1), 15).as_load(Level::Llc));
            d.on_retire(RetiredInst::compute(pc(2), 1, &[load_seq]).as_mispredicted_branch());
        }
        assert!(d.is_critical(pc(1)));
    }

    #[test]
    fn untracked_levels_never_flag() {
        let mut d = detector(); // tracks L2/LLC only
        for _ in 0..5 {
            d.on_retire(RetiredInst::new(pc(3), 100).as_load(Level::L1));
        }
        assert!(!d.is_critical(pc(3)));
    }

    #[test]
    fn any_detector_dispatches_both_kinds() {
        let mut graph = AnyDetector::Graph(crate::detector::CriticalityDetector::new(
            DetectorConfig::paper(),
        ));
        let mut heur = AnyDetector::Heuristic(detector());
        for d in [&mut graph, &mut heur] {
            d.on_retire(RetiredInst::new(pc(1), 40).as_load(Level::L2));
            let _ = d.is_critical(pc(1));
            let _ = d.critical_pcs().count();
            assert_eq!(d.stats().retired, 1);
        }
    }
}
