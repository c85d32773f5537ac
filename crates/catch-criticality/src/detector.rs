//! The complete detector: graph + table + re-learn cadence.

use crate::config::DetectorConfig;
use crate::graph::{DdgGraph, RetiredInst};
use crate::table::CriticalLoadTable;
use catch_obs::{Event, EventClass, EventKind, Obs};
use catch_trace::Pc;

/// Counters exposed by the detector.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Instructions observed at retirement.
    pub retired: u64,
    /// Critical-path walks performed.
    pub walks: u64,
    /// Critical load observations recorded into the table.
    pub critical_load_observations: u64,
    /// Total critical-path steps walked (the hardware walk occupies the
    /// graph for roughly this many cycles; the 2.5× buffer absorbs
    /// retirement during walks, per Section IV-A).
    pub walk_steps: u64,
    /// Confidence re-learn events.
    pub relearns: u64,
    /// Graph overflows (buffer discarded).
    pub overflows: u64,
}

impl catch_trace::counters::Counters for DetectorStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn catch_trace::counters::CounterSink) {
        use catch_trace::counters::push_counter;
        push_counter(out, prefix, "retired", self.retired);
        push_counter(out, prefix, "walks", self.walks);
        push_counter(
            out,
            prefix,
            "critical_load_observations",
            self.critical_load_observations,
        );
        push_counter(out, prefix, "walk_steps", self.walk_steps);
        push_counter(out, prefix, "relearns", self.relearns);
        push_counter(out, prefix, "overflows", self.overflows);
    }
}

impl catch_trace::counters::FromCounters for DetectorStats {
    fn from_counters(
        prefix: &str,
        src: &mut catch_trace::counters::CounterSource,
    ) -> Result<Self, String> {
        Ok(DetectorStats {
            retired: src.take(prefix, "retired")?,
            walks: src.take(prefix, "walks")?,
            critical_load_observations: src.take(prefix, "critical_load_observations")?,
            walk_steps: src.take(prefix, "walk_steps")?,
            relearns: src.take(prefix, "relearns")?,
            overflows: src.take(prefix, "overflows")?,
        })
    }
}

/// Hardware-style criticality detector (paper Section IV-A).
///
/// Feed every retired instruction to [`CriticalityDetector::on_retire`];
/// query [`CriticalityDetector::is_critical`] at dispatch time to decide
/// whether a load PC deserves TACT prefetching.
#[derive(Debug)]
pub struct CriticalityDetector {
    config: DetectorConfig,
    graph: DdgGraph,
    table: CriticalLoadTable,
    stats: DetectorStats,
    retired_since_relearn: u64,
    obs: Obs,
    obs_core: u32,
}

impl CriticalityDetector {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> Self {
        let table = CriticalLoadTable::new(config.table_entries, config.table_ways);
        let graph = DdgGraph::new(config.clone());
        CriticalityDetector {
            config,
            graph,
            table,
            stats: DetectorStats::default(),
            retired_since_relearn: 0,
            obs: Obs::off(),
            obs_core: 0,
        }
    }

    /// Attaches an observability handle; graph walks and table
    /// insertions/evictions emit criticality-class events attributed to
    /// `core`. Detached by default.
    pub fn set_obs(&mut self, obs: Obs, core: u32) {
        self.obs = obs;
        self.obs_core = core;
    }

    /// Configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> DetectorStats {
        DetectorStats {
            overflows: self.graph.overflows(),
            ..self.stats
        }
    }

    /// Sequence number that will be assigned to the next retired
    /// instruction; the core uses these to describe producers.
    pub fn next_seq(&self) -> u64 {
        self.graph.next_seq()
    }

    /// Observes a retired instruction; walks and flushes the graph when
    /// the window threshold is reached.
    pub fn on_retire(&mut self, inst: RetiredInst) {
        self.on_retire_at(inst, 0);
    }

    /// Cycle-stamped variant of [`CriticalityDetector::on_retire`]; the
    /// cycle only feeds attached event sinks and never alters detection.
    pub fn on_retire_at(&mut self, inst: RetiredInst, cycle: u64) {
        self.stats.retired += 1;
        self.retired_since_relearn += 1;
        self.graph.push(inst);

        if self.graph.ready_to_walk() {
            self.stats.walks += 1;
            // One walk feeds both the step count and the table, in path
            // order (youngest first).
            let mut path_len = 0u32;
            let mut observed = 0u32;
            self.graph.walk_critical_path(|_, load| {
                path_len += 1;
                let Some((pc, level)) = load else { return };
                if !self.config.track_levels.contains(&level) {
                    return;
                }
                self.stats.critical_load_observations += 1;
                observed += 1;
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
            });
            self.stats.walk_steps += u64::from(path_len);
            self.obs.emit(EventClass::CRIT, || Event {
                cycle,
                core: self.obs_core,
                kind: EventKind::CritWalk {
                    path_len,
                    critical_loads: observed,
                },
            });
            self.graph.flush();
        }

        if self.retired_since_relearn >= self.config.confidence_reset_interval {
            self.retired_since_relearn = 0;
            self.stats.relearns += 1;
            self.table.relearn();
        }
    }

    /// True if `pc` is currently flagged critical with full confidence.
    pub fn is_critical(&self, pc: Pc) -> bool {
        self.table.is_critical(pc)
    }

    /// Currently flagged critical PCs, collected (the allocation-free
    /// form is `table().critical_pcs()`).
    pub fn critical_pcs(&self) -> Vec<Pc> {
        self.table.critical_pcs().collect()
    }

    /// Access to the underlying table (diagnostics, examples).
    pub fn table(&self) -> &CriticalLoadTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_cache::Level;

    fn small_config() -> DetectorConfig {
        DetectorConfig {
            rob_size: 8,
            quantize_shift: 0,
            rename_latency: 0,
            confidence_reset_interval: 1000,
            ..DetectorConfig::paper()
        }
    }

    fn pc(n: u64) -> Pc {
        Pc::new(0x1000 + n * 4)
    }

    /// Feeds a repeating pattern: a critical L2-hitting load feeding a
    /// dependence chain, plus independent noise loads that hit L1.
    fn feed_pattern(det: &mut CriticalityDetector, repetitions: usize) {
        for _ in 0..repetitions {
            let seq = det.next_seq();
            det.on_retire(RetiredInst::new(pc(0), 15).as_load(Level::L2));
            det.on_retire(RetiredInst::compute(pc(1), 10, &[seq]));
            det.on_retire(RetiredInst::compute(pc(2), 10, &[seq + 1]));
            // Noise: independent fast L1 load.
            det.on_retire(RetiredInst::new(pc(3), 5).as_load(Level::L1));
        }
    }

    #[test]
    fn detects_recurring_critical_load() {
        let mut det = CriticalityDetector::new(small_config());
        feed_pattern(&mut det, 40); // enough for several walks
        assert!(det.stats().walks > 0);
        assert!(det.is_critical(pc(0)), "L2-hit chain head must be critical");
        assert!(
            !det.is_critical(pc(3)),
            "L1-hit noise load must not be tracked (level filter)"
        );
    }

    #[test]
    fn level_filter_follows_config() {
        let cfg = small_config().with_track_levels(&[Level::L1]);
        let mut det = CriticalityDetector::new(cfg);
        feed_pattern(&mut det, 40);
        // Now only L1-hitting critical loads qualify; the L2 chain head is
        // excluded even though it is on the path.
        assert!(!det.is_critical(pc(0)));
    }

    #[test]
    fn relearn_happens_at_interval() {
        let mut cfg = small_config();
        cfg.confidence_reset_interval = 100;
        let mut det = CriticalityDetector::new(cfg);
        feed_pattern(&mut det, 100);
        assert!(det.stats().relearns >= 3);
        // Recurring critical load survives re-learn.
        assert!(det.is_critical(pc(0)));
    }

    #[test]
    fn critical_pcs_nonempty_after_training() {
        let mut det = CriticalityDetector::new(small_config());
        feed_pattern(&mut det, 40);
        let pcs = det.critical_pcs();
        assert!(pcs.contains(&pc(0)));
    }

    #[test]
    fn no_walk_before_threshold() {
        let mut det = CriticalityDetector::new(small_config());
        det.on_retire(RetiredInst::new(pc(0), 15).as_load(Level::L2));
        assert_eq!(det.stats().walks, 0);
        assert_eq!(det.stats().retired, 1);
    }
}
