//! System assembly: configuration presets and the simulation driver.

use crate::experiments::Fidelity;
use crate::metrics::{MpResult, RunResult};
use catch_cache::{CacheHierarchy, HierarchyConfig, Level};
use catch_cpu::{
    run_fast_functional, run_lockstep, Core, CoreConfig, LiteCore, LoadOracle, TactMode,
};
use catch_criticality::DetectorConfig;
use catch_dram::{DramConfig, DramSystem};
use catch_obs::Obs;
use catch_trace::Trace;

/// One machine configuration: hierarchy organisation, core features and
/// memory. Every configuration the paper evaluates is expressible through
/// the preset constructors plus the `with_*` modifiers.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Human-readable configuration name used in reports.
    pub name: String,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Core model.
    pub core: CoreConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// Extra hit latency injected per level (Figures 3 and 15).
    pub extra_latency: Vec<(Level, u64)>,
}

impl SystemConfig {
    /// The large-L2 exclusive-LLC single-core baseline (1 MB L2 + 5.5 MB
    /// exclusive LLC, baseline prefetchers on).
    pub fn baseline_exclusive() -> Self {
        SystemConfig {
            name: "base-excl".into(),
            hierarchy: HierarchyConfig::skylake_server(1),
            core: CoreConfig::baseline(),
            dram: DramConfig::ddr4_2400(),
            extra_latency: Vec::new(),
        }
    }

    /// The small-L2 inclusive-LLC baseline (256 KB L2 + 8 MB inclusive
    /// LLC).
    pub fn baseline_inclusive() -> Self {
        SystemConfig {
            name: "base-incl".into(),
            hierarchy: HierarchyConfig::skylake_client(1),
            core: CoreConfig::baseline(),
            dram: DramConfig::ddr4_2400(),
            extra_latency: Vec::new(),
        }
    }

    /// Scales to `cores` cores (shared LLC size unchanged).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.hierarchy.cores = cores;
        self
    }

    /// Removes the L2, setting the shared LLC to `llc_bytes`.
    pub fn without_l2(mut self, llc_bytes: u64) -> Self {
        self.hierarchy = self.hierarchy.without_l2(llc_bytes);
        self.name = format!("noL2+{}MB", llc_bytes as f64 / (1 << 20) as f64);
        self
    }

    /// Enables the full CATCH mechanisms (criticality detection + all
    /// TACT prefetchers).
    pub fn with_catch(mut self) -> Self {
        self.core.tact = TactMode::full();
        self.name = format!("{}+CATCH", self.name);
        self
    }

    /// Selects individual TACT components (Figure 13 build-up).
    pub fn with_tact_components(
        mut self,
        code: bool,
        cross: bool,
        deep: bool,
        feeder: bool,
    ) -> Self {
        self.core.tact = TactMode {
            data: cross || deep || feeder,
            code,
        };
        self.core.tact_config.enable_cross = cross;
        self.core.tact_config.enable_deep = deep;
        self.core.tact_config.enable_feeder = feeder;
        self
    }

    /// Installs a load oracle (Figures 4 and 5).
    pub fn with_oracle(mut self, oracle: LoadOracle) -> Self {
        self.core.oracle = oracle;
        self
    }

    /// Replaces the detector configuration (table-size sweeps, per-level
    /// tracking for Figure 4).
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        self.core.detector = detector;
        self
    }

    /// Adds hit latency at one level.
    pub fn with_extra_latency(mut self, level: Level, cycles: u64) -> Self {
        self.extra_latency.push((level, cycles));
        self
    }

    /// Enables the sliced-LLC ring (NUCA) model with `hop_cycles` per ring
    /// hop.
    pub fn with_ring(mut self, hop_cycles: u64) -> Self {
        self.hierarchy = self.hierarchy.with_ring(hop_cycles);
        self
    }

    /// Renames the configuration.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Oracle-study variant: perfect L1I and no baseline prefetchers
    /// (Section III-C methodology).
    pub fn oracle_study(mut self) -> Self {
        self.core.perfect_l1i = true;
        self.core.baseline_prefetchers = false;
        self
    }
}

/// Simulation driver for one configuration.
#[derive(Clone, Debug)]
pub struct System {
    config: SystemConfig,
}

impl System {
    /// Creates a driver.
    pub fn new(config: SystemConfig) -> Self {
        System { config }
    }

    /// Configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// A fresh hierarchy (and DRAM) for `cores` cores, emitting through
    /// clones of `obs`.
    pub(crate) fn build_hierarchy(&self, cores: usize, obs: &Obs) -> CacheHierarchy {
        let mut hcfg = self.config.hierarchy.clone();
        hcfg.cores = cores;
        let mut dram = DramSystem::new(self.config.dram.clone());
        dram.set_obs(obs.clone());
        let mut hier = CacheHierarchy::new(&hcfg, Box::new(dram));
        hier.set_obs(obs.clone());
        for &(level, extra) in &self.config.extra_latency {
            hier.add_level_latency(level, extra);
        }
        hier
    }

    /// Runs a single trace on core 0 at model rung `fidelity`, excluding
    /// the first `warmup_ops` retired micro-ops from measurement (caches,
    /// predictors and learned tables stay warm). The rungs (DESIGN.md
    /// §14):
    ///
    /// * [`Fidelity::Ooo`]: a detailed warm-up on the out-of-order
    ///   [`Core`], then the measured run on the same core.
    /// * [`Fidelity::Lite`]: a functional fast-forward warm-up (the
    ///   warm-up being approximate is part of the rung's semantics), then
    ///   the in-order-issue scoreboard core ([`LiteCore`]) driving the
    ///   real hierarchy, criticality detector and TACT.
    /// * [`Fidelity::Fast`]: the functional fast-forward path end to end
    ///   ([`run_fast_functional`]: one op per cycle, warm hierarchy
    ///   accesses, branch training, no pipeline timing; IPC is 1 by
    ///   construction).
    ///
    /// Every component the rung builds (core pipeline, caches, DRAM,
    /// TACT, criticality detector) emits cycle-stamped events through
    /// clones of `obs`, warm-up included; the functional path emits only
    /// from the hierarchy and DRAM. Pass [`Obs::off`] for a silent run:
    /// the handles then cost one predictable branch per would-be event,
    /// and no rung's counters depend on whether a sink is attached.
    pub fn run(&self, trace: Trace, fidelity: Fidelity, warmup_ops: usize, obs: &Obs) -> RunResult {
        let mut hier = self.build_hierarchy(1, obs);
        let workload = trace.name().to_string();
        let category = trace.category();
        let config = self.config.core.clone();
        let stats = match fidelity {
            Fidelity::Ooo => {
                let mut core = Core::new(0, trace, config);
                core.set_obs(obs.clone());
                if warmup_ops > 0 {
                    run_lockstep(std::slice::from_mut(&mut core), &mut hier, warmup_ops);
                    core.end_warmup();
                    hier.reset_stats();
                }
                core.run_to_completion(&mut hier)
            }
            Fidelity::Lite => {
                let mut core = LiteCore::new(0, trace, config);
                core.set_obs(obs.clone());
                if warmup_ops > 0 {
                    core.fast_forward(&mut hier, warmup_ops);
                    core.end_warmup();
                    hier.reset_stats();
                }
                core.run_to_completion(&mut hier)
            }
            Fidelity::Fast => run_fast_functional(0, trace, config, &mut hier, warmup_ops),
        };
        RunResult::collect(workload, category, self.config.name.clone(), stats, &hier)
    }

    /// [`System::run`] on the OOO core, silent, without warm-up.
    pub fn run_st(&self, trace: Trace) -> RunResult {
        self.run(trace, Fidelity::Ooo, 0, &Obs::off())
    }

    /// [`System::run`] on the OOO core, observed, without warm-up.
    pub fn run_st_obs(&self, trace: Trace, obs: &Obs) -> RunResult {
        self.run(trace, Fidelity::Ooo, 0, obs)
    }

    /// [`System::run`] on the OOO core, silent.
    pub fn run_st_warm(&self, trace: Trace, warmup_ops: usize) -> RunResult {
        self.run(trace, Fidelity::Ooo, warmup_ops, &Obs::off())
    }

    /// [`System::run`] on the `fast` rung, silent.
    pub fn run_st_fast(&self, trace: Trace, warmup_ops: usize) -> RunResult {
        self.run(trace, Fidelity::Fast, warmup_ops, &Obs::off())
    }

    /// [`System::run`] on the `timing-lite` rung, silent.
    pub fn run_st_lite(&self, trace: Trace, warmup_ops: usize) -> RunResult {
        self.run(trace, Fidelity::Lite, warmup_ops, &Obs::off())
    }

    /// Runs four traces on a shared 4-core system in [`run_lockstep`],
    /// unobserved. Cores that finish early idle (their caches stay
    /// resident). Returns per-core results.
    pub fn run_mp(&self, traces: [Trace; 4]) -> MpResult {
        let mut hier = self.build_hierarchy(4, &Obs::off());
        let mut cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(i, t, self.config.core.clone()))
            .collect();
        run_lockstep(&mut cores, &mut hier, usize::MAX);
        let per_core: Vec<RunResult> = cores
            .iter()
            .map(|c| {
                RunResult::collect(
                    c.trace().name().to_string(),
                    c.trace().category(),
                    self.config.name.clone(),
                    c.stats(),
                    &hier,
                )
            })
            .collect();
        MpResult {
            config: self.config.name.clone(),
            per_core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_workloads::suite;

    #[test]
    fn presets_match_paper_configurations() {
        let base = SystemConfig::baseline_exclusive();
        assert_eq!(base.hierarchy.l2.bytes, 1 << 20);
        assert_eq!(base.hierarchy.llc.bytes, 5632 << 10);
        let no_l2 = base.clone().without_l2(6656 << 10);
        assert!(!no_l2.hierarchy.has_l2());
        let catch = base.with_catch();
        assert!(catch.core.tact.data && catch.core.tact.code);
        assert!(catch.name.contains("CATCH"));
    }

    #[test]
    fn st_run_produces_metrics() {
        let trace = suite::by_name("linpack_like").unwrap().generate(5_000, 1);
        let result = System::new(SystemConfig::baseline_exclusive()).run_st(trace);
        assert!(result.ipc() > 0.1);
        assert_eq!(result.workload, "linpack_like");
        assert!(result.dram.is_some(), "DRAM stats must be recoverable");
    }

    #[test]
    fn extra_latency_slows_l1() {
        // A serial pointer chase is directly gated by load-to-use latency.
        let trace = suite::by_name("astar_like").unwrap().generate(20_000, 1);
        let base = System::new(SystemConfig::baseline_exclusive()).run_st(trace.clone());
        let slowed =
            System::new(SystemConfig::baseline_exclusive().with_extra_latency(Level::L1, 3))
                .run_st(trace);
        assert!(
            slowed.ipc() < base.ipc(),
            "L1 +3cyc must slow a chase: {} vs {}",
            slowed.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn obs_run_matches_silent_run_and_covers_all_classes() {
        use catch_obs::{EventClass, VecSink};
        use catch_trace::counters::Counters;
        use std::sync::{Arc, Mutex};

        let trace = suite::by_name("tpcc_like").unwrap().generate(8_000, 1);
        let system = System::new(SystemConfig::baseline_exclusive().with_catch());
        for fidelity in Fidelity::ALL {
            let silent = system.run(trace.clone(), fidelity, 2_000, &Obs::off());
            let sink = Arc::new(Mutex::new(VecSink::new()));
            let obs = Obs::attached(sink.clone(), EventClass::ALL);
            let observed = system.run(trace.clone(), fidelity, 2_000, &obs);
            drop(obs);

            // Observation must not perturb the simulation on any rung.
            assert_eq!(
                silent.counters(""),
                observed.counters(""),
                "observing the {fidelity:?} rung changed its counters"
            );

            // Every rung reaches the hierarchy; the OOO core emits every
            // class.
            let events = sink.lock().expect("sink lock").take();
            let classes: &[EventClass] = match fidelity {
                Fidelity::Ooo => &[
                    EventClass::CORE,
                    EventClass::OCCUPANCY,
                    EventClass::CACHE,
                    EventClass::DRAM,
                    EventClass::CRIT,
                ],
                Fidelity::Lite | Fidelity::Fast => &[EventClass::CACHE],
            };
            for &class in classes {
                assert!(
                    events.iter().any(|e| e.class() == class),
                    "no events of class {class:?} on the {fidelity:?} rung"
                );
            }
            // Cycle stamps are present and plausible.
            assert!(events.iter().any(|e| e.cycle > 0));
        }
    }

    #[test]
    fn mp_run_completes_all_cores() {
        let spec = suite::by_name("linpack_like").unwrap();
        let traces = [
            spec.generate(3_000, 1),
            spec.generate(3_000, 2),
            spec.generate(3_000, 3),
            spec.generate(3_000, 4),
        ];
        let result = System::new(SystemConfig::baseline_exclusive().with_cores(4)).run_mp(traces);
        assert_eq!(result.per_core.len(), 4);
        for r in &result.per_core {
            assert!(r.ipc() > 0.05);
        }
    }
}
