//! The core's data-side memory interface: demand accesses, prefetcher
//! driving and the latency oracles.

use crate::config::{CoreConfig, LoadOracle};
use catch_cache::{AccessKind, CacheHierarchy, Level};
use catch_criticality::AnyDetector;
use catch_obs::{Event, EventClass, EventKind, Obs, ObsTactComponent};
use catch_prefetch::{
    MemoryImage, StreamPrefetcher, StridePrefetcher, TactComponent, TactPrefetcher,
};
use catch_trace::{Addr, LineAddr, MicroOp, Pc};

fn obs_component(component: TactComponent) -> ObsTactComponent {
    match component {
        TactComponent::Deep => ObsTactComponent::Deep,
        TactComponent::Cross => ObsTactComponent::Cross,
        TactComponent::Feeder => ObsTactComponent::Feeder,
    }
}

/// Counters kept by the memory interface.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand loads issued.
    pub loads: u64,
    /// Demand loads satisfied by store-to-load forwarding.
    pub forwarded: u64,
    /// Loads per hit level (L1, L2, LLC, memory).
    pub loads_by_level: [u64; 4],
    /// Loads whose latency an oracle converted.
    pub oracle_converted: u64,
    /// L1 stride prefetches issued.
    pub stride_prefetches: u64,
    /// Mid-level stream prefetches issued.
    pub stream_prefetches: u64,
    /// TACT data prefetches issued to the hierarchy.
    pub tact_prefetches: u64,
    /// Demand-load latency histogram; bucket upper bounds are
    /// [`MemStats::LATENCY_BUCKETS`] cycles (last bucket is unbounded).
    pub load_latency_hist: [u64; 6],
}

impl catch_trace::counters::Counters for MemStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn catch_trace::counters::CounterSink) {
        use catch_trace::counters::push_counter;
        push_counter(out, prefix, "loads", self.loads);
        push_counter(out, prefix, "forwarded", self.forwarded);
        for (i, name) in ["l1", "l2", "llc", "memory"].iter().enumerate() {
            push_counter(
                out,
                prefix,
                &format!("loads_{name}"),
                self.loads_by_level[i],
            );
        }
        push_counter(out, prefix, "oracle_converted", self.oracle_converted);
        push_counter(out, prefix, "stride_prefetches", self.stride_prefetches);
        push_counter(out, prefix, "stream_prefetches", self.stream_prefetches);
        push_counter(out, prefix, "tact_prefetches", self.tact_prefetches);
        for (i, v) in self.load_latency_hist.iter().enumerate() {
            push_counter(out, prefix, &format!("latency_bucket_{i}"), *v);
        }
    }
}

impl catch_trace::counters::FromCounters for MemStats {
    fn from_counters(
        prefix: &str,
        src: &mut catch_trace::counters::CounterSource,
    ) -> Result<Self, String> {
        let mut s = MemStats {
            loads: src.take(prefix, "loads")?,
            forwarded: src.take(prefix, "forwarded")?,
            ..MemStats::default()
        };
        for (i, name) in ["l1", "l2", "llc", "memory"].iter().enumerate() {
            s.loads_by_level[i] = src.take(prefix, &format!("loads_{name}"))?;
        }
        s.oracle_converted = src.take(prefix, "oracle_converted")?;
        s.stride_prefetches = src.take(prefix, "stride_prefetches")?;
        s.stream_prefetches = src.take(prefix, "stream_prefetches")?;
        s.tact_prefetches = src.take(prefix, "tact_prefetches")?;
        for (i, v) in s.load_latency_hist.iter_mut().enumerate() {
            *v = src.take(prefix, &format!("latency_bucket_{i}"))?;
        }
        Ok(s)
    }
}

impl MemStats {
    /// Upper bounds (inclusive, cycles) of [`MemStats::load_latency_hist`]
    /// buckets; the final bucket collects everything beyond.
    pub const LATENCY_BUCKETS: [u64; 5] = [5, 15, 40, 100, 250];

    /// Records a demand-load latency into the histogram.
    pub(crate) fn record_latency(&mut self, latency: u64) {
        let idx = Self::LATENCY_BUCKETS
            .iter()
            .position(|&b| latency <= b)
            .unwrap_or(Self::LATENCY_BUCKETS.len());
        self.load_latency_hist[idx] += 1;
    }

    /// Fraction of loads converted by the active oracle.
    pub fn converted_fraction(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.oracle_converted as f64 / self.loads as f64
        }
    }
}

/// Owns the data-side prefetchers and implements load/store access policy
/// for one core, including the paper's oracle studies.
#[derive(Debug)]
pub struct MemoryInterface {
    core_id: usize,
    oracle: LoadOracle,
    baseline_prefetchers: bool,
    tact_data: bool,
    demoted_memory_latency: u64,
    stride: StridePrefetcher,
    stream: StreamPrefetcher,
    tact: TactPrefetcher,
    image: MemoryImage,
    /// Reused output buffers of the stream prefetcher and TACT, so a
    /// load allocates nothing.
    stream_lines: Vec<LineAddr>,
    tact_prefetches: Vec<(Addr, TactComponent)>,
    stats: MemStats,
    obs: Obs,
}

impl MemoryInterface {
    /// Creates the interface for `core_id` with the core's configuration
    /// and the trace-derived memory image.
    pub fn new(core_id: usize, config: &CoreConfig, image: MemoryImage) -> Self {
        MemoryInterface {
            core_id,
            oracle: config.oracle.clone(),
            baseline_prefetchers: config.baseline_prefetchers,
            tact_data: config.tact.data,
            demoted_memory_latency: config.demoted_memory_latency,
            stride: StridePrefetcher::new(256),
            stream: StreamPrefetcher::new(16, 2, 8),
            tact: TactPrefetcher::new(config.tact_config.clone()),
            image,
            stream_lines: Vec::new(),
            tact_prefetches: Vec::new(),
            stats: MemStats::default(),
            obs: Obs::off(),
        }
    }

    /// Attaches an observability handle; TACT trigger/target activity
    /// emits events through it. Detached by default.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// TACT engine counters.
    pub fn tact_stats(&self) -> catch_prefetch::TactStats {
        self.tact.stats()
    }

    /// Propagates newly detected critical PCs to TACT.
    pub fn note_critical_pcs(&mut self, pcs: impl IntoIterator<Item = Pc>) {
        for pc in pcs {
            self.tact.note_critical(pc);
        }
    }

    /// True once the Feeder has read the memory image (building it).
    #[cfg(test)]
    pub(crate) fn image_built(&self) -> bool {
        self.image.is_built()
    }

    /// Register-flow tracking at allocation/rename (Feeder), in program
    /// order.
    pub fn on_alloc_op(&mut self, op: &MicroOp) {
        if self.tact_data {
            self.tact.on_op(op);
        }
    }

    /// Allocation-time feeder hint for a load (capture before
    /// [`MemoryInterface::on_alloc_op`] of the same op).
    pub fn feeder_hint(&self, op: &MicroOp) -> Option<(Pc, u64)> {
        if self.tact_data {
            self.tact.feeder_hint(op)
        } else {
            None
        }
    }

    /// Records a store-to-load forward (no hierarchy access).
    pub fn note_forwarded_load(&mut self) {
        self.stats.loads += 1;
        self.stats.forwarded += 1;
        self.stats.loads_by_level[0] += 1;
        self.stats.record_latency(2);
    }

    fn level_index(level: Level) -> usize {
        match level {
            Level::L1 => 0,
            Level::L2 => 1,
            Level::Llc => 2,
            Level::Memory => 3,
        }
    }

    /// Executes a demand load at `cycle`; returns `(latency, hit level)`.
    /// `feeder` is the allocation-time feeder hint for TACT training.
    pub fn load(
        &mut self,
        hier: &mut CacheHierarchy,
        op: &MicroOp,
        feeder: Option<(Pc, u64)>,
        cycle: u64,
        detector: &AnyDetector,
    ) -> (u64, Level) {
        let mem = op.mem.expect("loads reference memory");
        let line = mem.addr.line();
        self.stats.loads += 1;

        let outcome = hier.access(self.core_id, AccessKind::Load, line, cycle);
        let mut latency = outcome.latency;
        let level = outcome.hit_level;
        self.stats.loads_by_level[Self::level_index(level)] += 1;

        // Oracle adjustments.
        match &self.oracle {
            LoadOracle::None => {}
            LoadOracle::Demote {
                level: demoted,
                only_noncritical,
            } => {
                if level == *demoted
                    && !outcome.merged_in_flight
                    && (!only_noncritical || !detector.is_critical(op.pc))
                {
                    latency = self.demoted_latency(hier, *demoted);
                    self.stats.oracle_converted += 1;
                }
            }
            LoadOracle::CriticalPrefetch => {
                if matches!(level, Level::L2 | Level::Llc) && detector.is_critical(op.pc) {
                    latency = hier.level_latency(self.core_id, Level::L1);
                    self.stats.oracle_converted += 1;
                }
            }
            LoadOracle::PrefetchAll => {
                if matches!(level, Level::L2 | Level::Llc) {
                    latency = hier.level_latency(self.core_id, Level::L1);
                    self.stats.oracle_converted += 1;
                }
            }
        }

        self.stats.record_latency(latency);

        // Prefetchers observe the demand stream.
        if self.baseline_prefetchers {
            if let Some(pf_line) = self.stride.on_load(op.pc, mem.addr) {
                self.stats.stride_prefetches += 1;
                hier.access(self.core_id, AccessKind::L1Prefetch, pf_line, cycle);
            }
            if level != Level::L1 {
                self.stream.on_l1_miss(mem.addr, &mut self.stream_lines);
                for &pf_line in &self.stream_lines {
                    self.stats.stream_prefetches += 1;
                    hier.access(self.core_id, AccessKind::L2Prefetch, pf_line, cycle);
                }
            }
        }
        if self.tact_data {
            self.tact
                .on_load(op, feeder, &self.image, &mut self.tact_prefetches);
            if !self.tact_prefetches.is_empty() {
                self.obs.emit(EventClass::TACT, || Event {
                    cycle,
                    core: self.core_id as u32,
                    kind: EventKind::TactTrigger {
                        pc: op.pc.get(),
                        line: line.get(),
                    },
                });
            }
            let mut last_line = None;
            for &(addr, component) in &self.tact_prefetches {
                let pf_line = addr.line();
                if Some(pf_line) == last_line {
                    continue;
                }
                last_line = Some(pf_line);
                self.stats.tact_prefetches += 1;
                self.obs.emit(EventClass::TACT, || Event {
                    cycle,
                    core: self.core_id as u32,
                    kind: EventKind::TactTarget {
                        component: obs_component(component),
                        line: pf_line.get(),
                    },
                });
                hier.access(self.core_id, AccessKind::TactPrefetch, pf_line, cycle);
            }
        }

        (latency, level)
    }

    /// Executes a demand store (write-allocate; the store buffer hides the
    /// latency from the core).
    pub fn store(&mut self, hier: &mut CacheHierarchy, op: &MicroOp, cycle: u64) {
        let mem = op.mem.expect("stores reference memory");
        hier.access(self.core_id, AccessKind::Store, mem.addr.line(), cycle);
    }

    fn demoted_latency(&self, hier: &CacheHierarchy, level: Level) -> u64 {
        match level {
            Level::L1 => hier.level_latency(self.core_id, Level::L2),
            Level::L2 => hier.level_latency(self.core_id, Level::Llc),
            Level::Llc | Level::Memory => {
                hier.level_latency(self.core_id, Level::Llc) + self.demoted_memory_latency
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_cache::{FixedLatencyBackend, HierarchyConfig};
    use catch_criticality::{CriticalityDetector, DetectorConfig};
    use catch_trace::{Addr, ArchReg};

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(
            &HierarchyConfig::skylake_server(1),
            Box::new(FixedLatencyBackend::new(200)),
        )
    }

    fn load_op(pc: u64, addr: u64) -> MicroOp {
        MicroOp::load(Pc::new(pc), ArchReg::new(1), Addr::new(addr), 0, &[])
    }

    fn iface(config: &CoreConfig) -> MemoryInterface {
        MemoryInterface::new(0, config, MemoryImage::new())
    }

    #[test]
    fn load_latency_reflects_hierarchy() {
        let mut h = hier();
        let mut m = iface(&CoreConfig::baseline());
        let det = AnyDetector::Graph(CriticalityDetector::new(DetectorConfig::paper()));
        let (miss_lat, level) = m.load(&mut h, &load_op(0x40, 0x1000), None, 0, &det);
        assert_eq!(level, Level::Memory);
        assert_eq!(miss_lat, 240);
        let (hit_lat, level) = m.load(&mut h, &load_op(0x40, 0x1000), None, 1000, &det);
        assert_eq!(level, Level::L1);
        assert_eq!(hit_lat, 5);
        assert_eq!(m.stats().loads, 2);
        assert_eq!(m.stats().loads_by_level[0], 1);
        assert_eq!(m.stats().loads_by_level[3], 1);
    }

    #[test]
    fn demote_all_l1_hits() {
        let mut h = hier();
        let mut config = CoreConfig::baseline();
        config.oracle = LoadOracle::Demote {
            level: Level::L1,
            only_noncritical: false,
        };
        config.baseline_prefetchers = false;
        let mut m = iface(&config);
        let det = AnyDetector::Graph(CriticalityDetector::new(DetectorConfig::paper()));
        m.load(&mut h, &load_op(0x40, 0x1000), None, 0, &det);
        let (lat, _) = m.load(&mut h, &load_op(0x40, 0x1000), None, 1000, &det);
        assert_eq!(lat, 15, "L1 hit must observe L2 latency");
        assert_eq!(m.stats().oracle_converted, 1);
        assert!(m.stats().converted_fraction() > 0.4);
    }

    #[test]
    fn prefetch_all_oracle_accelerates_l2_hits() {
        let mut h = hier();
        let mut config = CoreConfig::baseline();
        config.oracle = LoadOracle::PrefetchAll;
        config.baseline_prefetchers = false;
        let mut m = iface(&config);
        let det = AnyDetector::Graph(CriticalityDetector::new(DetectorConfig::paper()));
        // Install into L2 via stream prefetch path.
        h.access(0, AccessKind::L2Prefetch, Addr::new(0x4000).line(), 0);
        let (lat, level) = m.load(&mut h, &load_op(0x40, 0x4000), None, 100, &det);
        assert_eq!(level, Level::L2);
        assert_eq!(lat, 5, "oracle converts the L2 hit to L1 latency");
    }

    #[test]
    fn stride_prefetcher_fires_through_interface() {
        let mut h = hier();
        let mut m = iface(&CoreConfig::baseline());
        let det = AnyDetector::Graph(CriticalityDetector::new(DetectorConfig::paper()));
        for i in 0..8u64 {
            m.load(&mut h, &load_op(0x40, i * 64), None, i * 10, &det);
        }
        assert!(m.stats().stride_prefetches > 0);
    }

    #[test]
    fn store_allocates_line() {
        let mut h = hier();
        let mut m = iface(&CoreConfig::baseline());
        let op = MicroOp::store(Pc::new(0x44), Addr::new(0x2000), &[ArchReg::new(1)]);
        m.store(&mut h, &op, 0);
        assert_eq!(h.probe_level(0, false, Addr::new(0x2000).line()), Level::L1);
    }
}
