//! Per-core run statistics.

use crate::branch::BranchStats;
use crate::frontend::FrontendStats;
use crate::memory::MemStats;
use catch_criticality::DetectorStats;
use catch_obs::OccupancyHist;
use catch_prefetch::TactStats;
use catch_trace::counters::monotonic_delta;
use std::fmt;

/// Everything measured over one core's run.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions (µops) retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Front-end counters.
    pub frontend: FrontendStats,
    /// Branch counters.
    pub branches: BranchStats,
    /// Memory-interface counters.
    pub memory: MemStats,
    /// Criticality-detector counters.
    pub detector: DetectorStats,
    /// TACT counters.
    pub tact: TactStats,
    /// ROB occupancy, sampled every `catch_obs::OCC_SAMPLE_PERIOD` cycles.
    pub rob_occ: OccupancyHist,
    /// Scheduler pressure (allocated-but-unissued ops, clamped to the
    /// scheduling window), same cadence.
    pub sched_occ: OccupancyHist,
    /// Load-MSHR occupancy (outstanding load fills), same cadence.
    pub mshr_occ: OccupancyHist,
}

impl catch_trace::counters::Counters for CoreStats {
    fn counters_into(&self, prefix: &str, out: &mut dyn catch_trace::counters::CounterSink) {
        use catch_trace::counters::{join_prefix, push_counter};
        push_counter(out, prefix, "instructions", self.instructions);
        push_counter(out, prefix, "cycles", self.cycles);
        self.frontend
            .counters_into(&join_prefix(prefix, "frontend"), out);
        self.branches
            .counters_into(&join_prefix(prefix, "branches"), out);
        self.memory
            .counters_into(&join_prefix(prefix, "memory"), out);
        self.detector
            .counters_into(&join_prefix(prefix, "detector"), out);
        self.tact.counters_into(&join_prefix(prefix, "tact"), out);
        self.rob_occ
            .counters_into(&join_prefix(prefix, "rob_occ"), out);
        self.sched_occ
            .counters_into(&join_prefix(prefix, "sched_occ"), out);
        self.mshr_occ
            .counters_into(&join_prefix(prefix, "mshr_occ"), out);
    }
}

impl catch_trace::counters::FromCounters for CoreStats {
    fn from_counters(
        prefix: &str,
        src: &mut catch_trace::counters::CounterSource,
    ) -> Result<Self, String> {
        use catch_trace::counters::join_prefix;
        Ok(CoreStats {
            instructions: src.take(prefix, "instructions")?,
            cycles: src.take(prefix, "cycles")?,
            frontend: FrontendStats::from_counters(&join_prefix(prefix, "frontend"), src)?,
            branches: BranchStats::from_counters(&join_prefix(prefix, "branches"), src)?,
            memory: MemStats::from_counters(&join_prefix(prefix, "memory"), src)?,
            detector: DetectorStats::from_counters(&join_prefix(prefix, "detector"), src)?,
            tact: TactStats::from_counters(&join_prefix(prefix, "tact"), src)?,
            rob_occ: OccupancyHist::from_counters(&join_prefix(prefix, "rob_occ"), src)?,
            sched_occ: OccupancyHist::from_counters(&join_prefix(prefix, "sched_occ"), src)?,
            mshr_occ: OccupancyHist::from_counters(&join_prefix(prefix, "mshr_occ"), src)?,
        })
    }
}

impl CoreStats {
    /// Counter-wise difference `self - earlier`, used to exclude a
    /// warm-up phase from measurement. All counters are monotonic, so the
    /// result is a valid stats snapshot of the interval; debug builds
    /// assert that (see `catch_trace::counters::monotonic_delta`).
    pub fn minus(&self, earlier: &CoreStats) -> CoreStats {
        let mut out = self.zip(earlier, monotonic_delta);
        out.rob_occ = self.rob_occ.minus(&earlier.rob_occ);
        out.sched_occ = self.sched_occ.minus(&earlier.sched_occ);
        out.mshr_occ = self.mshr_occ.minus(&earlier.mshr_occ);
        out
    }

    /// Accumulates `weight` copies of `delta` into `self` (saturating).
    /// Sampled runs use this to reconstruct full-trace statistics from
    /// weighted per-interval deltas; integer weights keep the
    /// reconstruction exact when every weight is 1.
    pub fn add_scaled(&mut self, delta: &CoreStats, weight: u64) {
        let mut rob_occ = self.rob_occ;
        let mut sched_occ = self.sched_occ;
        let mut mshr_occ = self.mshr_occ;
        rob_occ.add_scaled(&delta.rob_occ, weight);
        sched_occ.add_scaled(&delta.sched_occ, weight);
        mshr_occ.add_scaled(&delta.mshr_occ, weight);
        *self = self.zip(delta, |a, d| a.saturating_add(d.saturating_mul(weight)));
        self.rob_occ = rob_occ;
        self.sched_occ = sched_occ;
        self.mshr_occ = mshr_occ;
    }

    /// Combines the scalar counters counter-by-counter with `f`; the
    /// occupancy histograms are carried from `self` and combined
    /// explicitly by the callers.
    fn zip(&self, earlier: &CoreStats, f: impl Fn(u64, u64) -> u64 + Copy) -> CoreStats {
        use crate::frontend::FrontendStats;
        use crate::memory::MemStats;
        CoreStats {
            instructions: f(self.instructions, earlier.instructions),
            cycles: f(self.cycles, earlier.cycles),
            frontend: FrontendStats {
                fetched: f(self.frontend.fetched, earlier.frontend.fetched),
                icache_misses: f(self.frontend.icache_misses, earlier.frontend.icache_misses),
                code_prefetches: f(
                    self.frontend.code_prefetches,
                    earlier.frontend.code_prefetches,
                ),
                mispredicts: f(self.frontend.mispredicts, earlier.frontend.mispredicts),
                icache_stall_cycles: f(
                    self.frontend.icache_stall_cycles,
                    earlier.frontend.icache_stall_cycles,
                ),
            },
            branches: BranchStats {
                conditional: f(self.branches.conditional, earlier.branches.conditional),
                cond_mispredicts: f(
                    self.branches.cond_mispredicts,
                    earlier.branches.cond_mispredicts,
                ),
                indirect: f(self.branches.indirect, earlier.branches.indirect),
                indirect_mispredicts: f(
                    self.branches.indirect_mispredicts,
                    earlier.branches.indirect_mispredicts,
                ),
            },
            memory: MemStats {
                loads: f(self.memory.loads, earlier.memory.loads),
                forwarded: f(self.memory.forwarded, earlier.memory.forwarded),
                loads_by_level: [
                    f(
                        self.memory.loads_by_level[0],
                        earlier.memory.loads_by_level[0],
                    ),
                    f(
                        self.memory.loads_by_level[1],
                        earlier.memory.loads_by_level[1],
                    ),
                    f(
                        self.memory.loads_by_level[2],
                        earlier.memory.loads_by_level[2],
                    ),
                    f(
                        self.memory.loads_by_level[3],
                        earlier.memory.loads_by_level[3],
                    ),
                ],
                oracle_converted: f(
                    self.memory.oracle_converted,
                    earlier.memory.oracle_converted,
                ),
                stride_prefetches: f(
                    self.memory.stride_prefetches,
                    earlier.memory.stride_prefetches,
                ),
                stream_prefetches: f(
                    self.memory.stream_prefetches,
                    earlier.memory.stream_prefetches,
                ),
                tact_prefetches: f(self.memory.tact_prefetches, earlier.memory.tact_prefetches),
                load_latency_hist: std::array::from_fn(|i| {
                    f(
                        self.memory.load_latency_hist[i],
                        earlier.memory.load_latency_hist[i],
                    )
                }),
            },
            detector: DetectorStats {
                retired: f(self.detector.retired, earlier.detector.retired),
                walks: f(self.detector.walks, earlier.detector.walks),
                critical_load_observations: f(
                    self.detector.critical_load_observations,
                    earlier.detector.critical_load_observations,
                ),
                walk_steps: f(self.detector.walk_steps, earlier.detector.walk_steps),
                relearns: f(self.detector.relearns, earlier.detector.relearns),
                overflows: f(self.detector.overflows, earlier.detector.overflows),
            },
            tact: TactStats {
                targets_allocated: f(self.tact.targets_allocated, earlier.tact.targets_allocated),
                deep_issued: f(self.tact.deep_issued, earlier.tact.deep_issued),
                cross_issued: f(self.tact.cross_issued, earlier.tact.cross_issued),
                feeder_issued: f(self.tact.feeder_issued, earlier.tact.feeder_issued),
                cross_learned: f(self.tact.cross_learned, earlier.tact.cross_learned),
                feeder_learned: f(self.tact.feeder_learned, earlier.tact.feeder_learned),
            },
            rob_occ: self.rob_occ,
            sched_occ: self.sched_occ,
            mshr_occ: self.mshr_occ,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L1 hit rate over demand loads.
    pub fn l1_load_hit_rate(&self) -> f64 {
        if self.memory.loads == 0 {
            0.0
        } else {
            self.memory.loads_by_level[0] as f64 / self.memory.loads as f64
        }
    }
}

impl fmt::Display for CoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IPC {:.3} ({} inst / {} cyc), L1 load hit {:.1}%, {} icache misses, {:.2}% br-miss",
            self.ipc(),
            self.instructions,
            self.cycles,
            100.0 * self.l1_load_hit_rate(),
            self.frontend.icache_misses,
            100.0 * self.branches.mispredict_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_computes() {
        let s = CoreStats {
            instructions: 300,
            cycles: 100,
            ..Default::default()
        };
        assert!((s.ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn minus_and_add_scaled_carry_occupancy_hists() {
        let mut early = CoreStats::default();
        early.rob_occ.record(10, 224);
        let mut late = early;
        late.instructions = 100;
        late.cycles = 50;
        late.rob_occ.record(200, 224);
        late.sched_occ.record(30, 97);
        let d = late.minus(&early);
        assert_eq!(d.instructions, 100);
        assert_eq!(d.rob_occ.samples, 1);
        assert_eq!(d.rob_occ.sum, 200);
        assert_eq!(d.sched_occ.samples, 1);
        let mut acc = CoreStats::default();
        acc.add_scaled(&d, 3);
        assert_eq!(acc.instructions, 300);
        assert_eq!(acc.rob_occ.samples, 3);
        assert_eq!(acc.rob_occ.sum, 600);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotonic")]
    fn minus_rejects_shrinking_core_counters() {
        let early = CoreStats {
            cycles: 9,
            ..Default::default()
        };
        let _ = CoreStats::default().minus(&early);
    }
}
