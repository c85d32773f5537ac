//! Sampled simulation: executing a [`SamplePlan`] against a [`System`].
//!
//! `catch-sample` decides *which* intervals to simulate; this module
//! actually runs them. [`System::run_sampled`] walks the trace front to
//! back on one core and one hierarchy, alternating detailed intervals
//! with drain + fast-forward gaps. Representative intervals are measured
//! by *snapshot deltas*: all statistics are monotonic counters, so the
//! difference between the snapshots at an interval's retirement
//! boundaries is exactly that interval's contribution, and everything
//! that happens in the gaps (drained pipeline cycles, functional warmup)
//! stays out of the measurement. When the plan makes every interval its
//! own cluster, no gap ever occurs and the run is tick-for-tick identical
//! to [`System::run_st`] — the reconstruction is then bit-exact, which
//! `catch-tests/tests/sampling_accuracy.rs` asserts.
//!
//! Reconstruction multiplies each representative's delta by its cluster's
//! member count and sums — all in integer arithmetic, so weights of 1
//! introduce no rounding anywhere.

use crate::metrics::RunResult;
use crate::system::System;
use catch_cache::{CacheHierarchy, HierarchyStats};
use catch_cpu::{run_lockstep, Core, CoreStats};
use catch_dram::{DramStats, DramSystem};
use catch_obs::Obs;
use catch_sample::{SampleConfig, SamplePlan};
use catch_trace::Trace;

/// How a sampled run was reconstructed, reported next to its
/// [`RunResult`].
#[derive(Clone, Debug)]
pub struct SamplingSummary {
    /// Number of trace intervals.
    pub intervals: usize,
    /// Number of clusters (= detailed-simulated representatives).
    pub clusters: usize,
    /// Micro-ops simulated in detail (inside measured intervals).
    pub detailed_ops: u64,
    /// Micro-ops in the whole trace.
    pub total_ops: u64,
    /// Heuristic a-priori bound on the relative IPC error, in percent
    /// (see [`SamplePlan::ipc_error_bound_pct`]).
    pub ipc_error_bound_pct: f64,
}

impl SamplingSummary {
    /// Fraction of the trace simulated in detail (0–1).
    pub fn detailed_fraction(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.detailed_ops as f64 / self.total_ops as f64
        }
    }
}

/// A [`RunResult`] reconstructed from sampled execution, plus how it was
/// sampled.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// Weighted-reconstructed statistics (the full-run estimate).
    pub result: RunResult,
    /// Sampling metadata and error estimate.
    pub sampling: SamplingSummary,
}

/// A point-in-time capture of every monotonic counter in the simulated
/// machine.
#[derive(Clone, Debug, Default)]
struct Snapshot {
    core: CoreStats,
    hier: HierarchyStats,
    dram: Option<DramStats>,
}

impl Snapshot {
    fn take(core: &Core, hier: &CacheHierarchy) -> Snapshot {
        Snapshot {
            core: core.stats(),
            hier: hier.stats(),
            dram: hier
                .backend()
                .as_any()
                .downcast_ref::<DramSystem>()
                .map(|d| *d.stats()),
        }
    }

    fn minus(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            core: self.core.minus(&earlier.core),
            hier: self.hier.minus(&earlier.hier),
            dram: match (&self.dram, &earlier.dram) {
                (Some(a), Some(b)) => Some(a.minus(b)),
                _ => None,
            },
        }
    }

    fn add_scaled(&mut self, delta: &Snapshot, weight: u64) {
        self.core.add_scaled(&delta.core, weight);
        self.hier.add_scaled(&delta.hier, weight);
        if let Some(d) = &delta.dram {
            self.dram
                .get_or_insert_with(DramStats::default)
                .add_scaled(d, weight);
        }
    }
}

impl System {
    /// Runs `trace` in sampled mode: detailed simulation for one weighted
    /// representative interval per cluster, functional fast-forward
    /// everywhere else, and weighted reconstruction of the full-run
    /// statistics. The module-level comments in `sampling.rs` describe
    /// the measurement discipline and the bit-identity guarantee.
    pub fn run_sampled(&self, trace: Trace, sample: &SampleConfig) -> SampledRun {
        let plan = SamplePlan::build(&trace, sample);
        let workload = trace.name().to_string();
        let category = trace.category();
        let total_ops = trace.len() as u64;

        let mut hier = self.build_hierarchy(1, &Obs::off());
        let mut core = Core::new(0, trace, self.config().core.clone());

        let mut acc = Snapshot::default();
        let mut rep_ipc = vec![0.0f64; plan.clusters];
        let mut detailed_ops = 0u64;

        for i in 0..plan.intervals.len() {
            let interval = &plan.intervals[i];
            if interval.weight == 0 {
                core.drain(&mut hier);
                // When the next interval is measured, hand the tail of
                // this gap back to detailed (but unmeasured) simulation:
                // it refills the pipeline and re-trains prefetchers and
                // the criticality detector, which functional warmup
                // cannot. The snapshot delta below excludes it.
                let next_is_rep = plan.intervals.get(i + 1).is_some_and(|iv| iv.weight > 0);
                let ff_until = if next_is_rep {
                    interval.end.saturating_sub(sample.warmup_ops)
                } else {
                    interval.end
                };
                core.fast_forward(&mut hier, ff_until);
                if next_is_rep {
                    run_lockstep(std::slice::from_mut(&mut core), &mut hier, interval.end);
                }
                continue;
            }
            let start = Snapshot::take(&core, &hier);
            run_lockstep(std::slice::from_mut(&mut core), &mut hier, interval.end);
            let delta = Snapshot::take(&core, &hier).minus(&start);
            rep_ipc[interval.cluster] = delta.core.ipc();
            detailed_ops += delta.core.instructions;
            acc.add_scaled(&delta, interval.weight);
        }

        SampledRun {
            result: RunResult {
                workload,
                category,
                config: self.config().name.clone(),
                core: acc.core,
                hierarchy: acc.hier,
                dram: acc.dram,
            },
            sampling: SamplingSummary {
                intervals: plan.interval_count(),
                clusters: plan.clusters,
                detailed_ops,
                total_ops,
                ipc_error_bound_pct: plan.ipc_error_bound_pct(&rep_ipc),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Runner, GOLDEN_WORKLOADS};
    use crate::system::SystemConfig;
    use catch_trace::counters::Counters;
    use catch_workloads::suite;

    fn system() -> System {
        System::new(SystemConfig::baseline_exclusive())
    }

    #[test]
    fn sampled_covers_whole_trace_in_weights() {
        let trace = suite::by_name("astar_like").unwrap().generate(8_000, 7);
        let s = system().run_sampled(trace, &SampleConfig::new(1_000).with_max_clusters(3));
        assert_eq!(s.sampling.intervals, 8);
        // Retirement may overshoot interval boundaries by up to the
        // retire width, so the weighted total is only near-exact here
        // (it is bit-exact in the all-singleton configuration below).
        let total = s.result.core.instructions;
        assert!(
            (7_900..=8_100).contains(&total),
            "reconstructed {total} ops"
        );
        assert!(s.sampling.detailed_ops < 8_000);
        assert!(s.sampling.detailed_fraction() > 0.0);
    }

    #[test]
    fn singleton_clusters_reproduce_run_st_exactly() {
        let trace = suite::by_name("astar_like").unwrap().generate(6_000, 7);
        let full = system().run_st(trace.clone());
        let cfg = SampleConfig::new(1_000).with_max_clusters(usize::MAX);
        let s = system().run_sampled(trace, &cfg);
        assert_eq!(full.counters(""), s.result.counters(""));
        assert_eq!(s.sampling.ipc_error_bound_pct, 0.0);
        assert_eq!(s.sampling.detailed_ops, s.sampling.total_ops);
    }

    #[test]
    fn parallel_mode_is_worker_count_invariant() {
        // Sampled runs fanned out over the golden six, outside the run
        // cache: the worker count must not change a single counter.
        let cfg = SampleConfig::new(1_000).with_max_clusters(3);
        let sys = system();
        let run = |jobs: usize| -> Vec<_> {
            Runner::with_jobs(jobs).run(&GOLDEN_WORKLOADS, |_, name| {
                let trace = suite::by_name(name).unwrap().generate(8_000, 7);
                sys.run_sampled(trace, &cfg).result.counters("")
            })
        };
        assert_eq!(run(1), run(4), "sampled jobs must reduce deterministically");
    }
}
