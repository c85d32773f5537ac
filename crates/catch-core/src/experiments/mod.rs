//! The experiment registry: one module per paper figure/table.
//!
//! Every experiment takes an [`EvalConfig`] (instruction budget + seed)
//! and returns an [`ExperimentReport`] whose tables print the same rows
//! and series the paper reports. The `run_experiment` example runs each
//! by id; `EXPERIMENTS.md` records paper-vs-measured.

mod ablations;
mod fig01_remove_l2;
mod fig02_ddg_example;
mod fig03_latency_sensitivity;
mod fig04_criticality_oracle;
mod fig05_oracle_prefetch;
mod fig10_catch_exclusive;
mod fig11_timeliness;
mod fig12_scurve;
mod fig13_tact_components;
mod fig14_mp;
mod fig15_llc_latency;
mod fig16_energy;
mod fig17_inclusive;
mod heuristic_detector;
mod ladder;
pub mod runner;
mod sampling;
mod tables;

pub use ablations::ablations;
pub use fig01_remove_l2::fig01_remove_l2;
pub use fig02_ddg_example::fig02_ddg_example;
pub use fig03_latency_sensitivity::fig03_latency_sensitivity;
pub use fig04_criticality_oracle::fig04_criticality_oracle;
pub use fig05_oracle_prefetch::fig05_oracle_prefetch;
pub use fig10_catch_exclusive::fig10_catch_exclusive;
pub use fig11_timeliness::fig11_timeliness;
pub use fig12_scurve::fig12_scurve;
pub use fig13_tact_components::fig13_tact_components;
pub use fig14_mp::fig14_mp;
pub use fig15_llc_latency::fig15_llc_latency;
pub use fig16_energy::fig16_energy;
pub use fig17_inclusive::fig17_inclusive;
pub use heuristic_detector::heuristic_detector;
pub use ladder::{
    ladder, ladder_errors, LadderErrors, RungErrors, LITE_IPC_ERR_BUDGET_PCT,
    LITE_MPKI_ERR_BUDGET_PCT,
};
pub use runner::Runner;
pub use sampling::{sampling, GOLDEN_WORKLOADS};
pub use tables::{fig09_tact_area, sec6d2_table_size, tab1_area, tab2_workloads};

use crate::metrics::RunResult;
use crate::report::ExperimentReport;
use crate::runcache::{Fingerprint, KeyPrefix, RunCache};
use crate::system::{System, SystemConfig};
use catch_obs::Obs;
use catch_trace::key::{Key, KeySink};
use catch_workloads::WorkloadSpec;

/// Model-fidelity rung: which core model drives the (always real) memory
/// hierarchy, criticality detector and TACT. The ladder is ordered from
/// cheapest to reference; every rung is **structural** — it is part of the
/// run-cache key, the sweep/point fingerprints and the server's admission
/// fingerprint, so results from different rungs can never coalesce or
/// silently mix (DESIGN.md §14).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Functional fast-forward: every op takes the
    /// [`Core::fast_forward`](catch_cpu::Core::fast_forward) warm path
    /// (tags, replacement, dirty state, branch training) at one op per
    /// cycle. Hierarchy counters are meaningful; IPC is not (≈1 by
    /// construction).
    Fast,
    /// Timing-lite: the in-order-issue scoreboard core
    /// ([`LiteCore`](catch_cpu::LiteCore)) — dependence timestamps over
    /// the real frontend, hierarchy, detector and TACT, with a
    /// functional warm-up phase. Tracks OOO IPC within the
    /// `ladder_validation` bounds at a fraction of the cost.
    Lite,
    /// The full out-of-order core: the reference model every other rung
    /// is validated against.
    #[default]
    Ooo,
}

impl Fidelity {
    /// Every rung, cheapest first.
    pub const ALL: [Fidelity; 3] = [Fidelity::Fast, Fidelity::Lite, Fidelity::Ooo];

    /// Stable lower-case label (CLI flag value, wire field, journal tag).
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Fast => "fast",
            Fidelity::Lite => "lite",
            Fidelity::Ooo => "ooo",
        }
    }

    /// Parses a [`Fidelity::label`].
    ///
    /// # Errors
    ///
    /// Returns a diagnostic listing the valid labels on unknown input.
    pub fn parse(s: &str) -> Result<Fidelity, String> {
        match s {
            "fast" => Ok(Fidelity::Fast),
            "lite" => Ok(Fidelity::Lite),
            "ooo" => Ok(Fidelity::Ooo),
            other => Err(format!(
                "unknown fidelity '{other}' (expected fast, lite or ooo)"
            )),
        }
    }
}

/// Evaluation scale: instruction budget per workload and the trace seed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EvalConfig {
    /// Micro-ops per workload trace.
    pub ops: usize,
    /// Retired micro-ops excluded from measurement (warm-up).
    pub warmup: usize,
    /// Trace generation seed.
    pub seed: u64,
    /// Sampled execution: `Some(interval_ops)` replaces every full run
    /// with [`System::run_sampled`](crate::System::run_sampled) at that
    /// interval size (default clustering parameters); `warmup` is ignored
    /// in sampled mode — the cold-start interval is always simulated in
    /// detail and included in the reconstruction. Only meaningful on the
    /// [`Fidelity::Ooo`] rung; the cheaper rungs are themselves the
    /// approximation and ignore it.
    pub sample: Option<usize>,
    /// Model-fidelity rung (see [`Fidelity`]). Structural: two evals
    /// differing only here never share cache entries or admission
    /// fingerprints.
    pub fidelity: Fidelity,
}

impl EvalConfig {
    /// Default evaluation scale (balances fidelity and runtime).
    pub fn standard() -> Self {
        EvalConfig {
            ops: 80_000,
            warmup: 30_000,
            seed: 42,
            sample: None,
            fidelity: Fidelity::Ooo,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        EvalConfig {
            ops: 16_000,
            warmup: 4_000,
            seed: 42,
            sample: None,
            fidelity: Fidelity::Ooo,
        }
    }

    /// Switches suite runs to sampled execution with `interval_ops`-sized
    /// intervals.
    pub fn with_sample(mut self, interval_ops: usize) -> Self {
        self.sample = Some(interval_ops);
        self
    }

    /// Selects the model-fidelity rung.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The *screen* scale a ladder-mode sweep runs its cheap-rung grid
    /// pass at: `ops` divided by [`SCREEN_DIVISOR`] with the warm-up
    /// fraction preserved, floored at [`SCREEN_MIN_OPS`] so tiny evals
    /// (unit-test grids) are returned unchanged. Screening is a pure
    /// function of the eval, so the derived scale needs no extra
    /// configuration surface; the sweep fingerprints it structurally.
    /// Sampled mode is cleared — the screen *is* the sampling.
    pub fn screened(&self) -> Self {
        let ops = (self.ops / SCREEN_DIVISOR).max(SCREEN_MIN_OPS.min(self.ops));
        EvalConfig {
            ops,
            // Round the warm-up to keep its fraction of the run; the
            // measured tail shrinks proportionally.
            warmup: (self.warmup * ops) / self.ops.max(1),
            sample: None,
            ..*self
        }
    }
}

/// Scale divisor applied by [`EvalConfig::screened`]. The screen only
/// has to *rank* points (the ladder's stratified calibration and
/// OOO-validation fixpoint supply the reported numbers), so it can be
/// much more aggressive than a fidelity the report would quote raw.
pub const SCREEN_DIVISOR: usize = 8;

/// [`EvalConfig::screened`] never reduces `ops` below this floor (and
/// never increases it — evals at or under the floor are unchanged).
pub const SCREEN_MIN_OPS: usize = 8_000;

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::standard()
    }
}

impl Key for Fidelity {
    fn key(&self, sink: &mut KeySink) {
        sink.u64(match self {
            Fidelity::Fast => 0,
            Fidelity::Lite => 1,
            Fidelity::Ooo => 2,
        });
    }
}

impl Key for EvalConfig {
    fn key(&self, sink: &mut KeySink) {
        let EvalConfig {
            ops,
            warmup,
            seed,
            sample,
            fidelity,
        } = self;
        ops.key(sink);
        warmup.key(sink);
        seed.key(sink);
        sample.key(sink);
        fidelity.key(sink);
    }
}

/// Runs the whole ST suite under one configuration, parallelised across
/// workloads with the environment-sized [`Runner`] (`CATCH_JOBS`, else all
/// cores). Results are index-ordered and bit-identical to a serial run.
pub fn run_suite(config: &SystemConfig, eval: &EvalConfig) -> Vec<RunResult> {
    run_suite_parallel(config, eval, None)
}

/// Runs the whole ST suite under one configuration with an explicit
/// worker count (`None` defers to [`Runner::from_env`]).
///
/// Each (workload, config) job resolves through the process-wide
/// [`RunCache`]. Jobs whose results are already in memory are answered
/// on the calling thread; only the rest go to the [`Runner`], and no
/// runner is built when none remain. Those lease their traces, so each
/// is generated once per call (and shared with an enclosing or
/// concurrent call at the same scale), and structurally identical
/// (config, eval, workload) requests simulate once per process (or once
/// per cache directory with `CATCH_RUN_CACHE=<dir>`). Simulations run on
/// private core + hierarchy state, so worker count and scheduling cannot
/// affect any counter — the `harness_parity` and `cache_parity` suites
/// in `catch-tests` assert byte-identical results across job counts and
/// cache modes.
///
/// # Panics
///
/// Panics when a job has to be resolved off memory, `jobs` is `None`
/// and `CATCH_JOBS` holds an invalid value. Binaries that want a clean
/// diagnostic validate up front with [`Runner::from_env`] and pass the
/// resolved count explicitly.
pub fn run_suite_parallel(
    config: &SystemConfig,
    eval: &EvalConfig,
    jobs: Option<usize>,
) -> Vec<RunResult> {
    let system = System::new(config.clone());
    let runs = SuiteRuns::new(&system, eval);
    let workloads = catch_workloads::suite::all();
    let mut results: Vec<Option<RunResult>> =
        workloads.iter().map(|spec| runs.cached(spec)).collect();
    let rest: Vec<usize> = (0..results.len())
        .filter(|&i| results[i].is_none())
        .collect();
    if !rest.is_empty() {
        let _traces = RunCache::global().lease(eval.ops, eval.seed);
        let computed = runner(jobs).run(&rest, |_, &i| runs.run(&workloads[i]));
        for (i, result) in rest.into_iter().zip(computed) {
            results[i] = Some(result);
        }
    }
    results
        .into_iter()
        .map(|result| result.expect("every workload resolved"))
        .collect()
}

/// `jobs` workers, or the environment's count when `None`.
fn runner(jobs: Option<usize>) -> Runner {
    match jobs {
        Some(n) => Runner::with_jobs(n),
        None => Runner::from_env().unwrap_or_else(|e| panic!("{e}")),
    }
}

/// One (system, eval) pair running workloads through the process-wide
/// [`RunCache`], with the part of the fingerprint they share walked
/// once for all of them.
pub(crate) struct SuiteRuns<'a> {
    system: &'a System,
    eval: &'a EvalConfig,
    key: KeyPrefix,
}

impl<'a> SuiteRuns<'a> {
    pub(crate) fn new(system: &'a System, eval: &'a EvalConfig) -> Self {
        SuiteRuns {
            system,
            eval,
            key: KeyPrefix::new(system.config(), eval),
        }
    }

    /// Structural cache key of the pair's run of `workload`.
    pub(crate) fn fingerprint(&self, workload: &str) -> Fingerprint {
        self.key.fingerprint(workload)
    }

    /// The result of `spec` if memory already holds it (see
    /// [`RunCache::cached`]).
    fn cached(&self, spec: &WorkloadSpec) -> Option<RunResult> {
        let fp = self.fingerprint(spec.name);
        RunCache::global().cached(fp, &self.system.config().name)
    }

    /// The memoized result when the structural key is already known, a
    /// fresh simulation (on the trace the caller's lease shares)
    /// otherwise.
    pub(crate) fn run(&self, spec: &WorkloadSpec) -> RunResult {
        self.run_keyed(spec, self.fingerprint(spec.name))
    }

    /// [`SuiteRuns::run`] for a caller that holds `spec`'s fingerprint.
    fn run_keyed(&self, spec: &WorkloadSpec, fp: Fingerprint) -> RunResult {
        let (system, eval) = (self.system, self.eval);
        let cache = RunCache::global();
        cache.run_result_keyed(fp, &system.config().name, spec.name, || {
            let trace = cache.trace(spec, eval.ops, eval.seed);
            match (eval.fidelity, eval.sample) {
                (Fidelity::Ooo, Some(interval_ops)) => {
                    let cfg = catch_sample::SampleConfig::new(interval_ops);
                    system.run_sampled(trace, &cfg).result
                }
                (fidelity, _) => system.run(trace, fidelity, eval.warmup, &Obs::off()),
            }
        })
    }
}

/// One (config, workload) simulation through the process-wide
/// [`RunCache`]: [`SuiteRuns::run`] for a caller with a single request.
pub(crate) fn run_one(system: &System, eval: &EvalConfig, spec: &WorkloadSpec) -> RunResult {
    SuiteRuns::new(system, eval).run(spec)
}

/// The suite workloads `names` on `config`, in order, each through
/// [`run_one`]: the fixed behaviour-diverse slices that ablation-style
/// experiments compare configurations on.
pub(crate) fn run_slice(
    config: &SystemConfig,
    eval: &EvalConfig,
    names: &[&str],
) -> Vec<RunResult> {
    let system = System::new(config.clone());
    names
        .iter()
        .map(|n| {
            let spec = catch_workloads::suite::by_name(n).expect("slice workloads exist");
            run_one(&system, eval, &spec)
        })
        .collect()
}

/// The suite configurations experiment `id` will simulate over the full
/// 28-workload suite (an empty list for experiments that are
/// simulation-free, multi-programmed, slice-based or self-scheduling).
///
/// [`run_all`] uses this to collect every (config, workload) job of a
/// registry invocation up front; each experiment body consumes the same
/// list (or the helpers behind it), so the two cannot drift — asserted by
/// the `cache_parity` suite in `catch-tests`.
pub fn suite_requests(id: &str) -> Vec<SystemConfig> {
    match id {
        "fig1" => fig01_remove_l2::suite_configs(),
        "fig3" => fig03_latency_sensitivity::suite_configs(),
        "fig4" => fig04_criticality_oracle::suite_configs(),
        "fig5" => fig05_oracle_prefetch::suite_configs(),
        "fig10" => fig10_catch_exclusive::suite_configs(),
        "fig11" => fig11_timeliness::suite_configs(),
        "fig12" => fig12_scurve::suite_configs(),
        "fig13" => fig13_tact_components::suite_configs(),
        "fig15" => fig15_llc_latency::suite_configs(),
        "fig16" => fig16_energy::suite_configs(),
        "fig17" => fig17_inclusive::suite_configs(),
        "sec6d2" => tables::sec6d2_suite_configs(),
        // fig2/fig9/tab1/tab2 are simulation-free; fig14 is
        // multi-programmed (uncached); ablations/heuristic run 6/8-workload
        // slices that hit the cache via run_one; sampling times its own
        // runs and stays self-scheduled; ladder deliberately runs the
        // golden six at every rung itself (rung evals differ from `eval`).
        _ => Vec::new(),
    }
}

/// Runs a set of experiments as **one deduplicated work queue**: every
/// unique (config, eval, workload) simulation of every requested
/// experiment is collected up front via [`suite_requests`], fingerprinted
/// and deduplicated; those not already in memory are executed once on
/// the parallel [`Runner`] (warming the process-wide [`RunCache`]; no
/// runner is built when memory holds them all), and then each
/// experiment assembles its report entirely from cache hits. One trace
/// lease covers all of it, so each workload's trace is generated at most
/// once per call.
///
/// Cross-experiment sharing falls out of the structural keys: fig10's
/// `CATCH` row, fig12's S-curve column and sec6d2's 32-entry row are the
/// same simulations and run once. Reports are byte-identical to running
/// each experiment alone (asserted by `cache_parity` in `catch-tests`).
///
/// # Panics
///
/// Panics on unknown ids (see [`all_ids`]) and propagates simulation
/// panics from worker threads.
pub fn run_all(
    ids: &[&str],
    eval: &EvalConfig,
    jobs: Option<usize>,
) -> Vec<(String, ExperimentReport)> {
    let _traces = RunCache::global().lease(eval.ops, eval.seed);
    let workloads = catch_workloads::suite::all();

    // Phase 1: collect every needed (config, workload) job, deduplicated
    // by structural fingerprint (display names do not split jobs). A job
    // already in memory counts its hit here and is not queued.
    let systems: Vec<System> = ids
        .iter()
        .flat_map(|id| suite_requests(id))
        .map(System::new)
        .collect();
    let suites: Vec<SuiteRuns> = systems.iter().map(|s| SuiteRuns::new(s, eval)).collect();
    let cache = RunCache::global();
    let mut seen = crate::FxHashSet::default();
    let mut queue: Vec<(&SuiteRuns, WorkloadSpec, Fingerprint)> = Vec::new();
    for suite in &suites {
        for spec in &workloads {
            let fp = suite.fingerprint(spec.name);
            if seen.insert(fp.0) && cache.ready(fp).is_none() {
                queue.push((suite, *spec, fp));
            }
        }
    }

    // Phase 2: execute the rest once; results land in the process-wide
    // cache (and the disk cache when enabled).
    if !queue.is_empty() {
        runner(jobs).run(&queue, |_, (suite, spec, fp)| {
            suite.run_keyed(spec, *fp);
        });
    }

    // Phase 3: assemble every report from cache hits.
    ids.iter()
        .map(|id| (id.to_string(), run(id, eval)))
        .collect()
}

/// Percent delta of a ratio (1.084 → +8.4).
pub fn pct(ratio: f64) -> f64 {
    (ratio - 1.0) * 100.0
}

/// Column headers for per-category tables (categories + GeoMean).
pub(crate) fn category_columns() -> Vec<String> {
    let mut cols: Vec<String> = catch_trace::Category::ALL
        .iter()
        .map(|c| c.label().to_string())
        .collect();
    cols.push("GeoMean".to_string());
    cols
}

/// Per-category percent deltas of `new` vs `base` (last value = overall
/// geomean), aligned with [`category_columns`].
pub(crate) fn category_pct_row(base: &[RunResult], new: &[RunResult]) -> Vec<f64> {
    crate::metrics::per_category_ratio(base, new)
        .into_iter()
        .map(|(_, r)| pct(r))
        .collect()
}

/// All experiment ids in paper order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig9",
        "tab1",
        "tab2",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "sec6d2",
        "ablations",
        "heuristic",
        "sampling",
        "ladder",
    ]
}

/// Runs an experiment by id. Its configurations share one generation of
/// each trace, which lives until the call returns.
///
/// # Panics
///
/// Panics on unknown ids (see [`all_ids`]).
pub fn run(id: &str, eval: &EvalConfig) -> ExperimentReport {
    let _traces = RunCache::global().lease(eval.ops, eval.seed);
    match id {
        "fig1" => fig01_remove_l2(eval),
        "fig2" => fig02_ddg_example(),
        "fig3" => fig03_latency_sensitivity(eval),
        "fig4" => fig04_criticality_oracle(eval),
        "fig5" => fig05_oracle_prefetch(eval),
        "fig9" => fig09_tact_area(),
        "tab1" => tab1_area(),
        "tab2" => tab2_workloads(),
        "fig10" => fig10_catch_exclusive(eval),
        "fig11" => fig11_timeliness(eval),
        "fig12" => fig12_scurve(eval),
        "fig13" => fig13_tact_components(eval),
        "fig14" => fig14_mp(eval),
        "fig15" => fig15_llc_latency(eval),
        "fig16" => fig16_energy(eval),
        "fig17" => fig17_inclusive(eval),
        "sec6d2" => sec6d2_table_size(eval),
        "ablations" => ablations(eval),
        "heuristic" => heuristic_detector(eval),
        "sampling" => sampling(eval),
        "ladder" => ladder(eval),
        other => panic!("unknown experiment id '{other}'; see all_ids()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_cover_paper_artifacts() {
        let ids = all_ids();
        assert!(ids.contains(&"fig10"));
        assert!(ids.contains(&"tab1"));
        assert!(ids.contains(&"sampling"));
        assert!(ids.contains(&"ladder"));
        assert_eq!(ids.len(), 21);
    }

    #[test]
    fn fidelity_labels_round_trip() {
        for f in Fidelity::ALL {
            assert_eq!(Fidelity::parse(f.label()), Ok(f));
        }
        assert!(Fidelity::parse("atomic").is_err());
        assert_eq!(Fidelity::default(), Fidelity::Ooo);
    }

    #[test]
    fn fidelity_is_structural_in_the_eval_key() {
        // Every fingerprint in the workspace walks the eval; evals
        // differing only in rung must key differently.
        let key = |fidelity| {
            let mut sink = KeySink::new("test");
            EvalConfig::quick().with_fidelity(fidelity).key(&mut sink);
            sink.finish()
        };
        let keys: crate::FxHashSet<u128> = Fidelity::ALL.into_iter().map(key).collect();
        assert_eq!(keys.len(), Fidelity::ALL.len());
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run("fig99", &EvalConfig::quick());
    }
}
