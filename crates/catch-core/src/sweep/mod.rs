//! Resumable design-space sweep engine (ROADMAP item 2).
//!
//! A [`SweepSpec`] is a declarative grid over the design axes the paper's
//! Section VI-E trade-off argument cares about — LLC capacity ×
//! hierarchy organisation (exclusive / inclusive / two-level) × CATCH
//! on/off × LLC latency delta × baseline-prefetcher mix — expanded by
//! [`expand`] into one [`SweepPoint`] (a full [`SystemConfig`]) per grid
//! cell. [`run_sweep`] evaluates every point over the spec's workload
//! list:
//!
//! * **Work-stealing frontier** — the (point × workload) jobs flatten
//!   onto the registry's parallel [`Runner`]; workers pull jobs from the
//!   shared atomic cursor, so a slow point never convoys the sweep.
//! * **Run-cache composition** — every simulation resolves through the
//!   process-wide [`RunCache`], so points shared with registry
//!   experiments (or an earlier sweep at the same scale) cost nothing,
//!   and `eval.sample` buys sampled fidelity per point. The sweep leases
//!   the traces of each scale it runs, so every point replays one
//!   generation of each workload's trace.
//! * **Checkpoint journal** — with [`SweepOptions::checkpoint`] set,
//!   each point's aggregate metrics are appended to a line-oriented
//!   journal the moment its last workload retires; a later invocation
//!   resumes from the journal with **zero recompute** of journaled
//!   points and a final report byte-identical to an uninterrupted run
//!   (asserted by the `sweep` suite in `catch-tests`).
//! * **Pareto reports** — the report ranks the non-dominated frontier
//!   over (perf ↑, energy ↓, area ↓) using the existing
//!   [`energy`](crate::energy) and [`area`](crate::area) models.
//! * **Fidelity ladder** — when `eval.fidelity` selects a cheap rung
//!   (fast or timing-lite), the grid is *screened*: every point runs on
//!   that rung at the reduced [`EvalConfig::screened`] scale, and the
//!   OOO reference is spent only where it matters. A sparse spot-check
//!   pass (every [`DEFAULT_SPOT_STRIDE`]-th point) seeds the
//!   **stratified calibration**: rung→reference scale factors per
//!   objective are fitted per grid *family* (a point's axis combination
//!   minus the capacity axis), falling back to the CATCH stratum and
//!   then the whole-grid fit where a family has no validated pair yet.
//!   Each stratum's margin is its own observed worst-case residual — no
//!   a-priori floor or cap — so a family whose rung ratios are exact
//!   gets an exact (zero-slack) mapping while an uncovered family
//!   inherits the loose cross-family bound. Frontier validation then
//!   runs in waves to a fixpoint, **refitting the calibration after
//!   every wave** as validated pairs accumulate: a wave re-runs the
//!   unvalidated points that are non-dominated under
//!   calibrated-optimistic metrics, and converges when every unvalidated
//!   point is dominated by a validated one even with its stratum's
//!   margin granted in its favour. Validated points carry reference
//!   numbers in the report and the rest are lifted through the final
//!   calibrated mapping, so every frontier row is reference-fidelity by
//!   construction; the `ladder_validation` suite asserts frontier
//!   identity on the quick grid and the `ladder` experiment measures the
//!   rung error itself. In the worst case (useless calibration) the
//!   waves simply validate every point — all-OOO cost, never a mirage
//!   frontier. Rung and OOO evaluations journal under distinct
//!   fingerprints (`eval.fidelity` and the screen scale are structural),
//!   and the journal header records the fidelity plan so a resume under
//!   a different plan is rejected by name.
//!
//! The engine is reachable from the CLI (`run_experiment sweep[:grid]`,
//! `--fidelity`, `--checkpoint`, `--points`) and from `catch-server`
//! (the same `sweep[:grid]` ids drain through the daemon's sweep
//! priority class).

mod journal;
mod pareto;

use crate::area::{hierarchy_area, AreaConstants};
use crate::energy::{energy_of, EnergyConstants};
use crate::experiments::{run_one, EvalConfig, Fidelity, Runner, GOLDEN_WORKLOADS};
use crate::metrics::try_geomean;
use crate::report::ExperimentReport;
use crate::runcache::{Fingerprint, RunCache, SCHEMA_VERSION};
use crate::system::{System, SystemConfig};
use catch_cache::{CacheConfig, Level};
use catch_trace::key::{Key, KeySink};
use catch_workloads::WorkloadSpec;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hierarchy organisation axis of a sweep grid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Org {
    /// Private 1 MB L2 + shared exclusive LLC (Skylake-server-like).
    Excl3,
    /// Private 256 KB L2 + shared inclusive LLC (Skylake-client-like).
    Incl3,
    /// No L2: private L1s in front of the shared LLC (CATCH two-level).
    NoL2,
}

impl Org {
    fn label(self) -> &'static str {
        match self {
            Org::Excl3 => "excl3",
            Org::Incl3 => "incl3",
            Org::NoL2 => "noL2",
        }
    }
}

/// Declarative grid over the design axes. The cross product of every
/// axis is the point set; [`expand`] materialises it in a fixed,
/// deterministic order (org-major, then LLC size, CATCH, latency,
/// prefetchers).
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// LLC capacities in KiB. Each must divide into whole sets for one
    /// of the supported associativities (multiples of 704 KiB always
    /// work at 11 ways; powers of two at 16/8 ways).
    pub llc_kb: Vec<u64>,
    /// Hierarchy organisations.
    pub orgs: Vec<Org>,
    /// CATCH mechanisms off/on.
    pub catch: Vec<bool>,
    /// Extra LLC hit-latency cycles (0 = nominal; the Figure 15 axis).
    pub llc_extra_latency: Vec<u64>,
    /// Baseline prefetchers off/on (the prefetcher-mix axis).
    pub baseline_prefetchers: Vec<bool>,
    /// Core count used for chip-area accounting (simulation itself is
    /// single-core; the LLC is shared, so area is reported for a chip
    /// of this size — the paper's four-core arithmetic).
    pub chip_cores: usize,
    /// Workloads each point is evaluated over (perf is the geomean IPC
    /// ratio vs the exclusive baseline across these).
    pub workloads: Vec<String>,
}

impl Key for Org {
    fn key(&self, sink: &mut KeySink) {
        sink.u64(match self {
            Org::Excl3 => 0,
            Org::Incl3 => 1,
            Org::NoL2 => 2,
        });
    }
}

impl Key for SweepSpec {
    fn key(&self, sink: &mut KeySink) {
        let SweepSpec {
            llc_kb,
            orgs,
            catch,
            llc_extra_latency,
            baseline_prefetchers,
            chip_cores,
            workloads,
        } = self;
        llc_kb.key(sink);
        orgs.key(sink);
        catch.key(sink);
        llc_extra_latency.key(sink);
        baseline_prefetchers.key(sink);
        chip_cores.key(sink);
        workloads.key(sink);
    }
}

impl SweepSpec {
    /// Small grid for examples, smoke gates and tests: 12 points over
    /// two organisations, three LLC sizes and CATCH on/off.
    pub fn quick() -> Self {
        SweepSpec {
            llc_kb: vec![4224, 5632, 9728],
            orgs: vec![Org::Excl3, Org::NoL2],
            catch: vec![false, true],
            llc_extra_latency: vec![0],
            baseline_prefetchers: vec![true],
            chip_cores: 4,
            workloads: GOLDEN_WORKLOADS.iter().map(|w| w.to_string()).collect(),
        }
    }

    /// The full published grid: 600 points over ten LLC capacities,
    /// all three organisations, CATCH on/off, five LLC latency deltas
    /// and both prefetcher mixes.
    pub fn paper() -> Self {
        SweepSpec {
            llc_kb: vec![2816, 3520, 4224, 4928, 5632, 7040, 8448, 9856, 11264, 14080],
            orgs: vec![Org::Excl3, Org::Incl3, Org::NoL2],
            catch: vec![false, true],
            llc_extra_latency: vec![0, 4, 8, 16, 24],
            baseline_prefetchers: vec![true, false],
            chip_cores: 4,
            workloads: GOLDEN_WORKLOADS.iter().map(|w| w.to_string()).collect(),
        }
    }

    /// Looks a named grid preset up (`"quick"` or `"paper"`).
    pub fn by_name(name: &str) -> Option<SweepSpec> {
        match name {
            "quick" => Some(SweepSpec::quick()),
            "paper" => Some(SweepSpec::paper()),
            _ => None,
        }
    }

    /// Number of grid points the spec expands to.
    pub fn point_count(&self) -> usize {
        self.orgs.len()
            * self.llc_kb.len()
            * self.catch.len()
            * self.llc_extra_latency.len()
            * self.baseline_prefetchers.len()
    }
}

/// Resolves a protocol/CLI request id to a grid: `"sweep"` is the quick
/// grid, `"sweep:<name>"` a named preset. `None` for non-sweep ids.
pub fn by_request_id(id: &str) -> Option<SweepSpec> {
    match id {
        "sweep" => Some(SweepSpec::quick()),
        _ => id.strip_prefix("sweep:").and_then(SweepSpec::by_name),
    }
}

/// One expanded grid cell: the runnable configuration plus the capacity
/// and area facts the energy/area models need.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Systematic point label (also the report row label).
    pub name: String,
    /// Calibration stratum: the point's axis combination minus the
    /// capacity axis (`org`+`latency`+`prefetchers`+`CATCH`). Points of
    /// one family differ only in LLC capacity, which in practice leaves
    /// the rung→reference error almost perfectly correlated — the
    /// ladder's stratified calibration leans on exactly that.
    pub family: String,
    /// True when the point runs the CATCH mechanisms (the middle rung of
    /// the calibration fallback: family → CATCH stratum → whole grid).
    pub catch: bool,
    /// Full machine configuration (single-core; see
    /// [`SweepSpec::chip_cores`]).
    pub config: SystemConfig,
    /// Per-core L2 capacity (0 for two-level points).
    pub l2_bytes: u64,
    /// Shared LLC capacity.
    pub llc_bytes: u64,
    /// Chip area at [`SweepSpec::chip_cores`] cores (mm²).
    pub area_mm2: f64,
}

/// Smallest supported associativity that divides `lines` into whole
/// sets (the cache model indexes by mask for power-of-two set counts
/// and by modulo otherwise, so any divisor is valid).
fn pick_ways(lines: u64) -> usize {
    [11usize, 16, 8, 4, 2, 1]
        .into_iter()
        .find(|&w| lines.is_multiple_of(w as u64))
        .expect("1 divides everything")
}

fn build_point(
    spec: &SweepSpec,
    org: Org,
    llc_kb: u64,
    catch: bool,
    extra: u64,
    prefetchers: bool,
) -> SweepPoint {
    let llc_bytes = llc_kb << 10;
    let mut config = match org {
        Org::Excl3 => SystemConfig::baseline_exclusive(),
        Org::Incl3 => SystemConfig::baseline_inclusive(),
        Org::NoL2 => SystemConfig::baseline_exclusive().without_l2(llc_bytes),
    };
    if org != Org::NoL2 {
        let llc = &config.hierarchy.llc;
        let lines = llc_bytes / catch_trace::LINE_BYTES;
        config.hierarchy.llc =
            CacheConfig::with_repl("LLC", llc_bytes, pick_ways(lines), llc.latency, llc.repl)
                .expect("sweep axis produced an invalid LLC geometry");
    }
    config.core.baseline_prefetchers = prefetchers;
    if catch {
        config = config.with_catch();
    }
    if extra > 0 {
        config = config.with_extra_latency(Level::Llc, extra);
    }
    let mut family = String::from(org.label());
    if extra > 0 {
        family.push_str(&format!("+lat{extra}"));
    }
    if !prefetchers {
        family.push_str("-nopf");
    }
    if catch {
        family.push_str("+CATCH");
    }
    let mut name = format!("{}-{}KB", org.label(), llc_kb);
    name.push_str(
        family
            .strip_prefix(org.label())
            .expect("family leads with the org"),
    );
    let config = config.named(name.clone());
    let l2_bytes = if config.hierarchy.has_l2() {
        config.hierarchy.l2.bytes
    } else {
        0
    };
    let mut chip = config.hierarchy.clone();
    chip.cores = spec.chip_cores;
    let area_mm2 = hierarchy_area(&chip, &AreaConstants::nm14()).total_mm2();
    SweepPoint {
        name,
        family,
        catch,
        config,
        l2_bytes,
        llc_bytes,
        area_mm2,
    }
}

/// Materialises the grid in its fixed order (org-major, then LLC size,
/// CATCH, latency delta, prefetcher mix).
pub fn expand(spec: &SweepSpec) -> Vec<SweepPoint> {
    let mut points = Vec::with_capacity(spec.point_count());
    for &org in &spec.orgs {
        for &llc_kb in &spec.llc_kb {
            for &catch in &spec.catch {
                for &extra in &spec.llc_extra_latency {
                    for &pf in &spec.baseline_prefetchers {
                        points.push(build_point(spec, org, llc_kb, catch, extra, pf));
                    }
                }
            }
        }
    }
    points
}

/// Structural fingerprint of the whole sweep (grid spec + evaluation
/// scale + schema). The checkpoint journal is keyed by this: a journal
/// written for a different grid or scale can never resume a sweep. For
/// ladder sweeps the derived screen scale is part of the key, so a
/// journal written under a different screen derivation is foreign
/// rather than silently mixed.
pub fn sweep_fingerprint(spec: &SweepSpec, eval: &EvalConfig) -> Fingerprint {
    let mut sink = KeySink::new("sweep");
    sink.u64(SCHEMA_VERSION);
    spec.key(&mut sink);
    eval.key(&mut sink);
    if eval.fidelity != Fidelity::Ooo {
        eval.screened().key(&mut sink);
    }
    Fingerprint(sink.finish())
}

/// Structural fingerprint of one grid point under one evaluation scale
/// (the journal's per-point key). The configuration's walk skips its
/// display name, exactly as the run cache's keys do.
pub fn point_fingerprint(
    config: &SystemConfig,
    eval: &EvalConfig,
    workloads: &[String],
) -> Fingerprint {
    let mut sink = KeySink::new("sweeppoint");
    sink.u64(SCHEMA_VERSION);
    config.key(&mut sink);
    eval.key(&mut sink);
    workloads.key(&mut sink);
    Fingerprint(sink.finish())
}

/// Ladder-mode spot-check stride: one OOO reference run per
/// this many grid points (every grid gets at least the first point as a
/// seed). Spots only *seed* the calibration — the wave loop refits it
/// from every validated pair as validation accumulates, and the waves
/// themselves land one pair per surviving family — so extra spots
/// mostly duplicate reference runs the waves would spend better;
/// empirically a denser spot set *raises* the total validation count.
pub const DEFAULT_SPOT_STRIDE: usize = 1000;

/// One fitted calibration stratum: scale factors taking rung metrics
/// onto the reference scale (geomean of the per-pair ratios) plus that
/// stratum's observed worst-case deviation after rescaling. The margins
/// are *empirical* — a stratum whose pairs rescale exactly earns a
/// zero-slack mapping (which is what lets a validated point prune its
/// perf-tied capacity siblings), while a noisy stratum honestly carries
/// a wide one.
#[derive(Copy, Clone, Debug)]
struct Stratum {
    /// Multiplier taking rung perf onto the reference scale.
    s_perf: f64,
    /// Same for energy (absorbs the screen's shorter measured region).
    s_energy: f64,
    /// Worst perf deviation (fraction) of the stratum's pairs after
    /// rescaling.
    m_perf: f64,
    /// Worst energy deviation (fraction) after rescaling.
    m_energy: f64,
}

fn fit_stratum(pairs: &[(PointMetrics, PointMetrics)]) -> Stratum {
    let geomean_ratio = |f: fn(&PointMetrics) -> f64| -> f64 {
        let sum: f64 = pairs
            .iter()
            .map(|(rung, refm)| (f(refm) / f(rung)).ln())
            .sum();
        (sum / pairs.len() as f64).exp()
    };
    let s_perf = geomean_ratio(|m| m.perf);
    let s_energy = geomean_ratio(|m| m.energy_uj);
    let worst = |f: fn(&PointMetrics) -> f64, s: f64| {
        pairs
            .iter()
            .map(|(rung, refm)| (f(refm) / (f(rung) * s) - 1.0).abs())
            .fold(0.0f64, f64::max)
    };
    Stratum {
        s_perf,
        s_energy,
        m_perf: worst(|m| m.perf, s_perf),
        m_energy: worst(|m| m.energy_uj, s_energy),
    }
}

/// Stratified rung→reference calibration, fitted from every validated
/// (rung, reference) pair and refitted after each validation wave. A
/// point resolves its stratum hierarchically: its grid *family*
/// ([`SweepPoint::family`]) when that family has a validated pair, else
/// its CATCH stratum, else the whole-grid fit. `None` until the first
/// pair exists (then nothing can be pruned and the first wave simply
/// validates the rung-frontier).
struct Calibration {
    families: crate::FxHashMap<String, Stratum>,
    catch: [Option<Stratum>; 2],
    global: Option<Stratum>,
}

impl Calibration {
    /// Fits all strata from the validated pair set. `pair(i)` yields the
    /// (rung, reference) metrics of validated point `i`.
    fn fit(
        points: &[SweepPoint],
        pair_idx: &[usize],
        pair: impl Fn(usize) -> (PointMetrics, PointMetrics),
    ) -> Self {
        let usable: Vec<usize> = pair_idx
            .iter()
            .copied()
            .filter(|&i| {
                let (rung, refm) = pair(i);
                rung.perf.is_finite()
                    && refm.perf.is_finite()
                    && rung.perf > 0.0
                    && refm.perf > 0.0
                    && rung.energy_uj > 0.0
                    && refm.energy_uj > 0.0
            })
            .collect();
        let collect = |idx: &[usize]| -> Vec<(PointMetrics, PointMetrics)> {
            idx.iter().map(|&i| pair(i)).collect()
        };
        let mut families = crate::FxHashMap::default();
        let mut by_family: crate::FxHashMap<&str, Vec<usize>> = crate::FxHashMap::default();
        for &i in &usable {
            by_family
                .entry(points[i].family.as_str())
                .or_default()
                .push(i);
        }
        for (fam, idx) in by_family {
            families.insert(fam.to_string(), fit_stratum(&collect(&idx)));
        }
        let catch = [false, true].map(|flag| {
            let idx: Vec<usize> = usable
                .iter()
                .copied()
                .filter(|&i| points[i].catch == flag)
                .collect();
            (!idx.is_empty()).then(|| fit_stratum(&collect(&idx)))
        });
        let global = (!usable.is_empty()).then(|| fit_stratum(&collect(&usable)));
        Calibration {
            families,
            catch,
            global,
        }
    }

    /// The stratum point `i` calibrates through (family → CATCH stratum
    /// → whole grid), or `None` when no pair exists at all.
    fn stratum(&self, p: &SweepPoint) -> Option<Stratum> {
        self.families
            .get(&p.family)
            .copied()
            .or(self.catch[p.catch as usize])
            .or(self.global)
    }

    /// Rung metrics mapped onto the reference scale (identity before the
    /// first calibration pair exists).
    fn mapped(&self, p: &SweepPoint, m: &PointMetrics) -> PointMetrics {
        let s = self.stratum(p).unwrap_or(Stratum {
            s_perf: 1.0,
            s_energy: 1.0,
            m_perf: 0.0,
            m_energy: 0.0,
        });
        PointMetrics {
            perf: m.perf * s.s_perf,
            energy_uj: m.energy_uj * s.s_energy,
            area_mm2: m.area_mm2,
        }
    }

    /// Mapped metrics with the stratum's residual margins granted in the
    /// point's favour — what a point must present to escape pruning.
    /// `None` when no stratum applies yet (nothing may be pruned).
    fn optimistic(&self, p: &SweepPoint, m: &PointMetrics) -> Option<PointMetrics> {
        let s = self.stratum(p)?;
        Some(PointMetrics {
            perf: m.perf * s.s_perf * (1.0 + s.m_perf),
            energy_uj: m.energy_uj * s.s_energy * (1.0 - s.m_energy),
            area_mm2: m.area_mm2,
        })
    }
}

/// Execution knobs for one [`run_sweep`] invocation.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker count (`None` defers to [`Runner::from_env`]).
    pub jobs: Option<usize>,
    /// Checkpoint journal path. When set, completed points are appended
    /// as they finish and already-journaled points are never recomputed.
    pub checkpoint: Option<PathBuf>,
    /// Evaluate at most this many *new* points this invocation, leaving
    /// the rest pending in the journal (the cooperative interruption
    /// hook behind resumability tests and budgeted sweeps).
    pub limit: Option<usize>,
}

/// Aggregate metrics of one completed point.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PointMetrics {
    /// Geomean IPC ratio vs the exclusive baseline (NaN when the ratio
    /// set was degenerate — see [`try_geomean`]).
    pub perf: f64,
    /// Total energy over the workload list (µJ).
    pub energy_uj: f64,
    /// Chip area (mm²).
    pub area_mm2: f64,
}

/// What one [`run_sweep`] invocation did.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The Pareto report over every completed point.
    pub report: ExperimentReport,
    /// Grid size.
    pub total: usize,
    /// Points restored from the checkpoint journal (zero recompute).
    pub resumed: usize,
    /// Points evaluated by this invocation.
    pub computed: usize,
    /// Points still pending (non-zero only under [`SweepOptions::limit`]).
    pub remaining: usize,
    /// Completed points whose perf aggregate was degenerate (excluded
    /// from the frontier).
    pub degenerate: usize,
    /// Ladder mode: points whose reported metrics come from an OOO
    /// reference run (spot checks + frontier candidates). Zero for
    /// plain OOO sweeps.
    pub validated: usize,
}

// Per-point accumulation slot: a retired-workload counter plus the
// per-workload (ipc, energy) measurements awaiting aggregation.
type PointSlot = (AtomicUsize, Mutex<Vec<Option<(f64, f64)>>>);

/// Runs (or resumes) a sweep. See the module docs for the execution
/// model; the returned report is deterministic — byte-identical across
/// worker counts, cache modes and interrupt/resume splits.
///
/// # Errors
///
/// Fails on an empty grid, an unknown workload name, or a checkpoint
/// journal that is unreadable or was written for a different sweep.
pub fn run_sweep(
    spec: &SweepSpec,
    eval: &EvalConfig,
    opts: &SweepOptions,
) -> Result<SweepOutcome, String> {
    let points = expand(spec);
    let total = points.len();
    if total == 0 {
        return Err("sweep grid is empty (every axis needs at least one value)".to_string());
    }
    if spec.workloads.is_empty() {
        return Err("sweep workload list is empty".to_string());
    }
    let specs: Vec<WorkloadSpec> = spec
        .workloads
        .iter()
        .map(|name| {
            catch_workloads::suite::by_name(name)
                .map_err(|_| format!("unknown sweep workload '{name}'"))
        })
        .collect::<Result<_, _>>()?;
    let runner = match opts.jobs {
        Some(n) => Runner::with_jobs(n),
        None => Runner::from_env()?,
    };

    let ladder = eval.fidelity != Fidelity::Ooo;
    let ooo_eval = eval.with_fidelity(Fidelity::Ooo);
    // Ladder grids are *screened*: the rung pass runs at the reduced
    // [`EvalConfig::screened`] scale (identity for small evals), and the
    // spot checks calibrate the screen against the OOO reference before
    // any frontier decision is made. The reference validations always
    // run at the caller's full scale.
    let rung_eval = if ladder { eval.screened() } else { *eval };
    let _traces = [rung_eval, ooo_eval].map(|e| RunCache::global().lease(e.ops, e.seed));

    let sweep_fp = sweep_fingerprint(spec, eval);
    let point_fps: Vec<Fingerprint> = points
        .iter()
        .map(|p| point_fingerprint(&p.config, &rung_eval, &spec.workloads))
        .collect();
    // In ladder mode each point has a second structural key for its OOO
    // validation run — rung and reference results never share a journal
    // line or a cache shard.
    let ooo_fps: Vec<Fingerprint> = if ladder {
        points
            .iter()
            .map(|p| point_fingerprint(&p.config, &ooo_eval, &spec.workloads))
            .collect()
    } else {
        Vec::new()
    };

    let state = match &opts.checkpoint {
        Some(path) => journal::load(path, sweep_fp, eval.fidelity.label())?,
        None => journal::State::default(),
    };

    // Per-workload baseline IPCs: restored bit-exactly from the journal
    // header when resuming, computed through the run cache otherwise.
    let restore_baseline = |stored: &Vec<(String, f64)>| -> Result<Vec<f64>, String> {
        spec.workloads
            .iter()
            .map(|w| {
                stored
                    .iter()
                    .find(|(name, _)| name == w)
                    .map(|(_, ipc)| *ipc)
                    .ok_or_else(|| format!("checkpoint header lacks baseline IPC for '{w}'"))
            })
            .collect()
    };
    // The rung baseline runs at the same (screened) scale as the rung
    // grid pass, so per-workload ratios cancel the screen's systematic
    // scale bias instead of inheriting it.
    let baseline: Vec<f64> = match &state.baseline {
        Some(stored) => restore_baseline(stored)?,
        None => {
            let base = System::new(SystemConfig::baseline_exclusive());
            runner.run(&specs, |_, w| run_one(&base, &rung_eval, w).ipc())
        }
    };
    // Validation runs aggregate against OOO denominators, so ladder
    // perf ratios are comparable across rungs of the same point.
    let baseline_ooo: Option<Vec<f64>> = if ladder {
        Some(match &state.baseline_ooo {
            Some(stored) => restore_baseline(stored)?,
            None => {
                let base = System::new(SystemConfig::baseline_exclusive());
                runner.run(&specs, |_, w| run_one(&base, &ooo_eval, w).ipc())
            }
        })
    } else {
        None
    };

    let writer = match &opts.checkpoint {
        Some(path) => Some(journal::Writer::open(
            path,
            sweep_fp,
            total,
            state.baseline.is_none().then(|| {
                let named = |ipcs: &[f64]| {
                    spec.workloads
                        .iter()
                        .cloned()
                        .zip(ipcs.iter().copied())
                        .collect::<Vec<_>>()
                };
                journal::HeaderInfo {
                    fidelity: eval.fidelity.label(),
                    baseline: named(&baseline),
                    baseline_ooo: baseline_ooo.as_deref().map(named),
                }
            }),
        )?),
        None => None,
    };

    // Split the grid into journaled and pending points; honour the
    // cooperative interruption limit on the pending side.
    let mut metrics: Vec<Option<PointMetrics>> = vec![None; total];
    let mut resumed = 0usize;
    for (i, fp) in point_fps.iter().enumerate() {
        if let Some(m) = state.points.get(&fp.0) {
            metrics[i] = Some(*m);
            resumed += 1;
        }
    }
    let pending: Vec<usize> = (0..total).filter(|&i| metrics[i].is_none()).collect();
    let scheduled: Vec<usize> = match opts.limit {
        Some(k) => pending.iter().copied().take(k).collect(),
        None => pending.clone(),
    };
    let remaining = pending.len() - scheduled.len();

    // Evaluate one index set at one fidelity: flatten (point × workload)
    // jobs point-major onto the work-stealing Runner. The worker that
    // retires a point's last workload aggregates and journals it
    // immediately, so an interrupted process loses at most its in-flight
    // points. The rung pass and the ladder's OOO validation passes are
    // the same machinery with a different eval/baseline/fingerprint set.
    let constants = EnergyConstants::paper_like();
    let evaluate = |indices: &[usize],
                    eval: &EvalConfig,
                    baseline: &[f64],
                    fps: &[Fingerprint]|
     -> Vec<(usize, PointMetrics)> {
        let systems: Vec<System> = indices
            .iter()
            .map(|&i| System::new(points[i].config.clone()))
            .collect();
        let wl = specs.len();
        let jobs: Vec<(usize, usize, usize)> = indices
            .iter()
            .enumerate()
            .flat_map(|(s, &i)| (0..wl).map(move |w| (s, i, w)))
            .collect();
        let slots: Vec<PointSlot> = indices
            .iter()
            .map(|_| (AtomicUsize::new(0), Mutex::new(vec![None; wl])))
            .collect();
        let computed: Mutex<Vec<(usize, PointMetrics)>> = Mutex::new(Vec::new());

        runner.run(&jobs, |_, &(s, i, w)| {
            let point = &points[i];
            let result = run_one(&systems[s], eval, &specs[w]);
            let energy = energy_of(&result, &constants, point.l2_bytes, point.llc_bytes).total_uj();
            {
                let mut slot = slots[s].1.lock().expect("sweep slot poisoned");
                slot[w] = Some((result.ipc(), energy));
            }
            let done = slots[s].0.fetch_add(1, Ordering::AcqRel) + 1;
            if done == wl {
                // Last workload of this point: aggregate in fixed
                // workload order (determinism) and journal before
                // anything else can interrupt.
                let slot = slots[s].1.lock().expect("sweep slot poisoned");
                let ratios: Vec<f64> = slot
                    .iter()
                    .zip(baseline)
                    .map(|(cell, &base)| cell.expect("all workloads retired").0 / base)
                    .collect();
                let energy_uj: f64 = slot
                    .iter()
                    .map(|cell| cell.expect("all workloads retired").1)
                    .sum();
                let perf = match try_geomean(&ratios) {
                    Some(p) => p,
                    None => {
                        eprintln!(
                            "warning: sweep point '{}' has a degenerate perf aggregate \
                             (empty or non-positive ratio set); excluded from the frontier",
                            point.name
                        );
                        f64::NAN
                    }
                };
                let m = PointMetrics {
                    perf,
                    energy_uj,
                    area_mm2: point.area_mm2,
                };
                if let Some(w) = &writer {
                    w.append(fps[i], &point.name, m);
                }
                computed
                    .lock()
                    .expect("sweep results poisoned")
                    .push((i, m));
            }
        });

        computed.into_inner().expect("sweep results poisoned")
    };

    let rung_computed = evaluate(&scheduled, &rung_eval, &baseline, &point_fps);
    let computed_count = rung_computed.len();
    for (i, m) in rung_computed {
        metrics[i] = Some(m);
    }

    // Ladder mode: spend the OOO reference where it matters.
    //
    // 1. Periodic spot checks re-run every `DEFAULT_SPOT_STRIDE`-th point
    //    at the reference; the (rung, reference) pairs *calibrate* the screen —
    //    a fitted scale factor per objective plus a residual margin.
    // 2. Frontier validation runs in waves to a fixpoint: each wave
    //    re-runs exactly the unvalidated points that are non-dominated
    //    under calibrated-optimistic metrics, and the reference numbers
    //    it brings back prune the next wave. At the fixpoint every
    //    unvalidated point is dominated by a validated one even with the
    //    margin granted in its favour, so — provided the rung's residual
    //    error stays below the margin — no true frontier member can be
    //    lost, and the frontier table is reference-fidelity only.
    // 3. If the calibration residual blows through the cap, the screen
    //    is not trusted and every completed point is validated (all-OOO
    //    cost, never a mirage frontier).
    let mut validated = 0usize;
    if ladder {
        let baseline_ooo = baseline_ooo.as_deref().expect("ladder has an OOO baseline");
        let mut ooo_metrics: Vec<Option<PointMetrics>> = vec![None; total];
        for (i, fp) in ooo_fps.iter().enumerate() {
            if let Some(m) = state.points.get(&fp.0) {
                ooo_metrics[i] = Some(*m);
            }
        }
        let spot: Vec<usize> = (0..total)
            .step_by(DEFAULT_SPOT_STRIDE)
            .filter(|&i| metrics[i].is_some() && ooo_metrics[i].is_none())
            .collect();
        for (i, m) in evaluate(&spot, &ooo_eval, baseline_ooo, &ooo_fps) {
            ooo_metrics[i] = Some(m);
        }

        // The calibration refits after every wave from all validated
        // pairs; the loop below therefore converges on *both* fronts at
        // once — pruning what the current fit can prove dominated and
        // tightening the fit with what it cannot.
        let pair_indices = |ooo_metrics: &[Option<PointMetrics>]| -> Vec<usize> {
            (0..total)
                .filter(|&i| metrics[i].is_some() && ooo_metrics[i].is_some())
                .collect()
        };
        let refit = |ooo_metrics: &[Option<PointMetrics>]| -> Calibration {
            Calibration::fit(&points, &pair_indices(ooo_metrics), |i| {
                (
                    metrics[i].expect("pair has rung metrics"),
                    ooo_metrics[i].expect("pair has reference metrics"),
                )
            })
        };

        let mut cal = refit(&ooo_metrics);
        let mut waves = 0usize;
        loop {
            let optimistic = |i: usize, cal: &Calibration| -> Option<PointMetrics> {
                cal.optimistic(&points[i], &metrics[i].expect("candidate is complete"))
            };
            let candidates: Vec<usize> = (0..total)
                .filter(|&i| {
                    let Some(rung) = metrics[i] else { return false };
                    if ooo_metrics[i].is_some() || !rung.perf.is_finite() {
                        return false;
                    }
                    let Some(opt) = optimistic(i, &cal) else {
                        // No calibration pair exists yet: nothing can be
                        // pruned, everything stays a candidate.
                        return true;
                    };
                    !ooo_metrics
                        .iter()
                        .flatten()
                        .any(|v| v.perf.is_finite() && pareto::dominates(v, &opt))
                })
                .collect();
            if candidates.is_empty() {
                break;
            }
            // One wave: the candidates maximal among themselves under
            // their optimistic metrics — the frontier of the unvalidated
            // survivors. (Before the first pair exists the optimistic
            // mapping is identity-with-zero-margin, i.e. raw rung
            // metrics, which ranks the first wave correctly enough to
            // seed the calibration.)
            let opt_or_raw = |i: usize| -> PointMetrics {
                optimistic(i, &cal).unwrap_or_else(|| metrics[i].expect("candidate is complete"))
            };
            let maximal: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| {
                    let opt_i = opt_or_raw(i);
                    !candidates
                        .iter()
                        .any(|&j| j != i && pareto::dominates(&opt_or_raw(j), &opt_i))
                })
                .collect();
            let wave = if maximal.is_empty() {
                candidates
            } else {
                maximal
            };
            for (i, m) in evaluate(&wave, &ooo_eval, baseline_ooo, &ooo_fps) {
                ooo_metrics[i] = Some(m);
            }
            waves += 1;
            cal = refit(&ooo_metrics);
        }

        if let Some(g) = cal.global {
            eprintln!(
                "sweep calibration: {} pairs over {} families in {} waves; \
                 global s_perf {:.4} (±{:.2}%), s_energy {:.4} (±{:.2}%)",
                pair_indices(&ooo_metrics).len(),
                cal.families.len(),
                waves,
                g.s_perf,
                g.m_perf * 100.0,
                g.s_energy,
                g.m_energy * 100.0
            );
        }

        for i in 0..total {
            if metrics[i].is_none() {
                continue;
            }
            if ooo_metrics[i].is_some() {
                metrics[i] = ooo_metrics[i];
                validated += 1;
            } else {
                // Screen-scale numbers never reach the report raw: the
                // final calibration lifts them onto the reference scale
                // (and the fixpoint above guarantees they stay off the
                // frontier).
                metrics[i] = metrics[i].map(|m| cal.mapped(&points[i], &m));
            }
        }
    }

    let degenerate = metrics
        .iter()
        .flatten()
        .filter(|m| !m.perf.is_finite())
        .count();

    let report = pareto::report(
        spec,
        &points,
        &metrics,
        remaining,
        degenerate,
        ladder.then(|| (eval.fidelity.label(), validated)),
    );
    Ok(SweepOutcome {
        report,
        total,
        resumed,
        computed: computed_count,
        remaining,
        degenerate,
        validated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_expands_to_unique_valid_points() {
        let spec = SweepSpec::quick();
        let points = expand(&spec);
        assert_eq!(points.len(), spec.point_count());
        assert_eq!(points.len(), 12);
        let eval = EvalConfig::quick();
        let mut fps = Vec::new();
        for p in &points {
            // Every point must be a buildable machine...
            assert!(p.config.hierarchy.llc.sets().is_ok(), "{}", p.name);
            assert!(p.area_mm2 > 0.0);
            // ...with a unique structural key.
            let fp = point_fingerprint(&p.config, &eval, &spec.workloads);
            assert!(!fps.contains(&fp), "duplicate point {}", p.name);
            fps.push(fp);
        }
    }

    #[test]
    fn paper_grid_reaches_five_hundred_points() {
        let spec = SweepSpec::paper();
        assert!(spec.point_count() >= 500, "{}", spec.point_count());
        let points = expand(&spec);
        for p in &points {
            assert!(p.config.hierarchy.llc.sets().is_ok(), "{}", p.name);
        }
    }

    #[test]
    fn request_ids_resolve_presets() {
        assert_eq!(by_request_id("sweep"), Some(SweepSpec::quick()));
        assert_eq!(by_request_id("sweep:quick"), Some(SweepSpec::quick()));
        assert_eq!(by_request_id("sweep:paper"), Some(SweepSpec::paper()));
        assert_eq!(by_request_id("sweep:bogus"), None);
        assert_eq!(by_request_id("fig10"), None);
    }

    #[test]
    fn sweep_fingerprint_covers_grid_and_scale() {
        let eval = EvalConfig::quick();
        let reference = sweep_fingerprint(&SweepSpec::quick(), &eval);
        let mut grown = SweepSpec::quick();
        grown.llc_kb.push(11264);
        assert_ne!(sweep_fingerprint(&grown, &eval), reference);
        let mut bigger = eval;
        bigger.ops += 1;
        assert_ne!(sweep_fingerprint(&SweepSpec::quick(), &bigger), reference);
    }

    #[test]
    fn point_fingerprint_ignores_display_name() {
        let spec = SweepSpec::quick();
        let eval = EvalConfig::quick();
        let point = expand(&spec).remove(0);
        let renamed = point.config.clone().named("something-else");
        assert_eq!(
            point_fingerprint(&point.config, &eval, &spec.workloads),
            point_fingerprint(&renamed, &eval, &spec.workloads),
        );
    }

    #[test]
    fn pick_ways_prefers_supported_geometries() {
        assert_eq!(pick_ways((5632u64 << 10) / 64), 11);
        assert_eq!(pick_ways((8192u64 << 10) / 64), 16);
        assert_eq!(pick_ways(7), 1);
    }
}
