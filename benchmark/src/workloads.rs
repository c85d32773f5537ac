//! The six workloads. Uses `std` and [`crate::product`] only.
//!
//! Every workload has the same shape: a set-up phase (timed as
//! `setup_s`, repeated where it is cheap), then timed passes over a
//! fixed list of calls into the product ("slots") until the requested
//! seconds are used up, then self-consistency checks. A pass time is
//! reported as the sum over its slots of each slot's median across
//! passes: on a shared host a burst of interference then spoils one
//! sample of one slot, not a whole pass. Every timing is host time as
//! the clock read it.

use crate::mix::{self, Class, Mix};
use crate::product::{
    self, CacheCounts, Conn, Daemon, Grid, Machine, MixBox, RunOut, Rung, TraceBox,
};
use crate::span::{Lane, Tracer};
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Name and one-line reason of every workload, in running order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "st_detail",
        "golden six on the OOO core under exclusive+CATCH at 1M uops: only core, caches, DRAM, detector, TACT and timeq work",
    ),
    (
        "mp_shared",
        "three RATE-4 mixes on four lock-stepped cores, exclusive and inclusive+CATCH: shared-LLC contention and back-invalidation paths",
    ),
    (
        "registry_cold",
        "run_all over all 21 experiments into an empty disk run cache: every organisation, single-flight dedupe, shard stores, reports",
    ),
    (
        "registry_warm",
        "the same run_all against the filled directory with memory dropped: disk load, decode, fingerprints, trace regeneration, assembly",
    ),
    (
        "sweep_ladder",
        "600-point paper sweep on the lite ladder with a checkpoint, then a journal replay: LiteCore, calibration, journal, Pareto",
    ),
    (
        "serve_mix",
        "in-process daemon, two closed-loop clients, 70% cached / 25% simulating / 5% control requests: protocol, admission, scheduler",
    ),
];

/// Sizes of everything the workloads and probes run.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Worker threads handed to the product's parallel runners
    /// (`registry_*`, `sweep_ladder`). One at the full scale. With two,
    /// `peak_rss_mb` depends on which two simulations are in flight
    /// together (`registry_cold` read 117 to 152 MB over ten seeds,
    /// spread 15 %, against 2 % with one), and on this host a second busy
    /// thread shares the first one's core for its first 1.3 s to 2 s
    /// (README, "One worker"). Two workers are checked in
    /// `registry_cold` and timed, ungated, as `runner.parallel_eff`.
    pub jobs: usize,
    /// Repeats of a set-up that takes a fraction of a second (the
    /// median is reported); set-ups of a second or more run
    /// `setup_reps.min(3)` times, `registry_warm`'s once.
    pub setup_reps: usize,
    /// `st_detail`: micro-ops per trace and warm-up.
    pub st: (usize, usize),
    /// `mp_shared`: micro-ops per core.
    pub mp_ops: usize,
    /// `registry_*`: micro-ops per trace and warm-up.
    pub registry: (usize, usize),
    /// `registry_cold` set-up: scale of the priming registry pass.
    pub registry_prime: (usize, usize),
    /// `sweep_ladder`: the grid and its evaluation scale.
    pub sweep: (Grid, usize, usize),
    /// Scale of the lite-rung accuracy figure.
    pub accuracy: (usize, usize),
    /// Scale of the quick-grid ladder-against-all-OOO comparison.
    pub quick: (usize, usize),
    /// `serve_mix`: micro-ops per trace and warm-up of a request.
    pub serve: (usize, usize),
    /// `serve_mix`: requests per client per pass.
    pub serve_block: usize,
    /// Per-layer probes: micro-ops per golden trace (no warm-up, so
    /// simulated cycles cover every micro-op the host paid for).
    pub probe_ops: usize,
    /// Per-layer probes: scale of the registry-level probes.
    pub probe_registry: (usize, usize),
}

impl Scale {
    /// The scale the benchmark runs.
    pub fn full() -> Scale {
        Scale {
            jobs: 1,
            setup_reps: 5,
            st: (1_000_000, 250_000),
            mp_ops: 200_000,
            registry: (20_000, 5_000),
            registry_prime: (1_000, 250),
            sweep: (Grid::Paper, 80_000, 30_000),
            accuracy: (80_000, 30_000),
            quick: (16_000, 4_000),
            serve: (2_000, 500),
            serve_block: 120,
            probe_ops: 200_000,
            probe_registry: (2_000, 500),
        }
    }

    /// A few seconds for the whole pipeline, for the unit test.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            jobs: 2,
            setup_reps: 1,
            st: (6_000, 1_500),
            mp_ops: 2_000,
            registry: (200, 50),
            registry_prime: (100, 25),
            sweep: (Grid::Quick, 2_000, 500),
            accuracy: (2_000, 500),
            quick: (2_000, 500),
            serve: (200, 50),
            serve_block: 20,
            probe_ops: 4_000,
            probe_registry: (200, 50),
        }
    }
}

/// Self-consistency checks and requests: attempted against failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks and requests attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// What failed (first few).
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it if it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// One timed call site of a pass.
#[derive(Clone, Debug)]
pub struct Slot {
    /// Call site, e.g. `xalanc_like` or `rate4_tpcc_like/incl+catch`.
    pub name: String,
    /// Whether the call is the small operation a caller repeats (feeds
    /// `op_p50_ms`) or the bulk of the pass.
    pub primary: bool,
    /// Host seconds, one per call (at least one per pass).
    pub samples: Vec<f64>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds of each set-up repeat.
    pub setup_s: Vec<f64>,
    /// Timed passes completed.
    pub passes: usize,
    /// Timed call sites.
    pub slots: Vec<Slot>,
    /// Host ms of `serve_mix`'s `hit` requests, by experiment id (its
    /// operations are not slots of the main thread).
    pub ops: Vec<(String, Vec<f64>)>,
    /// Checks and requests.
    pub checks: Checks,
    /// Per-core results of the first pass's direct simulator runs (every
    /// later pass is checked equal to it).
    pub runs: Vec<RunOut>,
    /// Per-layer numbers only this workload can observe.
    pub layer: BTreeMap<&'static str, f64>,
    /// [`crate::host::kernel_ns`] before the set-up and after the last
    /// pass: a diagnostic, never folded into a timing.
    pub host_kernel_ns: [f64; 2],
}

impl Outcome {
    /// Host seconds per pass: the sum over slots of the slot's median.
    pub fn wall_s(&self) -> f64 {
        self.slots.iter().map(|s| stats::median(&s.samples)).sum()
    }

    /// Host ms of the operation a caller repeats, by kind: the primary
    /// slots, or what the workload recorded itself.
    pub fn op_kinds(&self) -> Vec<(String, Vec<f64>)> {
        if !self.ops.is_empty() {
            return self.ops.clone();
        }
        self.slots
            .iter()
            .filter(|s| s.primary)
            .map(|s| (s.name.clone(), s.samples.iter().map(|x| x * 1e3).collect()))
            .collect()
    }

    /// Median over the kinds of operation of each kind's median host ms.
    /// Pooling the samples instead would put the median on the boundary
    /// between two kinds whenever their costs differ, where one sample
    /// more on either side moves it from one cluster to the other.
    pub fn op_p50_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .op_kinds()
            .iter()
            .map(|(_, ms)| stats::median(ms))
            .collect();
        stats::median(&medians)
    }
}

/// State shared by the phases of one workload run.
pub struct Run<'a> {
    /// Benchmark seed: reaches only trace and request-mix generators.
    pub seed: u64,
    /// Host seconds the timed passes should fill.
    pub seconds: f64,
    /// Sizes.
    pub scale: &'a Scale,
    /// Span owner, for lanes of helper threads.
    pub tracer: &'a Tracer,
    /// The main thread's span recorder.
    pub lane: Lane,
    /// Directory the workload may write into.
    pub scratch: PathBuf,
    /// What the run produced so far.
    pub out: Outcome,
}

impl Run<'_> {
    /// Runs the set-up `reps` times, timing each; returns the last value.
    fn setup<T>(&mut self, reps: usize, mut f: impl FnMut(&mut Run<'_>) -> T) -> T {
        let mut last = None;
        for _ in 0..reps.max(1) {
            // Free the previous repeat's product (a gigabyte of traces)
            // before building it again.
            drop(last.take());
            let open = self.lane.begin("setup");
            let t = Instant::now();
            let value = f(self);
            self.out.setup_s.push(t.elapsed().as_secs_f64());
            self.lane.end(open);
            last = Some(value);
        }
        last.expect("at least one set-up repeat")
    }

    /// Runs passes until the seconds are used: another pass starts only
    /// if at least half of it (going by the last one) still fits.
    fn passes(&mut self, min: usize, mut pass: impl FnMut(&mut Run<'_>, usize)) {
        let start = Instant::now();
        let mut last = 0.0;
        while self.out.passes < min || start.elapsed().as_secs_f64() + last / 2.0 < self.seconds {
            let open = self.lane.begin("pass");
            let t = Instant::now();
            pass(self, self.out.passes);
            last = t.elapsed().as_secs_f64();
            self.lane.end(open);
            self.out.passes += 1;
        }
    }

    /// Times `f` as one sample of slot `name`.
    fn slot<T>(&mut self, name: &str, primary: bool, f: impl FnOnce(&mut Run<'_>) -> T) -> T {
        let t = Instant::now();
        let value = f(self);
        let s = t.elapsed().as_secs_f64();
        match self.out.slots.iter_mut().find(|slot| slot.name == name) {
            Some(slot) => slot.samples.push(s),
            None => self.out.slots.push(Slot {
                name: name.to_string(),
                primary,
                samples: vec![s],
            }),
        }
        value
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }
}

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, run: &mut Run<'_>) -> Option<()> {
    let body: fn(&mut Run<'_>) = match name {
        "st_detail" => st_detail,
        "mp_shared" => mp_shared,
        "registry_cold" => registry_cold,
        "registry_warm" => registry_warm,
        "sweep_ladder" => sweep_ladder,
        "serve_mix" => serve_mix,
        _ => return None,
    };
    run.out.host_kernel_ns[0] = crate::host::kernel_ns();
    body(run);
    run.out.host_kernel_ns[1] = crate::host::kernel_ns();
    Some(())
}

// -------------------------------------------------------------- st_detail

/// Slack between the requested warm-up and where statistics start: the
/// core retires up to four micro-ops in the cycle that crosses it.
const RETIRE_SLACK: u64 = 4;

/// One detailed run, with the trace copy the by-value API forces.
fn detailed_run(run: &mut Run<'_>, trace: &TraceBox, warmup: usize) -> RunOut {
    let copy = run.lane.span("trace.clone", || trace.duplicate());
    run.lane.span("system.run_st_warm", || {
        product::run_st(Machine::ExclCatch, Rung::Ooo, copy, warmup)
    })
}

fn st_detail(run: &mut Run<'_>) {
    let (ops, warmup) = run.scale.st;
    // Set-up: generate the traces and run one untimed pass. Generation
    // alone (0.2 s, all allocation) read +50 % through a host episode
    // that slowed simulation by 16 %.
    let traces: Vec<TraceBox> = run.setup(run.scale.setup_reps.min(3), |run| {
        let traces: Vec<TraceBox> = product::GOLDEN
            .iter()
            .map(|name| {
                let seed = run.seed;
                run.lane
                    .span("workloads.generate", || product::generate(name, ops, seed))
            })
            .collect();
        for trace in &traces {
            detailed_run(run, trace, warmup);
        }
        traces
    });
    let mut first: Vec<RunOut> = Vec::new();
    run.passes(3, |run, pass| {
        for (i, (name, trace)) in product::GOLDEN.iter().zip(&traces).enumerate() {
            let out = run.slot(name, true, |run| detailed_run(run, trace, warmup));
            if pass == 0 {
                let expected = (trace.len() - warmup) as u64;
                run.out.checks.expect(
                    out.instructions <= expected && out.instructions + RETIRE_SLACK > expected,
                    || {
                        format!(
                            "{name}: retired {} of {expected} post-warm-up uops",
                            out.instructions
                        )
                    },
                );
                first.push(out);
            } else {
                run.out.checks.expect(out == first[i], || {
                    format!("{name}: counters differ between pass 0 and pass {pass}")
                });
            }
        }
    });
    run.out.runs = first;
}

// -------------------------------------------------------------- mp_shared

/// RATE-4 mixes `mp_shared` runs: a pointer-chasing, a server and a
/// streaming member of the golden six.
const MP_MIXES: [&str; 3] = ["xalanc_like", "tpcc_like", "bio_like"];

/// One four-core run, with the trace copies the by-value API forces.
fn shared_run(run: &mut Run<'_>, machine: Machine, mix: &MixBox) -> Vec<RunOut> {
    let copy = run.lane.span("trace.clone", || mix.duplicate());
    run.lane
        .span("system.run_mp", || product::run_mp(machine, copy))
}

fn mp_shared(run: &mut Run<'_>) {
    let ops = run.scale.mp_ops;
    let machines = [(Machine::Excl, "excl"), (Machine::InclCatch, "incl+catch")];
    // Set-up: generate the mixes and run one untimed pass (as in
    // `st_detail`, and for the same reason).
    let mixes: Vec<MixBox> = run.setup(run.scale.setup_reps.min(3), |run| {
        let mixes: Vec<MixBox> = MP_MIXES
            .iter()
            .map(|name| {
                let seed = run.seed;
                run.lane.span("workloads.generate", || {
                    product::generate_mix(name, ops, seed)
                })
            })
            .collect();
        for (machine, _) in machines {
            for mix in &mixes {
                shared_run(run, machine, mix);
            }
        }
        mixes
    });
    let mut first: Vec<Vec<RunOut>> = Vec::new();
    run.passes(3, |run, pass| {
        let mut slot_idx = 0;
        for (machine, label) in machines {
            for (name, mix) in MP_MIXES.iter().zip(&mixes) {
                let slot = format!("rate4_{name}/{label}");
                let cores = run.slot(&slot, true, |run| shared_run(run, machine, mix));
                if pass == 0 {
                    let retired: u64 = cores.iter().map(|c| c.instructions).sum();
                    run.out.checks.expect(retired == mix.len() as u64, || {
                        format!("{slot}: retired {retired} of {} uops", mix.len())
                    });
                    first.push(cores);
                } else {
                    run.out.checks.expect(cores == first[slot_idx], || {
                        format!("{slot}: counters differ between pass 0 and pass {pass}")
                    });
                }
                slot_idx += 1;
            }
        }
    });
    run.out.runs = first.into_iter().flatten().collect();
}

// ------------------------------------------------------------- registries

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create a directory under the benchmark's out/");
}

fn record_cache_layer(layer: &mut BTreeMap<&'static str, f64>, delta: &CacheCounts) {
    let requests = delta.hits + delta.misses + delta.disk_loaded;
    layer.insert("runcache.hits", delta.hits as f64);
    layer.insert("runcache.misses", delta.misses as f64);
    layer.insert("runcache.disk_loaded", delta.disk_loaded as f64);
    layer.insert("runcache.bytes_read", delta.bytes_read as f64);
    layer.insert(
        "runcache.dedupe_frac",
        if requests == 0 {
            0.0
        } else {
            delta.hits as f64 / requests as f64
        },
    );
}

fn run_registry(run: &mut Run<'_>, ids: &[&str], scale: (usize, usize)) -> Vec<(String, String)> {
    let (seed, jobs) = (run.seed, run.scale.jobs);
    run.lane.span("experiments.run_all", || {
        product::run_registry(ids, scale.0, scale.1, seed, jobs)
    })
}

/// Repeats of the re-assembly below in `registry_cold`'s single pass
/// (`registry_warm` has a pass per second and takes one each).
const COLD_ASSEMBLY_REPS: usize = 20;

/// The operation a caller of a filled registry repeats: one report out
/// of the memory cache `run_all` just filled, for each suite-backed id
/// the daemon serves. It is `run_all` of that one id on one worker, as
/// the pass is: on the runner's default of a thread per core the
/// spawning spread the same call 12 to 17 % over ten seeds. Simulates
/// nothing, and must render the bytes `run_all` rendered.
fn reassemble(run: &mut Run<'_>, reports: &[(String, String)], scale: (usize, usize), reps: usize) {
    for _ in 0..reps {
        for id in mix::IDS {
            let seed = run.seed;
            let again = run.slot(&format!("reassemble:{id}"), true, |run| {
                run.lane.span("experiments.reassemble", || {
                    product::run_registry(&[id], scale.0, scale.1, seed, 1)
                        .pop()
                        .map_or_else(String::new, |(_, text)| text)
                })
            });
            let first = reports.iter().find(|(rid, _)| rid == id);
            run.out
                .checks
                .expect(first.is_some_and(|(_, text)| *text == again), || {
                    format!("{id} re-assembled from memory differs from run_all's")
                });
        }
    }
}

fn registry_cold(run: &mut Run<'_>) {
    let scale = run.scale.registry;
    let prime = run.scale.registry_prime;
    let ids = product::registry_ids();
    // Set-up: a registry pass at a small scale, in memory, so the
    // allocator and every experiment's code are warm before the one
    // timed pass. (Priming through a throw-away disk directory made this
    // set-up read anything from 1.3 s to 1.9 s.)
    let (primed, primed_misses) = run.setup(run.scale.setup_reps.min(3), |run| {
        product::cache_reset(None);
        let before = product::cache_counts();
        let reports = run_registry(run, &ids, prime);
        (reports, product::cache_counts().since(&before).misses)
    });
    let mut first: Vec<(String, String)> = Vec::new();
    run.passes(1, |run, pass| {
        let dir = run.dir(&format!("cold-{pass}"));
        fresh_dir(&dir);
        product::cache_reset(Some(&dir));
        let before = product::cache_counts();
        let reports = run.slot("run_all", false, |run| run_registry(run, &ids, scale));
        let delta = product::cache_counts().since(&before);
        let checks = &mut run.out.checks;
        checks.expect(
            delta.misses > 0 && delta.disk_stored == delta.misses,
            || {
                format!(
                    "cold pass {pass}: {} misses but {} stored",
                    delta.misses, delta.disk_stored
                )
            },
        );
        checks.expect(delta.disk_loaded == 0 && delta.disk_warnings == 0, || {
            format!(
                "cold pass {pass}: {} loaded, {} disk warnings",
                delta.disk_loaded, delta.disk_warnings
            )
        });
        checks.expect(reports.iter().all(|(_, text)| !text.is_empty()), || {
            format!("cold pass {pass}: an experiment rendered an empty report")
        });
        reassemble(run, &reports, scale, COLD_ASSEMBLY_REPS);
        if pass == 0 {
            record_cache_layer(&mut run.out.layer, &delta);
            first = reports;
        } else {
            run.out.checks.expect(reports == first, || {
                format!("cold pass {pass}: reports differ from pass 0")
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    // The timed pass hands the runner one worker (see `Scale::jobs`), so
    // the parallel runner and run-cache single-flight under contention
    // are checked here, untimed: the priming pass again on two workers
    // must simulate exactly as many runs and render the same bytes.
    product::cache_reset(None);
    let before = product::cache_counts();
    let contended = product::run_registry(&ids, prime.0, prime.1, run.seed, 2);
    let misses = product::cache_counts().since(&before).misses;
    run.out
        .checks
        .expect(contended == primed && misses == primed_misses, || {
            format!(
                "two workers: {misses} simulations against {primed_misses} on one, reports equal: {}",
                contended == primed
            )
        });
    product::cache_reset(None);
}

/// The experiment `registry_warm` leaves out: its 25 multi-programmed
/// mixes bypass the run cache and are drawn from the seed, and took
/// between 1.5 s and 2.1 s of a 2.3 s warm pass depending on it. That
/// drowns the layers this workload is here for; `mp_shared` and
/// `registry_cold` cover the MP paths.
const UNCACHED_MP_EXPERIMENT: &str = "fig14";

fn registry_warm(run: &mut Run<'_>) {
    let scale = run.scale.registry;
    let dir = run.dir("warm");
    let ids: Vec<&str> = product::registry_ids()
        .into_iter()
        .filter(|id| *id != UNCACHED_MP_EXPERIMENT)
        .collect();
    // Set-up: fill the directory (`registry_cold`'s pass, less one id).
    let cold = run.setup(1, |run| {
        fresh_dir(&dir);
        product::cache_reset(Some(&dir));
        run_registry(run, &ids, scale)
    });
    run.passes(3, |run, pass| {
        product::cache_reset(Some(&dir));
        let before = product::cache_counts();
        let reports = run.slot("run_all", false, |run| run_registry(run, &ids, scale));
        let delta = product::cache_counts().since(&before);
        let checks = &mut run.out.checks;
        checks.expect(delta.misses == 0 && delta.disk_warnings == 0, || {
            format!(
                "warm pass {pass}: {} run-cache misses, {} disk warnings",
                delta.misses, delta.disk_warnings
            )
        });
        checks.expect(delta.disk_loaded > 0, || {
            format!("warm pass {pass}: nothing was loaded from disk")
        });
        for ((id, text), (_, cold_text)) in reports.iter().zip(&cold) {
            checks.expect(text == cold_text, || {
                format!("warm pass {pass}: {id} differs from the cold fill's report")
            });
        }
        reassemble(run, &reports, scale, 1);
        if pass == 0 {
            record_cache_layer(&mut run.out.layer, &delta);
        }
    });
    product::cache_reset(None);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------- sweep_ladder

/// The frontier table of a sweep report (everything before the
/// all-points table small grids append).
fn frontier_of(report: &str) -> &str {
    report
        .split("All completed points")
        .next()
        .unwrap_or(report)
}

/// Replays of the finished journal per pass.
const JOURNAL_REPLAYS: usize = 5;

fn sweep_ladder(run: &mut Run<'_>) {
    let (grid, ops, warmup) = run.scale.sweep;
    let quick = run.scale.quick;
    let (seed, jobs) = (run.seed, run.scale.jobs);
    // Set-up: the quick grid both ways. The ladder is only worth its
    // speed if it keeps the all-OOO frontier, so that is checked here.
    let frontier_kept = run.setup(run.scale.setup_reps, |run| {
        let mut sweep = |rung| {
            product::cache_reset(None);
            run.lane.span("sweep.run_sweep", || {
                product::run_sweep(Grid::Quick, quick.0, quick.1, seed, rung, jobs, None)
            })
        };
        match (sweep(Rung::Ooo), sweep(Rung::Lite)) {
            (Ok(reference), Ok(ladder)) => {
                frontier_of(&reference.report) == frontier_of(&ladder.report)
            }
            _ => false,
        }
    });
    run.out.checks.expect(frontier_kept, || {
        "quick grid: the ladder's frontier differs from the all-OOO frontier".to_string()
    });

    let journal = run.dir("sweep.journal");
    std::fs::create_dir_all(&run.scratch).expect("create the benchmark's scratch directory");
    let mut first_report = String::new();
    run.passes(1, |run, pass| {
        let _ = std::fs::remove_file(&journal);
        product::cache_reset(None);
        let before = product::cache_counts();
        let sweep = |run: &mut Run<'_>| {
            run.lane.span("sweep.run_sweep", || {
                product::run_sweep(grid, ops, warmup, seed, Rung::Lite, jobs, Some(&journal))
            })
        };
        let cold = run.slot("run_sweep", false, sweep);
        let delta = product::cache_counts().since(&before);
        // The operation a caller of a finished sweep repeats: the same
        // call again, answered from the journal.
        let replays: Vec<_> = (0..JOURNAL_REPLAYS)
            .map(|_| run.slot("journal_replay", true, sweep))
            .collect();
        let checks = &mut run.out.checks;
        match cold {
            Ok(cold) => {
                checks.expect(cold.computed == cold.total && cold.resumed == 0, || {
                    format!(
                        "sweep pass {pass}: computed {} of {}",
                        cold.computed, cold.total
                    )
                });
                for replay in replays {
                    checks.expect(
                        replay.as_ref().is_ok_and(|r| {
                            r.computed == 0 && r.resumed == r.total && r.report == cold.report
                        }),
                        || match replay {
                            Ok(r) => format!(
                                "sweep pass {pass}: replay computed {}, resumed {} of {}, report equal: {}",
                                r.computed,
                                r.resumed,
                                r.total,
                                r.report == cold.report
                            ),
                            Err(e) => format!("sweep pass {pass}: replay failed: {e}"),
                        },
                    );
                }
                if pass == 0 {
                    run.out
                        .layer
                        .insert("sweep.ooo_runs", cold.validated as f64);
                    let bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
                    run.out.layer.insert("sweep.journal_bytes", bytes as f64);
                    record_cache_layer(&mut run.out.layer, &delta);
                    first_report = cold.report;
                } else {
                    checks.expect(cold.report == first_report, || {
                        format!("sweep pass {pass}: report differs from pass 0")
                    });
                }
            }
            Err(e) => checks.expect(false, || format!("sweep pass {pass} failed: {e}")),
        }
    });
    let replays = run.out.slots.iter().find(|s| s.name == "journal_replay");
    let replay_ms = replays.map_or(0.0, |s| stats::median(&s.samples) * 1e3);
    run.out.layer.insert("sweep.journal_replay_ms", replay_ms);
    let _ = std::fs::remove_file(&journal);
    product::cache_reset(None);
}

// -------------------------------------------------------------- serve_mix

/// Closed-loop clients (and daemon workers): one per core of the host
/// the sizes were chosen on.
const SERVE_CLIENTS: usize = 2;

/// Latency of one answered request.
#[derive(Clone, Copy, Debug)]
struct Answered {
    class: Class,
    id: usize,
    ms: f64,
}

fn serve_mix(run: &mut Run<'_>) {
    let (ops, warmup) = run.scale.serve;
    let (seed, block) = (run.seed, run.scale.serve_block);
    std::fs::create_dir_all(&run.scratch).expect("create the benchmark's scratch directory");
    let sock = run.dir("serve.sock");
    // Set-up: bind, connect, and ask once for every (id, hot seed) pair
    // so that `hit` requests find their simulations in the run cache.
    // Repeated from an empty cache (the median is `setup_s`); the last
    // repeat's daemon serves the timed passes.
    let mut bound: Option<(Daemon, Conn)> = None;
    for _ in 0..run.scale.setup_reps.min(3) {
        if let Some((daemon, conn)) = bound.take() {
            drop(conn);
            let stopped = daemon.stop();
            run.out.checks.expect(stopped.is_ok(), || {
                "a set-up repeat's daemon did not drain cleanly".to_string()
            });
        }
        bound = Some(run.setup(1, |run| {
            product::cache_reset(None);
            let daemon = run
                .lane
                .span("server.bind", || Daemon::bind(&sock, SERVE_CLIENTS))
                .expect("bind the daemon's socket under the benchmark's out/");
            let mut conn =
                Conn::connect(&sock, "control").expect("connect to the daemon just bound");
            for k in 0..mix::HOT_SEEDS {
                for id in mix::IDS {
                    let answer = run.lane.span("client.run", || {
                        conn.run(id, ops, warmup, mix::hot_seed(seed, k))
                    });
                    run.out.checks.expect(answer.is_ok(), || {
                        format!("pre-warm {id}: {}", answer.err().unwrap_or_default())
                    });
                }
            }
            (daemon, conn)
        }));
    }
    let (daemon, mut control) = bound.expect("at least one set-up repeat");

    let before = product::cache_counts();
    let answered: Mutex<Vec<Answered>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    // Clients and the main thread meet before and after every block;
    // the main thread times the block and says whether another follows.
    let gate = Barrier::new(SERVE_CLIENTS + 1);
    let more = AtomicBool::new(true);
    let pass_span = Mutex::new(None);
    let tracer = run.tracer;
    std::thread::scope(|scope| {
        for client in 0..SERVE_CLIENTS {
            let (sock, gate, more, pass_span) = (&sock, &gate, &more, &pass_span);
            let (answered, failures) = (&answered, &failures);
            scope.spawn(move || {
                let mut lane = tracer.lane();
                let mut mix = Mix::new(seed, client as u64, block);
                let mut conn = Conn::connect(sock, &format!("client-{client}"));
                loop {
                    gate.wait();
                    if !more.load(Ordering::SeqCst) {
                        break;
                    }
                    lane.set_cause(*pass_span.lock().expect("the main thread panicked"));
                    let mut mine = Vec::with_capacity(block);
                    for req in mix.next_block() {
                        let t = Instant::now();
                        let result = match (&mut conn, req.class) {
                            (Err(e), _) => Err(format!("connect: {e}")),
                            (Ok(c), Class::Ping) => lane.span("client.ping", || c.ping()),
                            (Ok(c), Class::Stats) => {
                                lane.span("client.stats", || c.stats().map(|_| ()))
                            }
                            (Ok(c), Class::Hit | Class::Miss) => lane.span("client.run", || {
                                c.run(mix::IDS[req.id], ops, warmup, req.eval_seed)
                                    .map(|_| ())
                            }),
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok(()) => mine.push(Answered {
                                class: req.class,
                                id: req.id,
                                ms,
                            }),
                            Err(e) => failures
                                .lock()
                                .expect("a client panicked")
                                .push(format!("client {client} {:?}: {e}", req.class)),
                        }
                    }
                    answered
                        .lock()
                        .expect("a client panicked")
                        .append(&mut mine);
                    gate.wait();
                }
                tracer.collect(lane);
            });
        }
        run.passes(2, |run, _| {
            *pass_span.lock().expect("a client panicked") = run.lane.current();
            run.slot("closed_loop_block", false, |_| {
                gate.wait();
                gate.wait();
            });
        });
        more.store(false, Ordering::SeqCst);
        gate.wait();
    });

    let answered = answered.into_inner().expect("a client panicked");
    let failures = failures.into_inner().expect("a client panicked");
    let requests = (run.out.passes * SERVE_CLIENTS * block) as u64;
    run.out.checks.attempted += requests;
    run.out.checks.failed += failures.len() as u64;
    run.out.checks.notes.extend(failures.into_iter().take(4));

    // A served report must equal the local one (both sides share the
    // process-wide run cache, so this simulates nothing).
    for id in mix::IDS {
        let hot = mix::hot_seed(seed, 0);
        let served = control.run(id, ops, warmup, hot);
        let local = product::run_experiment(id, ops, warmup, hot).render();
        run.out
            .checks
            .expect(served.as_deref() == Ok(local.as_str()), || {
                format!("{id}: served report differs from the local experiments::run")
            });
    }
    let counts = control.stats();
    run.out
        .checks
        .expect(counts.is_ok(), || "final stats request failed".to_string());
    let counts = counts.unwrap_or_default();
    drop(control);
    let t = Instant::now();
    let stopped = run.lane.span("server.drain", || daemon.stop());
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    run.out.checks.expect(stopped.is_ok(), || {
        "the daemon did not drain cleanly".to_string()
    });
    run.out.checks.expect(counts.rejected == 0, || {
        format!("admission rejected {} requests", counts.rejected)
    });

    let of = |class: Class| -> Vec<f64> {
        answered
            .iter()
            .filter(|a| a.class == class)
            .map(|a| a.ms)
            .collect()
    };
    let (hits, misses) = (of(Class::Hit), of(Class::Miss));
    // The operation a caller repeats is a cached report, one kind per
    // experiment id; the simulating requests show in the block time.
    run.out.ops = mix::IDS
        .iter()
        .enumerate()
        .map(|(id, name)| {
            let ms = answered
                .iter()
                .filter(|a| a.class == Class::Hit && a.id == id)
                .map(|a| a.ms)
                .collect();
            (format!("hit:{name}"), ms)
        })
        .collect();
    let block_s: f64 = run.out.wall_s();
    let layer = &mut run.out.layer;
    layer.insert(
        "server.req_per_s",
        (SERVE_CLIENTS * block) as f64 / block_s.max(1e-9),
    );
    layer.insert("server.hit_p50_ms", stats::median(&hits));
    layer.insert("server.hit_p90_ms", stats::percentile(&hits, 90.0));
    layer.insert("server.hit_p99_ms", stats::percentile(&hits, 99.0));
    layer.insert("server.miss_p50_ms", stats::median(&misses));
    layer.insert("server.miss_p90_ms", stats::percentile(&misses, 90.0));
    layer.insert("server.miss_max_ms", stats::percentile(&misses, 100.0));
    layer.insert("server.drain_ms", drain_ms);
    layer.insert("server.admitted", counts.admitted as f64);
    layer.insert("server.coalesced", counts.coalesced as f64);
    layer.insert("server.rejected", counts.rejected as f64);
    layer.insert("server.completed", counts.completed as f64);
    record_cache_layer(layer, &product::cache_counts().since(&before));
    product::cache_reset(None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_time_is_the_sum_of_slot_medians() {
        let out = Outcome {
            slots: vec![
                Slot {
                    name: "a".into(),
                    primary: true,
                    samples: vec![1.0, 9.0, 1.2],
                },
                Slot {
                    name: "b".into(),
                    primary: false,
                    samples: vec![2.0, 2.2, 50.0],
                },
            ],
            ..Outcome::default()
        };
        assert!((out.wall_s() - 3.4).abs() < 1e-12);
        // Only the primary slot is an operation kind.
        assert_eq!(out.op_kinds().len(), 1);
        assert_eq!(out.op_p50_ms(), 1200.0);
    }

    #[test]
    fn checks_count_and_keep_the_first_notes() {
        let mut c = Checks::default();
        for i in 0..20 {
            c.expect(i % 2 == 0, || format!("check {i}"));
        }
        assert_eq!((c.attempted, c.failed, c.notes.len()), (20, 10, 8));
        assert_eq!(c.notes[0], "check 1");
    }

    #[test]
    fn frontier_is_the_part_before_the_all_points_table() {
        assert_eq!(frontier_of("F\nAll completed points\nX"), "F\n");
        assert_eq!(frontier_of("only frontier"), "only frontier");
    }

    #[test]
    fn names_and_reasons_meet_the_contract() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
