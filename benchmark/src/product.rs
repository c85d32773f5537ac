//! Every call into the simulator lives in this file.
//!
//! The workloads, probes, statistics, spans and writers see only the
//! plain types defined here (sizes, counts, rendered text), never a
//! product type. When the product's entry points are renamed (ROADMAP
//! item 2 collapses `System::run_*`), the benchmark correction is this
//! one file.

use catch_cache::{
    AccessKind, CacheHierarchy, FixedLatencyBackend, HierarchyConfig, MemoryBackend,
};
use catch_core::experiments::{self, EvalConfig, Fidelity, GOLDEN_WORKLOADS};
use catch_core::report::ExperimentReport;
use catch_core::sweep::{self, SweepOptions, SweepSpec};
use catch_core::{
    run_fingerprint, CacheMode, CountingSink, EventClass, Obs, RunCache, RunResult, SampleConfig,
    SamplePlan, System, SystemConfig,
};
use catch_cpu::{Core, ExecLatencies};
use catch_criticality::{CriticalityDetector, DetectorConfig, RetiredInst};
use catch_dram::{DramConfig, DramSystem};
use catch_server::{Client, Priority, Request, Response, RunRequest, Server, ServerConfig};
use catch_timeq::{CalendarQueue, HiBitSet, ServiceRequest, Source, WHEEL_SLOTS};
use catch_trace::counters::Counters;
use catch_trace::hash::FxHasher;
use catch_trace::{ArchReg, LineAddr, OpClass, Trace};
use catch_workloads::{mp, suite};
use std::hash::Hasher;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variables that silently change what the product
/// simulates or how; the benchmark refuses to start when one is set.
pub const FORBIDDEN_ENV: [&str; 6] = [
    "CATCH_ENGINE",
    "CATCH_NO_SKIP",
    "CATCH_JOBS",
    catch_core::RUN_CACHE_ENV,
    "CATCH_FIDELITY",
    "CATCH_OPS",
];

/// The six golden workloads (`st_detail`, the rung probes, the sweep).
pub const GOLDEN: [&str; 6] = GOLDEN_WORKLOADS;

// ---------------------------------------------------------------- traces

/// One generated single-thread trace.
pub struct TraceBox(Trace);

impl TraceBox {
    /// Micro-ops in the trace.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `Trace::clone` — what every `run_st*` call pays, because the
    /// entry points take the trace by value.
    pub fn duplicate(&self) -> TraceBox {
        TraceBox(self.0.clone())
    }
}

/// `WorkloadSpec::generate` for the suite workload `name`.
pub fn generate(name: &str, ops: usize, seed: u64) -> TraceBox {
    let spec = suite::by_name(name).expect("benchmark names only suite workloads");
    TraceBox(spec.generate(ops, seed))
}

/// The four traces of one RATE-4 mix.
pub struct MixBox([Trace; 4]);

impl MixBox {
    /// Micro-ops over the four cores.
    pub fn len(&self) -> usize {
        self.0.iter().map(Trace::len).sum()
    }

    /// Four `Trace::clone`s.
    pub fn duplicate(&self) -> MixBox {
        MixBox(self.0.clone())
    }
}

/// Generates the RATE-4 mix of suite workload `name`.
pub fn generate_mix(name: &str, ops: usize, seed: u64) -> MixBox {
    let spec = suite::by_name(name).expect("benchmark names only suite workloads");
    let mix = mp::MpMix {
        name: format!("rate4_{name}"),
        members: [spec; 4],
    };
    MixBox(mix.generate(ops, seed))
}

// ------------------------------------------------------------ simulation

/// Machine configurations the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// `baseline_exclusive()`.
    Excl,
    /// `baseline_exclusive().with_catch()`.
    ExclCatch,
    /// `baseline_inclusive().with_catch()`.
    InclCatch,
}

impl Machine {
    fn config(self, cores: usize) -> SystemConfig {
        let base = match self {
            Machine::Excl => SystemConfig::baseline_exclusive(),
            Machine::ExclCatch => SystemConfig::baseline_exclusive().with_catch(),
            Machine::InclCatch => SystemConfig::baseline_inclusive().with_catch(),
        };
        if cores > 1 {
            base.with_cores(cores)
        } else {
            base
        }
    }
}

/// Core model (fidelity rung).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// `System::run_st_fast`.
    Fast,
    /// `System::run_st_lite`.
    Lite,
    /// `System::run_st_warm`.
    Ooo,
}

impl Rung {
    fn fidelity(self) -> Fidelity {
        match self {
            Rung::Fast => Fidelity::Fast,
            Rung::Lite => Fidelity::Lite,
            Rung::Ooo => Fidelity::Ooo,
        }
    }
}

/// What the benchmark keeps of one core's run: the exact simulated
/// counts it reports and a digest over every counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunOut {
    /// Retired post-warm-up micro-ops.
    pub instructions: u64,
    /// Simulated post-warm-up cycles.
    pub cycles: u64,
    /// FxHash over every `(name, value)` of the run's `Counters` export.
    pub digest: u64,
    /// TACT prefetches issued.
    pub tact_issued: u64,
    /// TACT prefetches consumed by a demand access.
    pub tact_used: u64,
    /// Used TACT prefetches that saved over 80 % of the LLC latency.
    pub tact_timely: u64,
}

impl RunOut {
    /// Instructions per simulated cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    fn of(result: &RunResult) -> RunOut {
        let mut h = FxHasher::default();
        for (name, value) in result.counters("") {
            h.write(name.as_bytes());
            h.write_u64(value);
        }
        RunOut {
            instructions: result.core.instructions,
            cycles: result.core.cycles,
            digest: h.finish(),
            tact_issued: result.hierarchy.timeliness.issued,
            tact_used: result.hierarchy.timeliness.used,
            tact_timely: result.hierarchy.timeliness.saved_over_80,
        }
    }
}

/// One single-thread run: `System::run_st_{fast,lite,warm}`.
pub fn run_st(machine: Machine, rung: Rung, trace: TraceBox, warmup: usize) -> RunOut {
    let system = System::new(machine.config(1));
    let result = match rung {
        Rung::Fast => system.run_st_fast(trace.0, warmup),
        Rung::Lite => system.run_st_lite(trace.0, warmup),
        Rung::Ooo => system.run_st_warm(trace.0, warmup),
    };
    RunOut::of(&result)
}

/// `System::run_st_obs` with a `CountingSink` on every event class;
/// returns the run and the number of events delivered.
pub fn run_st_counting(machine: Machine, trace: TraceBox) -> (RunOut, u64) {
    let sink = Arc::new(Mutex::new(CountingSink::new()));
    let obs = Obs::attached(sink.clone(), EventClass::ALL);
    let result = System::new(machine.config(1)).run_st_obs(trace.0, &obs);
    drop(obs);
    let events = sink.lock().expect("sink lock").total();
    (RunOut::of(&result), events)
}

/// `Core::run_to_completion` over a hierarchy whose backend answers
/// every access after `latency` cycles: the OOO core without DRAM.
pub fn run_st_fixed_memory(machine: Machine, trace: TraceBox, latency: u64) -> RunOut {
    let config = machine.config(1);
    let mut hier = CacheHierarchy::new(
        &config.hierarchy,
        Box::new(FixedLatencyBackend::new(latency)),
    );
    // What `System` does for the default engine.
    hier.enable_wake_hints();
    let mut core = Core::new(0, trace.0, config.core.clone());
    let stats = core.run_to_completion(&mut hier);
    let result = RunResult::collect(
        core.trace().name().to_string(),
        core.trace().category(),
        config.name.clone(),
        stats,
        &hier,
    );
    RunOut::of(&result)
}

/// `System::run_mp` on four cores; one [`RunOut`] per core.
pub fn run_mp(machine: Machine, mix: MixBox) -> Vec<RunOut> {
    let result = System::new(machine.config(4)).run_mp(mix.0);
    result.per_core.iter().map(RunOut::of).collect()
}

/// `System::run_sampled` against a full run of the same trace.
pub struct SampleProbe {
    /// `SamplePlan::build` alone, ms.
    pub plan_ms: f64,
    /// Full-run host time ÷ sampled-run host time.
    pub speedup: f64,
    /// |IPC sampled − IPC full| ÷ IPC full, percent.
    pub ipc_err_pct: f64,
}

/// Sampled against full run on one trace.
pub fn sample_probe(machine: Machine, trace: &TraceBox, interval_ops: usize) -> SampleProbe {
    let config = SampleConfig::new(interval_ops);
    let t = Instant::now();
    std::hint::black_box(SamplePlan::build(&trace.0, &config));
    let plan_ms = t.elapsed().as_secs_f64() * 1e3;
    let system = System::new(machine.config(1));
    let t = Instant::now();
    let full = system.run_st(trace.0.clone());
    let full_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sampled = system.run_sampled(trace.0.clone(), &config);
    let sampled_s = t.elapsed().as_secs_f64();
    SampleProbe {
        plan_ms,
        speedup: full_s / sampled_s.max(1e-9),
        ipc_err_pct: (sampled.result.ipc() - full.ipc()).abs() / full.ipc().max(1e-12) * 100.0,
    }
}

/// Max over the golden six of the lite rung's IPC error against the OOO
/// reference (`experiments::ladder_errors`), percent. Goes through the
/// run cache, so reset its memory first for a cold measurement.
pub fn lite_ipc_err_max_pct(ops: usize, warmup: usize, seed: u64) -> f64 {
    let errors = experiments::ladder_errors(&eval(ops, warmup, seed, Rung::Ooo));
    errors.lite.iter().map(|e| e.ipc_pct).fold(0.0, f64::max)
}

// -------------------------------------------------- run cache & registry

fn eval(ops: usize, warmup: usize, seed: u64, rung: Rung) -> EvalConfig {
    EvalConfig {
        ops,
        warmup,
        seed,
        sample: None,
        fidelity: rung.fidelity(),
    }
}

/// Activity counters of the process-wide run cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Requests served from memory.
    pub hits: u64,
    /// Requests that simulated.
    pub misses: u64,
    /// Results loaded from disk.
    pub disk_loaded: u64,
    /// Results written to disk.
    pub disk_stored: u64,
    /// Bytes read from disk entries.
    pub bytes_read: u64,
    /// Unreadable or corrupt disk entries.
    pub disk_warnings: u64,
}

impl CacheCounts {
    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            disk_loaded: self.disk_loaded - earlier.disk_loaded,
            disk_stored: self.disk_stored - earlier.disk_stored,
            bytes_read: self.bytes_read - earlier.bytes_read,
            disk_warnings: self.disk_warnings - earlier.disk_warnings,
        }
    }
}

/// Snapshot of `RunCache::global().summary()`.
pub fn cache_counts() -> CacheCounts {
    let s = RunCache::global().summary();
    CacheCounts {
        hits: s.hits,
        misses: s.misses,
        disk_loaded: s.disk_hits,
        disk_stored: s.disk_stores,
        bytes_read: s.bytes_read,
        disk_warnings: s.disk_warnings,
    }
}

/// Points the process-wide run cache at `dir` (`None`: memory only) and
/// drops everything memoized.
pub fn cache_reset(dir: Option<&Path>) {
    let cache = RunCache::global();
    cache.set_mode(match dir {
        Some(dir) => CacheMode::Disk(dir.to_path_buf()),
        None => CacheMode::Memory,
    });
    cache.reset_memory();
}

/// Every experiment id of the registry, in paper order.
pub fn registry_ids() -> Vec<&'static str> {
    experiments::all_ids()
}

/// `experiments::run_all` over `ids`; `(id, rendered report)` per id.
pub fn run_registry(
    ids: &[&str],
    ops: usize,
    warmup: usize,
    seed: u64,
    jobs: usize,
) -> Vec<(String, String)> {
    experiments::run_all(ids, &eval(ops, warmup, seed, Rung::Ooo), Some(jobs))
        .into_iter()
        .map(|(id, report)| (id, report.to_string()))
        .collect()
}

/// An assembled, not yet rendered report.
pub struct ReportBox(ExperimentReport);

impl ReportBox {
    /// `Display` rendering, as the CLI and the daemon ship it.
    pub fn render(&self) -> String {
        self.0.to_string()
    }
}

/// `experiments::run(id)`: simulates what the run cache lacks, then
/// assembles the report.
pub fn run_experiment(id: &str, ops: usize, warmup: usize, seed: u64) -> ReportBox {
    ReportBox(experiments::run(id, &eval(ops, warmup, seed, Rung::Ooo)))
}

/// `run_suite_parallel` of the exclusive baseline with `jobs` workers.
pub fn run_suite(ops: usize, warmup: usize, seed: u64, jobs: usize) -> usize {
    experiments::run_suite_parallel(
        &SystemConfig::baseline_exclusive(),
        &eval(ops, warmup, seed, Rung::Ooo),
        Some(jobs),
    )
    .len()
}

/// Host costs of the run cache's own operations, on private caches.
pub struct RunCacheProbe {
    /// `run_fingerprint`, ns per call.
    pub fingerprint_ns: f64,
    /// A memory hit of `RunCache::run_result`, µs.
    pub mem_hit_us: f64,
    /// A miss that persists its result (the simulation itself is a
    /// ready-made result), µs.
    pub disk_store_us: f64,
    /// A cold-memory request answered from the disk entry, µs.
    pub disk_load_us: f64,
}

/// Measures the run cache on `dir` with one real result as payload.
pub fn runcache_probe(dir: &Path, trace: &TraceBox, seed: u64) -> RunCacheProbe {
    const REPS: u64 = 64;
    let config = SystemConfig::baseline_exclusive();
    let payload = System::new(config.clone()).run_st(trace.0.clone());
    let workload = payload.workload.clone();
    let evals: Vec<EvalConfig> = (0..REPS)
        .map(|i| eval(trace.len(), 0, seed.wrapping_add(i), Rung::Ooo))
        .collect();

    let t = Instant::now();
    for e in evals.iter().cycle().take(2_000) {
        std::hint::black_box(run_fingerprint(&config, e, &workload));
    }
    let fingerprint_ns = t.elapsed().as_nanos() as f64 / 2_000.0;

    let writer = RunCache::new(CacheMode::Disk(dir.to_path_buf()));
    let t = Instant::now();
    for e in &evals {
        std::hint::black_box(writer.run_result(&config, e, &workload, || payload.clone()));
    }
    let disk_store_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;

    let t = Instant::now();
    for e in &evals {
        std::hint::black_box(writer.run_result(&config, e, &workload, || unreachable!()));
    }
    let mem_hit_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;

    let reader = RunCache::new(CacheMode::Disk(dir.to_path_buf()));
    let t = Instant::now();
    for e in &evals {
        std::hint::black_box(reader.run_result(&config, e, &workload, || payload.clone()));
    }
    let disk_load_us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    assert_eq!(
        reader.summary().disk_hits,
        REPS,
        "every probe entry loads from disk"
    );
    RunCacheProbe {
        fingerprint_ns,
        mem_hit_us,
        disk_store_us,
        disk_load_us,
    }
}

// ----------------------------------------------------------------- sweep

/// Design-space grids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    /// `SweepSpec::quick()`: 12 points.
    Quick,
    /// `SweepSpec::paper()`: 600 points.
    Paper,
}

impl Grid {
    fn spec(self) -> SweepSpec {
        match self {
            Grid::Quick => SweepSpec::quick(),
            Grid::Paper => SweepSpec::paper(),
        }
    }
}

/// `sweep::expand`: number of materialised points.
pub fn sweep_expand(grid: Grid) -> usize {
    sweep::expand(&grid.spec()).len()
}

/// What one `run_sweep` invocation did.
pub struct SweepOut {
    /// Rendered Pareto report.
    pub report: String,
    /// Grid size.
    pub total: usize,
    /// Points restored from the journal.
    pub resumed: usize,
    /// Points evaluated by this invocation.
    pub computed: usize,
    /// Points whose metrics come from an OOO reference run.
    pub validated: usize,
}

/// `sweep::run_sweep` of `grid` on `rung` (a cheap rung means ladder
/// mode), journaling to `checkpoint` when given.
pub fn run_sweep(
    grid: Grid,
    ops: usize,
    warmup: usize,
    seed: u64,
    rung: Rung,
    jobs: usize,
    checkpoint: Option<&Path>,
) -> Result<SweepOut, String> {
    let opts = SweepOptions {
        jobs: Some(jobs),
        checkpoint: checkpoint.map(Path::to_path_buf),
        ..SweepOptions::default()
    };
    let out = sweep::run_sweep(&grid.spec(), &eval(ops, warmup, seed, rung), &opts)?;
    Ok(SweepOut {
        report: out.report.to_string(),
        total: out.total,
        resumed: out.resumed,
        computed: out.computed,
        validated: out.validated,
    })
}

// ---------------------------------------------------------------- daemon

/// A bound, running `catch-server`.
pub struct Daemon(catch_server::ServerHandle);

impl Daemon {
    /// `Server::bind` with `workers` worker threads.
    pub fn bind(sock: &Path, workers: usize) -> std::io::Result<Daemon> {
        Server::bind(
            sock,
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .map(Daemon)
    }

    /// Drains and joins the daemon.
    pub fn stop(self) -> std::io::Result<()> {
        self.0.begin_drain();
        self.0.wait()
    }
}

/// Scheduler counters of a `stats` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounts {
    /// Requests admitted as new jobs.
    pub admitted: u64,
    /// Requests coalesced onto in-flight jobs.
    pub coalesced: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
}

/// One client connection.
pub struct Conn(Client);

impl Conn {
    /// `Client::connect` under fair-share identity `name`.
    pub fn connect(sock: &Path, name: &str) -> std::io::Result<Conn> {
        Client::connect(sock).map(|c| Conn(c.with_identity(name, Priority::Interactive)))
    }

    /// `Client::run`: the rendered report of experiment `id`.
    pub fn run(
        &mut self,
        id: &str,
        ops: usize,
        warmup: usize,
        seed: u64,
    ) -> Result<String, String> {
        self.0
            .run(id, &eval(ops, warmup, seed, Rung::Ooo))
            .map_err(|e| e.to_string())
    }

    /// `Client::ping`.
    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map_err(|e| e.to_string())
    }

    /// `Client::stats`.
    pub fn stats(&mut self) -> Result<ServerCounts, String> {
        self.0
            .stats()
            .map(|(s, _, _)| ServerCounts {
                admitted: s.admitted,
                coalesced: s.coalesced,
                rejected: s.rejected,
                completed: s.completed,
            })
            .map_err(|e| e.to_string())
    }
}

/// Encodes and decodes one run request and one report response carrying
/// `report`; returns the bytes that crossed the codec.
pub fn codec_round_trip(report: &str) -> usize {
    let request = Request::Run(RunRequest {
        seq: 7,
        client: "bench".to_string(),
        priority: Priority::Interactive,
        id: "fig10".to_string(),
        eval: eval(2_000, 500, 42, Rung::Ooo),
    });
    let line = request.encode();
    let back = Request::decode(&line).expect("own request decodes");
    assert_eq!(back, request, "request survives the codec");
    let response = Response::Report {
        seq: 7,
        id: "fig10".to_string(),
        report: report.to_string(),
    };
    let frame = response.encode();
    let back = Response::decode(&frame).expect("own response decodes");
    assert_eq!(back, response, "response survives the codec");
    line.len() + frame.len()
}

// ---------------------------------------------------------- layer probes

/// Hierarchy organisations the cache probe replays against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Org {
    /// Exclusive three-level, one core.
    Excl,
    /// Inclusive three-level, one core.
    Incl,
    /// Two-level (no L2), one core.
    NoL2,
    /// Inclusive three-level shared by four cores.
    Mp,
}

impl Org {
    fn hierarchy(self) -> HierarchyConfig {
        let mut h = match self {
            Org::Excl => SystemConfig::baseline_exclusive().hierarchy,
            Org::Incl | Org::Mp => SystemConfig::baseline_inclusive().hierarchy,
            Org::NoL2 => {
                SystemConfig::baseline_exclusive()
                    .without_l2(6656 << 10)
                    .hierarchy
            }
        };
        h.cores = if self == Org::Mp { 4 } else { 1 };
        h
    }
}

/// A demand-access stream in program order: `(core, kind, line)`.
pub struct AccessStream(Vec<(u8, AccessKind, LineAddr)>);

impl AccessStream {
    /// Accesses in the stream.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

fn demand_accesses(trace: &Trace, core: u8, out: &mut Vec<(u8, AccessKind, LineAddr)>) {
    let mut fetched = None;
    for op in trace.ops() {
        let code = op.pc.line();
        if fetched != Some(code) {
            fetched = Some(code);
            out.push((core, AccessKind::Code, code));
        }
        if let Some(mem) = op.mem {
            let kind = if op.class == OpClass::Store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            out.push((core, kind, mem.addr.line()));
        }
    }
}

/// The demand stream of `traces` run back to back on core 0: a code
/// fetch whenever the PC enters a new line, then the op's load or store.
pub fn demand_stream(traces: &[TraceBox]) -> AccessStream {
    let mut out = Vec::new();
    for t in traces {
        demand_accesses(&t.0, 0, &mut out);
    }
    AccessStream(out)
}

/// Four per-core streams (trace `i` on core `i % 4`, rebased into its
/// own address window as `MpMix::generate` does), interleaved round-robin.
pub fn demand_stream_mp(traces: &[TraceBox]) -> AccessStream {
    let mut lanes: [Vec<(u8, AccessKind, LineAddr)>; 4] = Default::default();
    for (i, t) in traces.iter().enumerate() {
        let core = i % 4;
        let rebased = t.0.rebased((core as u64 + 1) << mp::MP_ADDR_WINDOW_BITS);
        demand_accesses(&rebased, core as u8, &mut lanes[core]);
    }
    let longest = lanes.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(lanes.iter().map(Vec::len).sum());
    for i in 0..longest {
        for lane in &lanes {
            if let Some(&a) = lane.get(i) {
                out.push(a);
            }
        }
    }
    AccessStream(out)
}

/// A fixed-latency backend that records what reaches memory.
#[derive(Debug)]
struct RecordingBackend {
    latency: u64,
    log: Vec<(LineAddr, u64, bool)>,
}

impl MemoryBackend for RecordingBackend {
    fn access(&mut self, line: LineAddr, cycle: u64, write: bool) -> u64 {
        self.log.push((line, cycle, write));
        self.latency
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The reads and writes a cache replay sent to memory: `(line, cycle, write)`.
pub struct MemoryStream(Vec<(LineAddr, u64, bool)>);

/// Result of replaying a demand stream through `CacheHierarchy::access`.
pub struct CacheReplay {
    /// Host ns per `access` call.
    pub access_ns: f64,
    /// L1D hits ÷ L1D lookups.
    pub l1d_hit_frac: f64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Back-invalidate snoops.
    pub back_invalidates: u64,
    /// Reads that reached memory.
    pub dram_reads: u64,
    /// What reached memory, for the DRAM probe.
    pub memory: MemoryStream,
}

/// Cycles the replay clock advances per access (a 4-wide core retiring
/// about one memory op per cycle would be faster; the ledger only needs
/// time to move).
const REPLAY_CYCLES_PER_ACCESS: u64 = 2;

/// Replays `stream` against organisation `org`.
pub fn replay_cache(org: Org, stream: &AccessStream) -> CacheReplay {
    let backend = RecordingBackend {
        latency: 200,
        log: Vec::new(),
    };
    let mut hier = CacheHierarchy::new(&org.hierarchy(), Box::new(backend));
    let mut cycle = 0u64;
    let t = Instant::now();
    for (i, &(core, kind, line)) in stream.0.iter().enumerate() {
        std::hint::black_box(hier.access(core as usize, kind, line, cycle));
        cycle += REPLAY_CYCLES_PER_ACCESS;
        if i % 4096 == 0 {
            hier.maintain(cycle);
        }
    }
    let access_ns = t.elapsed().as_nanos() as f64 / stream.len().max(1) as f64;
    let stats = hier.stats();
    let sum = |f: fn(&catch_cache::CacheStats) -> u64, v: &[catch_cache::CacheStats]| {
        v.iter().map(f).sum::<u64>()
    };
    let l1d_lookups = sum(|c| c.accesses, &stats.l1d);
    let log = hier
        .backend()
        .as_any()
        .downcast_ref::<RecordingBackend>()
        .expect("the backend this function installed")
        .log
        .clone();
    CacheReplay {
        access_ns,
        l1d_hit_frac: sum(|c| c.hits, &stats.l1d) as f64 / l1d_lookups.max(1) as f64,
        l2_misses: sum(|c| c.misses, &stats.l2),
        llc_misses: stats.llc.misses,
        back_invalidates: stats.traffic.back_invalidates,
        dram_reads: stats.traffic.dram_reads,
        memory: MemoryStream(log),
    }
}

/// Result of replaying a memory stream through `DramSystem`.
pub struct DramReplay {
    /// Host ns per `DramSystem::read`.
    pub read_ns: f64,
    /// Host ns per `DramSystem::write`.
    pub write_ns: f64,
    /// Row-buffer hit rate.
    pub row_hit_frac: f64,
    /// Mean simulated read latency, cycles.
    pub avg_read_latency_cyc: f64,
}

/// Replays `stream` `reps` times: reads through `DramSystem::read`,
/// writes through `DramSystem::write`, each timed on its own.
pub fn replay_dram(stream: &MemoryStream, reps: usize) -> DramReplay {
    let reads: Vec<_> = stream.0.iter().filter(|a| !a.2).collect();
    let writes: Vec<_> = stream.0.iter().filter(|a| a.2).collect();
    let (mut read_ns, mut write_ns) = (0u128, 0u128);
    let mut last = DramSystem::new(DramConfig::ddr4_2400());
    for _ in 0..reps.max(1) {
        let mut dram = DramSystem::new(DramConfig::ddr4_2400());
        let t = Instant::now();
        for &&(line, cycle, _) in &reads {
            std::hint::black_box(dram.read(line, cycle));
        }
        read_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        for &&(line, cycle, _) in &writes {
            dram.write(line, cycle);
        }
        write_ns += t.elapsed().as_nanos();
        last = dram;
    }
    let per = |total: u128, n: usize| total as f64 / (n.max(1) * reps.max(1)) as f64;
    DramReplay {
        read_ns: per(read_ns, reads.len()),
        write_ns: per(write_ns, writes.len()),
        row_hit_frac: last.stats().row_hit_rate(),
        avg_read_latency_cyc: last.stats().avg_read_latency(),
    }
}

/// A retire stream for the criticality detector.
pub struct RetireStream(Vec<RetiredInst>);

/// Derives the retire stream of `trace`: register producers from the
/// trace's dependences, load hit levels and latencies from an exclusive
/// hierarchy the loads are replayed through.
pub fn retire_stream(trace: &TraceBox) -> RetireStream {
    let mut hier = CacheHierarchy::new(
        &Org::Excl.hierarchy(),
        Box::new(FixedLatencyBackend::new(200)),
    );
    let latencies = ExecLatencies::skylake();
    let mut last_writer = [None::<u64>; ArchReg::COUNT];
    let mut out = Vec::with_capacity(trace.len());
    for (seq, op) in trace.0.ops().iter().enumerate() {
        let seq = seq as u64;
        let cycle = seq * REPLAY_CYCLES_PER_ACCESS;
        let mut inst = if op.class == OpClass::Load {
            let line = op.mem.expect("loads carry an address").addr.line();
            let outcome = hier.access(0, AccessKind::Load, line, cycle);
            RetiredInst::new(op.pc, outcome.latency).as_load(outcome.hit_level)
        } else {
            RetiredInst::new(op.pc, latencies.of(op.class))
        };
        for (slot, src) in inst.src_producers.iter_mut().zip(op.srcs) {
            *slot = src.and_then(|r| last_writer[r.index()]);
        }
        if let Some(dst) = op.dst {
            last_writer[dst.index()] = Some(seq);
        }
        out.push(inst);
    }
    RetireStream(out)
}

/// Result of feeding a retire stream to the detector.
pub struct CriticalityProbe {
    /// Host ns per `on_retire`.
    pub retire_ns: f64,
    /// Critical-path walks.
    pub walks: u64,
    /// Steps over all walks.
    pub walk_steps: u64,
    /// PCs the table holds as critical at the end.
    pub critical_pcs: u64,
}

/// `CriticalityDetector::on_retire` over `stream`.
pub fn criticality_probe(stream: &RetireStream) -> CriticalityProbe {
    let mut detector = CriticalityDetector::new(DetectorConfig::paper());
    let t = Instant::now();
    for inst in &stream.0 {
        detector.on_retire(*inst);
    }
    let retire_ns = t.elapsed().as_nanos() as f64 / stream.0.len().max(1) as f64;
    let stats = detector.stats();
    CriticalityProbe {
        retire_ns,
        walks: stats.walks,
        walk_steps: stats.walk_steps,
        critical_pcs: detector.critical_pcs().len() as u64,
    }
}

/// Host costs of the event-queue primitives.
pub struct TimeqProbe {
    /// `CalendarQueue::post` + `take_due` of an in-wheel delta, ns per event.
    pub wheel_ns: f64,
    /// The same for a delta beyond the wheel (overflow heap), ns per event.
    pub overflow_ns: f64,
    /// `HiBitSet::next_set_at_or_after` at 224 and 1024 bits, ns per scan.
    pub hibitset_scan_ns: f64,
}

/// Microbenchmarks `catch-timeq`; `seed` only varies the deltas.
pub fn timeq_probe(seed: u64, events: usize) -> TimeqProbe {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64: cheap and only has to vary the deltas.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut drive = |base: u64, span: u64| {
        let mut q = CalendarQueue::new();
        let mut now = 0u64;
        let t = Instant::now();
        for _ in 0..events {
            let at = now + base + next() % span;
            q.post(ServiceRequest::new(at, Source::Exec))
                .expect("posts are never into the past");
            let due = q.peek_next(now).expect("one request is pending");
            std::hint::black_box(q.take_due(due));
            now = due;
        }
        t.elapsed().as_nanos() as f64 / events.max(1) as f64
    };
    let wheel_ns = drive(1, 300);
    let overflow_ns = drive(WHEEL_SLOTS as u64, 4 * WHEEL_SLOTS as u64);

    let mut scans = 0usize;
    let t = Instant::now();
    for bits in [224usize, 1024] {
        let mut set = HiBitSet::new(bits);
        for _ in 0..bits / 16 {
            set.set(next() as usize % bits);
        }
        for _ in 0..events {
            std::hint::black_box(set.next_set_at_or_after(next() as usize % bits));
            scans += 1;
        }
    }
    TimeqProbe {
        wheel_ns,
        overflow_ns,
        hibitset_scan_ns: t.elapsed().as_nanos() as f64 / scans.max(1) as f64,
    }
}
