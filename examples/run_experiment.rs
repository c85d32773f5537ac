//! The one command line for the experiment registry: runs, regenerates
//! and gates every paper experiment by id.
//!
//! ```sh
//! cargo run --release --example run_experiment -- fig10
//! cargo run --release --example run_experiment -- fig10 40000 10000
//! cargo run --release --example run_experiment -- --md fig10    # markdown
//! cargo run --release --example run_experiment -- --jobs 4 fig10
//! cargo run --release --example run_experiment -- --sample 5000 fig10
//! cargo run --release --example run_experiment -- all           # whole registry
//! cargo run --release --example run_experiment -- --cache-dir /tmp/cc fig10
//! cargo run --release --example run_experiment -- --no-cache fig10
//! cargo run --release --example run_experiment -- sample-smoke  # CI gate
//! cargo run --release --example run_experiment -- --trace-events t.json
//! cargo run --release --example run_experiment -- --profile tpcc_like
//! cargo run --release --example run_experiment -- serve /tmp/catch.sock
//! cargo run --release --example run_experiment -- --server /tmp/catch.sock fig10
//! cargo run --release --example run_experiment -- cache-stats   # shard inventory
//! cargo run --release --example run_experiment -- sweep         # quick design-space grid
//! cargo run --release --example run_experiment -- --checkpoint /tmp/s.journal sweep:paper
//! cargo run --release --example run_experiment -- --fidelity lite sweep:paper
//! cargo run --release --example run_experiment                  # lists ids
//! ```
//!
//! Flags come first, in any order; then `<id> [ops] [warmup]`. A
//! malformed value, a flag the chosen mode never reads (say `--workers`
//! outside `serve`, `--checkpoint` outside a local sweep, or `--sample`
//! with `--profile`) and an argument past `[warmup]` are errors: each
//! exits 2 naming it.
//!
//! `--jobs N` sets the worker-thread count for suite runs (equivalent to
//! `CATCH_JOBS=N`; default: all cores). Results are bit-identical for
//! every N — parallelism only changes wall-clock time.
//!
//! `CATCH_SEED=S` sets the trace-generation seed of every simulation
//! (default 42); a malformed value exits 2 naming it.
//!
//! `--sample I` runs each workload in SimPoint-style sampled mode with
//! `I`-op intervals instead of simulating every op in detail (see
//! DESIGN.md, "Sampling methodology").
//!
//! `--cache-dir DIR` persists the run cache to DIR (equivalent to
//! `CATCH_RUN_CACHE=DIR`); `--no-cache` disables all memoization
//! (equivalent to `CATCH_RUN_CACHE=off`). The default is in-memory
//! caching only. Every run prints a one-line cache summary
//! (hits/misses/bytes) to stderr; reports are byte-identical in every
//! mode (see DESIGN.md, "Run cache").
//!
//! The special id `all` runs the entire registry as one deduplicated
//! work queue (`experiments::run_all`): structurally identical
//! simulations shared by several figures run exactly once.
//!
//! `--trace-events PATH` switches to trace mode: instead of an experiment
//! id the positional argument names a workload (default `tpcc_like`, or
//! `all` for every golden workload) which is simulated under the CATCH
//! configuration, on the `--fidelity` rung, with the full observability
//! layer attached, writing a cycle-stamped event trace to PATH — Chrome
//! `about://tracing` JSON by default, JSONL when PATH ends in `.jsonl`.
//! For `all` the workloads run on the suite runner; each job writes a
//! part file and the parts are merged in job-index order, so the trace
//! is byte-identical for every `--jobs` value.
//!
//! `--profile` runs one workload (default `tpcc_like`, on the
//! `--fidelity` rung) with a counting sink and prints the event taxonomy
//! histogram plus the core's sampled ROB / scheduler / MSHR occupancies.
//!
//! The `*-smoke` ids are the CI gates, one row each of [`GATES`]: each
//! prints its measurements, then `<id> OK (<summary>)` and exits 0, or
//! one `<id> FAILED: <reason>` line per failure and exits 1.
//!
//! The `serve` subcommand starts the simulation daemon on a unix socket
//! (see DESIGN.md §12): experiment requests arrive as newline-delimited
//! JSON frames, are deduplicated against in-flight jobs and the run
//! cache, and are scheduled across a worker pool with strict priority
//! classes and per-client fair share. `--workers N` sizes the pool
//! (default: all cores); `--cache-dir` applies to the daemon's
//! process-wide run cache. A protocol `shutdown` request drains the
//! daemon gracefully: in-flight jobs finish, queued jobs are rejected
//! with a retryable error, and the process exits 0.
//!
//! `--server SOCK` runs the positional id (or `all`) on a daemon
//! instead of in-process; reports arrive pre-rendered and are printed
//! byte-identically to a local run. `--client NAME` sets the fair-share
//! identity and `--priority interactive|sweep|background` the
//! scheduling class. The control ids `ping`, `stats` and `shutdown`
//! talk to the daemon itself (`stats` prints queue depth, per-client
//! shares, run-cache activity and the disk-shard inventory).
//!
//! The `cache-stats` subcommand prints the on-disk run-cache inventory
//! (shard count, bytes, entry ages) for the directory selected by
//! `--cache-dir`/`CATCH_RUN_CACHE` or an optional positional path.
//!
//! The ids `sweep`, `sweep:quick` and `sweep:paper` run a design-space
//! grid through the sweep engine (see DESIGN.md §13): points execute on
//! the parallel runner through the run cache and the report ranks the
//! Pareto frontier over perf vs energy vs area. `--checkpoint PATH`
//! journals completed points so an interrupted sweep resumes with zero
//! recompute; `--points N` stops after N new points (budgeted slices of
//! a long sweep; exit 3 while points remain). The same ids are accepted
//! by a daemon, where sweeps drain through the `sweep` priority class
//! behind interactive work: `--server SOCK --priority sweep sweep:paper`.
//!
//! `--fidelity fast|lite|ooo` selects the model rung every simulation
//! runs on (DESIGN.md §14): `ooo` is the full out-of-order reference
//! (default), `lite` the in-order timing-lite core over the real memory
//! hierarchy, `fast` the functional fast-forward model. The fidelity is
//! structural — it is part of every run-cache, sweep-journal and daemon
//! admission fingerprint, so rungs never alias. A `lite` (or `fast`)
//! sweep runs the whole grid on the cheap rung and re-validates the
//! spot-check stride plus every frontier candidate at the OOO
//! reference, so Pareto frontier rows are always OOO-measured.

use catch_core::cli::{parse_arg, ArgError};
use catch_core::experiments::{self, runner, EvalConfig, Fidelity, GOLDEN_WORKLOADS};
use catch_core::sweep::{self, run_sweep, SweepOptions, SweepSpec};
use catch_core::{
    merge_parts, part_path, CacheMode, ChromeTraceSink, CountingSink, EventClass, EventSink,
    JsonlSink, NullSink, Obs, OccupancyHist, RunCache, SampleConfig, System, SystemConfig,
    TraceFormat,
};
use catch_server::{cachedao, Client, Priority, Server, ServerConfig};
use catch_workloads::suite;
use std::fmt::Display;
use std::io;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The trace-generation seed (default: the standard one).
const SEED_ENV: &str = "CATCH_SEED";

/// A gate's verdict: its summary, or every failure it found.
type Verdict = Result<String, Vec<String>>;

/// One CI gate: `run_experiment <id> [ops] [warmup]`.
#[derive(Debug)]
struct Gate {
    id: &'static str,
    about: &'static str,
    run: fn(&EvalConfig) -> Verdict,
    /// Which of `--sample` and `--fidelity` the gate honours.
    reads: &'static [&'static str],
}

/// Every CI gate, in usage order.
const GATES: &[Gate] = &[
    Gate {
        id: "sample-smoke",
        about: "CI accuracy gate",
        run: sample_smoke,
        reads: &["--sample"],
    },
    Gate {
        id: "obs-smoke",
        about: "CI observability-overhead gate",
        run: obs_smoke,
        reads: &[],
    },
    Gate {
        id: "cache-smoke",
        about: "CI run-cache gate",
        run: cache_smoke,
        reads: &["--sample", "--fidelity"],
    },
    Gate {
        id: "server-smoke",
        about: "CI simulation-service gate",
        run: server_smoke,
        reads: &["--sample", "--fidelity"],
    },
    Gate {
        id: "sweep-smoke",
        about: "CI sweep resumability gate",
        run: sweep_smoke,
        reads: &["--sample", "--fidelity"],
    },
    Gate {
        id: "ladder-smoke",
        about: "CI fidelity-ladder accuracy gate",
        run: ladder_smoke,
        reads: &[],
    },
];

/// What the positional id selects.
#[derive(Debug)]
enum Mode {
    /// No id: print the usage and the id list.
    Usage,
    Trace {
        path: PathBuf,
        workload: String,
    },
    Profile(String),
    Serve(PathBuf),
    CacheStats(Option<PathBuf>),
    Gate(&'static Gate),
    Client {
        sock: PathBuf,
        id: String,
    },
    Sweep(SweepSpec),
    /// A registry id or `all`, run in-process.
    Experiment(String),
}

impl Mode {
    /// How an error names this mode.
    fn name(&self) -> &str {
        match self {
            Mode::Usage => "usage",
            Mode::Trace { .. } => "--trace-events",
            Mode::Profile(_) => "--profile",
            Mode::Serve(_) => "serve",
            Mode::CacheStats(_) => "cache-stats",
            Mode::Gate(gate) => gate.id,
            Mode::Client { .. } => "--server",
            Mode::Sweep(_) => "a local sweep",
            Mode::Experiment(_) => "a local run",
        }
    }

    /// Whether this mode reads `flag`. Only the flags that belong to some
    /// modes can be stray; the rest apply to every run.
    fn reads(&self, flag: &str) -> bool {
        matches!(self, Mode::Usage)
            || match flag {
                "--md" => matches!(self, Mode::Sweep(_) | Mode::Experiment(_)),
                "--checkpoint" | "--points" => matches!(self, Mode::Sweep(_)),
                "--workers" => matches!(self, Mode::Serve(_)),
                "--server" | "--client" | "--priority" => matches!(self, Mode::Client { .. }),
                "--profile" => matches!(self, Mode::Profile(_)),
                // A traced or profiled run takes no sample plan; the daemon
                // and the shard inventory run nothing of their own.
                "--sample" | "--fidelity" => match self {
                    Mode::Gate(gate) => gate.reads.contains(&flag),
                    Mode::Trace { .. } | Mode::Profile(_) => flag == "--fidelity",
                    Mode::Serve(_) | Mode::CacheStats(_) => false,
                    _ => true,
                },
                _ => true,
            }
    }
}

/// One parsed command line. `main` applies `jobs` and `cache` to the
/// process before it dispatches on `mode`.
#[derive(Debug)]
struct Cli {
    jobs: Option<usize>,
    cache: Option<CacheMode>,
    eval: EvalConfig,
    markdown: bool,
    workers: Option<NonZeroUsize>,
    client: Option<String>,
    priority: Option<Priority>,
    checkpoint: Option<PathBuf>,
    points: Option<NonZeroUsize>,
    mode: Mode,
}

/// Parses the value that follows `flag`.
fn value<T, E: Display>(
    flag: &str,
    raw: Option<&String>,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, ArgError> {
    parse_arg(flag, raw.map(String::as_str), parse)?
        .ok_or_else(|| ArgError::new(flag, "", "missing value"))
}

/// A path or name value: anything but the empty string.
fn text(raw: &str) -> Result<String, &'static str> {
    if raw.is_empty() {
        Err("missing value")
    } else {
        Ok(raw.to_string())
    }
}

/// Parses a command line (without the program name). Pure: reads no
/// environment and changes nothing.
fn parse_cli(args: &[String]) -> Result<Cli, ArgError> {
    let mut cli = Cli {
        jobs: None,
        cache: None,
        eval: EvalConfig::standard(),
        markdown: false,
        workers: None,
        client: None,
        priority: None,
        checkpoint: None,
        points: None,
        mode: Mode::Usage,
    };
    let (mut trace_events, mut profile, mut server) = (None, false, None);
    // Every flag given, with its raw value ("" for a switch).
    let mut given: Vec<(&str, &str)> = Vec::new();
    let mut at = 0;
    while let Some(flag) = args.get(at).map(String::as_str) {
        let raw = args.get(at + 1);
        let takes_value = !matches!(flag, "--md" | "--profile" | "--no-cache");
        match flag {
            "--md" => cli.markdown = true,
            "--profile" => profile = true,
            "--no-cache" => cli.cache = Some(CacheMode::Off),
            "--jobs" => cli.jobs = Some(value(flag, raw, runner::Runner::parse_jobs)?),
            "--sample" => {
                cli.eval.sample = Some(value(flag, raw, str::parse::<NonZeroUsize>)?.get())
            }
            "--fidelity" => cli.eval.fidelity = value(flag, raw, Fidelity::parse)?,
            "--cache-dir" => cli.cache = Some(CacheMode::Disk(value(flag, raw, text)?.into())),
            "--trace-events" => trace_events = Some(PathBuf::from(value(flag, raw, text)?)),
            "--server" => server = Some(PathBuf::from(value(flag, raw, text)?)),
            "--client" => cli.client = Some(value(flag, raw, text)?),
            "--priority" => cli.priority = Some(value(flag, raw, Priority::parse)?),
            "--workers" => cli.workers = Some(value(flag, raw, str::parse)?),
            "--checkpoint" => cli.checkpoint = Some(value(flag, raw, text)?.into()),
            "--points" => cli.points = Some(value(flag, raw, str::parse)?),
            _ => break,
        }
        let shown = if takes_value { raw } else { None };
        given.push((flag, shown.map_or("", String::as_str)));
        at += 1 + usize::from(takes_value);
    }
    let positional = &args[at..];
    let id = positional.first().map(String::as_str);
    let workload = id.unwrap_or("tpcc_like");
    let all = trace_events.is_some() && workload == "all";
    if (trace_events.is_some() || profile) && !all && suite::by_name(workload).is_err() {
        return Err(ArgError::new("workload", workload, "not a suite workload"));
    }
    cli.mode = if let Some(path) = trace_events {
        Mode::Trace {
            path,
            workload: workload.to_string(),
        }
    } else if profile {
        Mode::Profile(workload.to_string())
    } else {
        match id {
            None => Mode::Usage,
            Some("serve") => Mode::Serve(value("serve", positional.get(1), text)?.into()),
            Some("cache-stats") => Mode::CacheStats(positional.get(1).map(PathBuf::from)),
            Some(id) => match (GATES.iter().find(|g| g.id == id), server) {
                (Some(gate), _) => Mode::Gate(gate),
                (None, Some(sock)) => Mode::Client {
                    sock,
                    id: id.to_string(),
                },
                (None, None) => match sweep::by_request_id(id) {
                    Some(spec) => Mode::Sweep(spec),
                    None if id == "all" || experiments::all_ids().contains(&id) => {
                        Mode::Experiment(id.to_string())
                    }
                    None => {
                        return Err(ArgError::new(
                            "id",
                            id,
                            "unknown experiment (run with no arguments for the list)",
                        ))
                    }
                },
            },
        }
    };
    if let Some(&(flag, raw)) = given.iter().find(|(flag, _)| !cli.mode.reads(flag)) {
        let reason = format!("{} does not read it", cli.mode.name());
        return Err(ArgError::new(flag, raw, reason));
    }
    // `serve` and `cache-stats` take a path where the other ids take
    // `[ops] [warmup]`.
    let takes_path = matches!(cli.mode, Mode::Serve(_) | Mode::CacheStats(_));
    if !takes_path {
        let scale =
            |i: usize, name| parse_arg(name, positional.get(i).map(String::as_str), str::parse);
        cli.eval.ops = scale(1, "ops")?.unwrap_or(cli.eval.ops);
        cli.eval.warmup = scale(2, "warmup")?.unwrap_or(cli.eval.warmup);
    }
    match positional.get(if takes_path { 2 } else { 3 }) {
        Some(extra) => Err(ArgError::new("argument", extra, "nothing reads it")),
        None => Ok(cli),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run_experiment [--md] [--jobs N] [--sample I] \
         [--fidelity fast|lite|ooo] \
         [--cache-dir DIR] [--no-cache] \
         [--trace-events PATH] [--profile] \
         [--server SOCK] [--client NAME] [--priority P] [--workers N] \
         [--checkpoint PATH] [--points N] \
         <id|workload> [ops] [warmup]"
    );
    eprintln!("available experiments:");
    for id in experiments::all_ids() {
        eprintln!("  {id}");
    }
    eprintln!("  all (whole registry, one deduplicated work queue)");
    eprintln!("  sweep | sweep:quick | sweep:paper (design-space grid; DESIGN.md §13)");
    eprintln!("  serve SOCK (start the simulation daemon; see DESIGN.md §12)");
    eprintln!("  cache-stats [DIR] (on-disk run-cache shard inventory)");
    for gate in GATES {
        eprintln!("  {} ({})", gate.id, gate.about);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = parse_cli(&args).unwrap_or_else(|e| e.exit());
    let seed = std::env::var(SEED_ENV).ok();
    if let Some(seed) =
        parse_arg(SEED_ENV, seed.as_deref(), str::parse).unwrap_or_else(|e| e.exit())
    {
        cli.eval.seed = seed;
    }
    if let Some(n) = cli.jobs {
        // The experiment registry sizes its Runner from the environment,
        // so the flag funnels through CATCH_JOBS.
        std::env::set_var(runner::JOBS_ENV, n.to_string());
    }
    // Fail fast on a typo'd CATCH_JOBS before any simulation starts
    // (suite runs would otherwise panic mid-experiment).
    if let Err(e) = runner::Runner::from_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    if let Some(mode) = cli.cache {
        RunCache::global().set_mode(mode);
    }
    let eval = &cli.eval;
    let done = match cli.mode {
        Mode::Usage => return usage(),
        Mode::Gate(gate) => return run_gate(gate, eval),
        Mode::Trace { path, workload } => traced_run(&path, &workload, eval),
        Mode::Profile(workload) => profile_run(&workload, eval),
        Mode::Serve(sock) => serve(&sock, cli.workers),
        Mode::CacheStats(dir) => cache_stats(dir.as_deref()),
        Mode::Client { sock, id } => client_mode(&sock, &id, eval, cli.client, cli.priority),
        Mode::Sweep(spec) => local_sweep(&spec, eval, cli.checkpoint, cli.points, cli.markdown),
        Mode::Experiment(id) => local_run(&id, eval, cli.markdown),
    };
    done.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// Runs one gate and reports its verdict.
fn run_gate(gate: &Gate, eval: &EvalConfig) -> ExitCode {
    match (gate.run)(eval) {
        Ok(summary) => {
            println!("{} OK ({summary})", gate.id);
            ExitCode::SUCCESS
        }
        Err(failures) => {
            for failure in failures {
                eprintln!("{} FAILED: {failure}", gate.id);
            }
            ExitCode::FAILURE
        }
    }
}

/// `summary` when `failures` is empty.
fn verdict(failures: Vec<String>, summary: String) -> Verdict {
    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(failures)
    }
}

/// A one-failure verdict for an error of step `what`.
fn failed<E: Display>(what: &'static str) -> impl FnOnce(E) -> Vec<String> {
    move |e| vec![format!("{what}: {e}")]
}

/// Runs a registry id (or `all`) in-process and prints its reports.
fn local_run(id: &str, eval: &EvalConfig, markdown: bool) -> Result<ExitCode, String> {
    let reports = if id == "all" {
        experiments::run_all(&experiments::all_ids(), eval, None)
    } else {
        vec![(id.to_string(), experiments::run(id, eval))]
    };
    for (_, report) in &reports {
        if markdown {
            println!("{}", report.to_markdown());
        } else {
            println!("{report}");
        }
    }
    eprintln!("{}", RunCache::global().summary());
    Ok(ExitCode::SUCCESS)
}

/// Daemon mode: bind the socket and serve until a protocol `shutdown`
/// drains the pool.
fn serve(sock: &Path, workers: Option<NonZeroUsize>) -> Result<ExitCode, String> {
    let mut config = ServerConfig::default();
    if let Some(w) = workers {
        config.workers = w.get();
    }
    let handle = Server::bind(sock, config.clone())
        .map_err(|e| format!("cannot bind {}: {e}", sock.display()))?;
    eprintln!(
        "catch-server: listening on {} ({} workers, cache {:?})",
        sock.display(),
        config.workers,
        RunCache::global().mode()
    );
    handle
        .wait()
        .map_err(|e| format!("catch-server: shutdown error: {e}"))?;
    eprintln!("catch-server: drained, exiting");
    Ok(ExitCode::SUCCESS)
}

/// Client mode: run `id` (or `all`) on a daemon; prints the pre-rendered
/// reports byte-identically to a local run, then a stats line to stderr.
fn client_mode(
    sock: &Path,
    id: &str,
    eval: &EvalConfig,
    name: Option<String>,
    priority: Option<Priority>,
) -> Result<ExitCode, String> {
    let name = name.unwrap_or_else(|| format!("anon-{}", std::process::id()));
    let mut client = Client::connect(sock)
        .map_err(|e| format!("cannot connect to {}: {e}", sock.display()))?
        .with_identity(&name, priority.unwrap_or(Priority::Interactive));
    // Daemon-control ids (no local equivalent).
    match id {
        "ping" => {
            client.ping().map_err(|e| format!("ping: {e}"))?;
            println!("pong");
            return Ok(ExitCode::SUCCESS);
        }
        "stats" => {
            let (sched, cache, shards) = client.stats().map_err(|e| format!("stats: {e}"))?;
            println!(
                "queue {} deep, {} running; {} admitted / {} coalesced / \
                 {} rejected / {} completed",
                sched.queue_depth,
                sched.running,
                sched.admitted,
                sched.coalesced,
                sched.rejected,
                sched.completed
            );
            for (client, share) in &sched.shares {
                println!("  share {client}: {share} ops dispatched");
            }
            println!("{cache}");
            println!(
                "disk: {} shards, {} B, oldest {}s, newest {}s",
                shards.entries, shards.bytes, shards.oldest_secs, shards.newest_secs
            );
            return Ok(ExitCode::SUCCESS);
        }
        "shutdown" => {
            client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            println!("server draining");
            return Ok(ExitCode::SUCCESS);
        }
        _ => {}
    }
    let ids = if id == "all" {
        experiments::all_ids()
    } else {
        vec![id]
    };
    for id in ids {
        let report = client.run(id, eval).map_err(|e| format!("{id}: {e}"))?;
        println!("{report}");
    }
    if let Ok((sched, cache, _)) = client.stats() {
        eprintln!(
            "server: {} admitted / {} coalesced / {} completed; {cache}",
            sched.admitted, sched.coalesced, sched.completed
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Shard inventory for the on-disk run cache: `dir` overrides the mode
/// from `--cache-dir` / `CATCH_RUN_CACHE`.
fn cache_stats(dir: Option<&Path>) -> Result<ExitCode, String> {
    let dir = match (dir, RunCache::global().mode()) {
        (Some(d), _) => d.to_path_buf(),
        (None, CacheMode::Disk(d)) => d,
        (None, mode) => {
            eprintln!(
                "cache-stats: no cache directory (mode {mode:?}); \
                 pass a path, --cache-dir DIR, or set {}",
                catch_core::RUN_CACHE_ENV
            );
            return Ok(ExitCode::from(2));
        }
    };
    let stats = cachedao::scan(&dir)
        .map_err(|e| format!("cache-stats: cannot scan {}: {e}", dir.display()))?;
    println!(
        "cache-stats: {} — {} shards, {} B, oldest {}s, newest {}s",
        dir.display(),
        stats.entries,
        stats.bytes,
        stats.oldest_secs,
        stats.newest_secs
    );
    Ok(ExitCode::SUCCESS)
}

/// The CI simulation-service gate: an in-process daemon on a temp
/// socket, the same experiment from two clients; fails unless both
/// responses are byte-identical to a local run, the second triggered
/// zero recomputation, and shutdown is clean.
fn server_smoke(eval: &EvalConfig) -> Verdict {
    const ID: &str = "fig10";
    let tag = std::process::id();
    let sock = std::env::temp_dir().join(format!("catch-server-smoke-{tag}.sock"));
    if !matches!(RunCache::global().mode(), CacheMode::Disk(_)) {
        let dir = std::env::temp_dir().join(format!("catch-server-smoke-cache-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        RunCache::global().set_mode(CacheMode::Disk(dir));
    }
    let handle = Server::bind(&sock, ServerConfig::default()).map_err(failed("bind"))?;
    let connect = |name: &str, priority| {
        Client::connect(&sock)
            .map(|c| c.with_identity(name, priority))
            .map_err(failed("connect"))
    };
    let mut alice = connect("alice", Priority::Interactive)?;
    let mut bob = connect("bob", Priority::Sweep)?;

    let t = Instant::now();
    let first = alice.run(ID, eval).map_err(failed("first run"))?;
    let cold_secs = t.elapsed().as_secs_f64();
    let misses_cold = alice
        .stats()
        .map_err(failed("stats after first run"))?
        .1
        .misses;

    let t = Instant::now();
    let second = bob.run(ID, eval).map_err(failed("second run"))?;
    let warm_secs = t.elapsed().as_secs_f64();
    let (sched, cache, shards) = bob.stats().map_err(failed("stats after second run"))?;

    println!(
        "server-smoke: {ID} ops={} cold {:.1} ms, warm {:.1} ms; \
         {} admitted / {} coalesced / {} completed; {} shards on disk",
        eval.ops,
        1e3 * cold_secs,
        1e3 * warm_secs,
        sched.admitted,
        sched.coalesced,
        sched.completed,
        shards.entries,
    );
    let mut failures = Vec::new();
    if first != second {
        failures.push("the two clients got different report bytes".to_string());
    }
    if cache.misses != misses_cold {
        failures.push(format!(
            "second response recomputed ({} misses cold, {} after warm)",
            misses_cold, cache.misses
        ));
    }
    if experiments::run(ID, eval).to_string() != first {
        failures.push("served report differs from a local run".to_string());
    }
    alice.shutdown().map_err(failed("shutdown request"))?;
    handle.wait().map_err(failed("drain"))?;
    if sock.exists() {
        failures.push("socket not unlinked on exit".to_string());
    }
    verdict(
        failures,
        "byte-identical, zero recompute, clean drain".to_string(),
    )
}

/// The CI run-cache gate: the whole registry twice against a persistent
/// cache directory; fails unless the warm pass is ≥ `MIN_SPEEDUP`×
/// faster with byte-identical reports and was served from the disk
/// entries alone (a pass that quietly recomputes can still be fast and
/// byte-identical at a small scale). It also gates the trace lifetime:
/// the cold pass's one `run_all` call builds each suite workload's trace
/// exactly once (fewer on a directory that was already filled), and the
/// warm pass, which simulates nothing, builds none.
fn cache_smoke(eval: &EvalConfig) -> Verdict {
    const MIN_SPEEDUP: f64 = 2.0;
    let cache = RunCache::global();
    let dir = match cache.mode() {
        // Honour an explicit --cache-dir / CATCH_RUN_CACHE=<dir>.
        CacheMode::Disk(dir) => dir,
        _ => std::env::temp_dir().join(format!("catch-cache-smoke-{}", std::process::id())),
    };
    cache.set_mode(CacheMode::Disk(dir.clone()));

    let ids = experiments::all_ids();
    let render = |reports: &[(String, catch_core::report::ExperimentReport)]| -> String {
        reports
            .iter()
            .map(|(_, r)| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };

    cache.reset_memory();
    let before = cache.summary();
    let t = Instant::now();
    let cold = render(&experiments::run_all(&ids, eval, None));
    let cold_secs = t.elapsed().as_secs_f64();
    let after_cold = cache.summary();
    eprintln!("cache-smoke cold: {after_cold} ({cold_secs:.1}s)");

    // Drop the in-memory cache so the warm pass must load from disk.
    cache.reset_memory();
    let t = Instant::now();
    let warm = render(&experiments::run_all(&ids, eval, None));
    let warm_secs = t.elapsed().as_secs_f64();
    let after_warm = cache.summary();
    eprintln!("cache-smoke warm: {after_warm} ({warm_secs:.1}s)");

    // Every entry the cold pass stored (or, on a directory that was
    // already filled, loaded) is what the warm pass must load.
    let cold_loaded = after_cold.disk_hits - before.disk_hits;
    let touched = (after_cold.disk_stores - before.disk_stores) + cold_loaded;
    let loaded = after_warm.disk_hits - after_cold.disk_hits;
    let recomputed = after_warm.misses - after_cold.misses;
    let warnings = after_warm.disk_warnings - after_cold.disk_warnings;
    let workloads = suite::all().len() as u64;
    let built_cold = after_cold.trace_misses - before.trace_misses;
    let built_warm = after_warm.trace_misses - after_cold.trace_misses;
    let speedup = cold_secs / warm_secs.max(1e-9);
    println!(
        "cache-smoke: {} experiments, cold {cold_secs:.1}s, warm {warm_secs:.1}s, \
         speedup {speedup:.2}x, {loaded} shards loaded ({:.0} us of the warm pass each), dir {}",
        ids.len(),
        warm_secs * 1e6 / loaded.max(1) as f64,
        dir.display()
    );
    let mut failures = Vec::new();
    if cold != warm {
        failures.push("warm-cache reports differ from cold-cache reports".to_string());
    }
    if speedup < MIN_SPEEDUP {
        failures.push(format!("warm pass under {MIN_SPEEDUP}x faster"));
    }
    if recomputed != 0 {
        failures.push(format!("warm pass recomputed {recomputed} simulations"));
    }
    if warnings != 0 {
        failures.push(format!(
            "warm pass met {warnings} unreadable or corrupt entries"
        ));
    }
    if built_cold > workloads || (cold_loaded == 0 && built_cold != workloads) {
        failures.push(format!(
            "cold pass built {built_cold} traces, not one per suite workload ({workloads})"
        ));
    }
    if built_warm != 0 {
        failures.push(format!("warm pass built {built_warm} traces"));
    }
    if loaded != touched {
        failures.push(format!(
            "warm pass loaded {loaded} entries, the cold pass left {touched}"
        ));
    }
    verdict(
        failures,
        format!("byte-identical, ≥{MIN_SPEEDUP}x, zero recomputed, zero warnings"),
    )
}

/// The CI sampling gate: one golden workload, full vs sampled; fails
/// when the reported bound or the achieved IPC error reaches `LIMIT_PCT`.
fn sample_smoke(eval: &EvalConfig) -> Verdict {
    const WORKLOAD: &str = "tpcc_like";
    const LIMIT_PCT: f64 = 5.0;
    let interval = eval.sample.unwrap_or_else(|| (eval.ops / 20).max(1));
    let trace = suite::by_name(WORKLOAD)
        .expect("golden workload exists")
        .generate(eval.ops, eval.seed);
    let system = System::new(SystemConfig::baseline_exclusive());
    let full = system.run_st(trace.clone());
    let sampled = system.run_sampled(trace, &SampleConfig::new(interval).with_max_clusters(10));
    let err = 100.0 * (sampled.result.ipc() - full.ipc()).abs() / full.ipc();
    let bound = sampled.sampling.ipc_error_bound_pct;
    println!(
        "sample-smoke: {WORKLOAD} ops={} interval={interval} \
         full IPC {:.4}, sampled IPC {:.4}, err {err:.2}%, reported bound {bound:.2}% \
         (detailed {:.1}% of trace)",
        eval.ops,
        full.ipc(),
        sampled.result.ipc(),
        100.0 * sampled.sampling.detailed_fraction()
    );
    if bound >= LIMIT_PCT || err >= LIMIT_PCT {
        return Err(vec![format!("error or bound at/over {LIMIT_PCT}%")]);
    }
    Ok(format!("bound and error under {LIMIT_PCT}%"))
}

/// The CI observability-overhead gate: observability off vs a sink
/// attached with every class masked. Min-of-N wall-clock, interleaved so
/// machine drift hits both variants alike; fails at `LIMIT_PCT`.
fn obs_smoke(eval: &EvalConfig) -> Verdict {
    const WORKLOAD: &str = "tpcc_like";
    const LIMIT_PCT: f64 = 2.0;
    // Wall-clock noise on a busy host easily exceeds the 2% budget for
    // any single pair, so reps are interleaved and the estimate uses the
    // min per variant (noise only ever adds time). Reps keep going until
    // the estimate is comfortably under the limit or the budget is spent.
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 15;
    let trace = suite::by_name(WORKLOAD)
        .expect("golden workload exists")
        .generate(eval.ops, eval.seed);
    let system = System::new(SystemConfig::baseline_exclusive().with_catch());
    let masked = Obs::attached(Arc::new(Mutex::new(NullSink)), EventClass::NONE);

    // Parity first: a masked sink must not perturb a single counter.
    if system.run_st(trace.clone()).core != system.run_st_obs(trace.clone(), &masked).core {
        return Err(vec![
            "masked observability changed core statistics".to_string()
        ]);
    }

    let mut best_off = f64::INFINITY;
    let mut best_masked = f64::INFINITY;
    let mut reps = 0;
    while reps < MAX_REPS {
        // Alternate which variant runs first so per-rep drift (frequency
        // ramps, cache warming) cannot bias one side.
        for variant in [reps % 2, (reps + 1) % 2] {
            let t = Instant::now();
            if variant == 0 {
                std::hint::black_box(system.run_st(trace.clone()));
                best_off = best_off.min(t.elapsed().as_secs_f64());
            } else {
                std::hint::black_box(system.run_st_obs(trace.clone(), &masked));
                best_masked = best_masked.min(t.elapsed().as_secs_f64());
            }
        }
        reps += 1;
        let est = 100.0 * (best_masked - best_off) / best_off;
        if reps >= MIN_REPS && est < LIMIT_PCT / 2.0 {
            break;
        }
    }
    let overhead_pct = 100.0 * (best_masked - best_off) / best_off;
    println!(
        "obs-smoke: {WORKLOAD} ops={} off {:.1} ms, masked-sink {:.1} ms, \
         overhead {overhead_pct:+.2}% (min of {reps})",
        eval.ops,
        1e3 * best_off,
        1e3 * best_masked,
    );
    if overhead_pct >= LIMIT_PCT {
        return Err(vec![format!("masked-sink overhead at/over {LIMIT_PCT}%")]);
    }
    Ok(format!("overhead under {LIMIT_PCT}%"))
}

/// The CI sweep-resumability gate: the quick grid against one checkpoint
/// journal, interrupted after a 3-point budget, then completed, then
/// fully resumed after dropping the in-memory cache. Fails unless the
/// resumed pass recomputes nothing (zero run-cache misses) and its
/// report is byte-identical to the completed run's.
fn sweep_smoke(eval: &EvalConfig) -> Verdict {
    const INTERRUPT_AFTER: usize = 3;
    let dir = std::env::temp_dir().join(format!("catch-sweep-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::quick();
    let opts = SweepOptions {
        checkpoint: Some(dir.join("sweep.journal")),
        ..SweepOptions::default()
    };
    let cache = RunCache::global();

    // Pass 1: "killed" after a 3-point budget (the journal keeps them).
    let t = Instant::now();
    let interrupted = SweepOptions {
        limit: Some(INTERRUPT_AFTER),
        ..opts.clone()
    };
    let partial = run_sweep(&spec, eval, &interrupted).map_err(failed("interrupted pass"))?;
    // Pass 2: finish the grid from the journal.
    let finished = run_sweep(&spec, eval, &opts).map_err(failed("completing pass"))?;
    let cold_secs = t.elapsed().as_secs_f64();
    let misses_cold = cache.summary().misses;

    // Pass 3: drop the in-memory cache; the journal alone must carry it.
    cache.reset_memory();
    let t = Instant::now();
    let resumed = run_sweep(&spec, eval, &opts).map_err(failed("resumed pass"))?;
    let warm_secs = t.elapsed().as_secs_f64();
    let miss_delta = cache.summary().misses - misses_cold;

    println!(
        "sweep-smoke: {} points ops={} — interrupted at {}, completed {} more, \
         cold {:.1} ms, resumed {:.1} ms, resume miss delta {miss_delta}",
        finished.total,
        eval.ops,
        partial.computed,
        finished.computed,
        1e3 * cold_secs,
        1e3 * warm_secs,
    );
    let mut failures = Vec::new();
    if partial.computed != INTERRUPT_AFTER || partial.remaining == 0 {
        failures.push("the interrupted pass did not stop mid-grid".to_string());
    }
    if resumed.computed != 0 || resumed.resumed != resumed.total {
        failures.push(format!(
            "resume recomputed {} points instead of journaling all {}",
            resumed.computed, resumed.total
        ));
    }
    if miss_delta != 0 {
        failures.push(format!(
            "resume simulated {miss_delta} runs (expected zero)"
        ));
    }
    if finished.report.to_string() != resumed.report.to_string() {
        failures.push("resumed report differs from the completed run's bytes".to_string());
    }
    if failures.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    verdict(
        failures,
        "resume: zero recompute, byte-identical report".to_string(),
    )
}

/// The CI fidelity-ladder gate: every golden workload on all three
/// rungs; fails when a timing-lite error vs the OOO reference exceeds
/// its budget (see `experiments::ladder`).
fn ladder_smoke(eval: &EvalConfig) -> Verdict {
    use catch_core::experiments::{
        ladder_errors, LITE_IPC_ERR_BUDGET_PCT, LITE_MPKI_ERR_BUDGET_PCT,
    };
    let t = Instant::now();
    let errors = ladder_errors(eval);
    let secs = t.elapsed().as_secs_f64();
    for rung in &errors.lite {
        println!(
            "ladder-smoke: {:<13} lite vs ooo — IPC err {:>6.2}% (budget \
             {LITE_IPC_ERR_BUDGET_PCT}%), L2 MPKI err {:>6.2}%, LLC MPKI err {:>6.2}% \
             (budget {LITE_MPKI_ERR_BUDGET_PCT}%)",
            rung.workload, rung.ipc_pct, rung.l2_mpki_pct, rung.llc_mpki_pct,
        );
    }
    println!(
        "ladder-smoke: {} workloads x 3 rungs, ops={} ({secs:.1}s)",
        errors.lite.len(),
        eval.ops
    );
    verdict(
        errors.violations(),
        "timing-lite within every error budget".to_string(),
    )
}

/// Trace mode: simulate `workload` (or every golden workload) under the
/// CATCH configuration on the `eval.fidelity` rung with all event
/// classes enabled, exporting to `path` in the format chosen by its
/// extension.
fn traced_run(path: &Path, workload: &str, eval: &EvalConfig) -> Result<ExitCode, String> {
    let format = TraceFormat::from_path(path);
    let system = System::new(SystemConfig::baseline_exclusive().with_catch());
    let workloads = if workload == "all" {
        GOLDEN_WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let pool = runner::Runner::from_env()?;
    // One workload writes `path` directly. Several write one part file
    // each (one job's event order is deterministic; interleaving across
    // jobs is not), merged in job-index order: identical bytes for every
    // worker count, and the same bytes one sink writing `path` would.
    let single = workloads.len() == 1;
    let files: Vec<PathBuf> = if single {
        vec![path.to_path_buf()]
    } else {
        (0..workloads.len()).map(|i| part_path(path, i)).collect()
    };
    let runs = pool.run(&workloads, |i, name| {
        let trace = suite::by_name(name)
            .expect("workload checked by parse_cli")
            .generate(eval.ops, eval.seed);
        let file = &files[i];
        let run = |obs: &Obs| system.run(trace, eval.fidelity, eval.warmup, obs).ipc();
        match format {
            TraceFormat::Chrome if single => {
                traced(ChromeTraceSink::create(file), ChromeTraceSink::events, run)
            }
            TraceFormat::Chrome => traced(
                ChromeTraceSink::create_fragment(file),
                ChromeTraceSink::events,
                run,
            ),
            TraceFormat::Jsonl => traced(JsonlSink::create(file), JsonlSink::events, run),
        }
    });
    if !single {
        merge_parts(&files, path, format).map_err(|e| format!("merge trace parts: {e}"))?;
    }
    let events: u64 = runs.iter().map(|&(_, events)| events).sum();
    if let [(ipc, _)] = runs[..] {
        println!(
            "trace-events: {workload} ops={} IPC {ipc:.4}, {events} events -> {} ({format:?})",
            eval.ops,
            path.display()
        );
    } else {
        for (name, (ipc, _)) in workloads.iter().zip(&runs) {
            println!("trace-events: {name} IPC {ipc:.4}");
        }
        println!(
            "trace-events: {} workloads, {events} events -> {} ({format:?})",
            workloads.len(),
            path.display()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs `run` with every event written to `sink`; returns its IPC and
/// the sink's `events` count.
fn traced<S: EventSink + Send + 'static>(
    sink: io::Result<S>,
    events: fn(&S) -> u64,
    run: impl FnOnce(&Obs) -> f64,
) -> (f64, u64) {
    let sink = Arc::new(Mutex::new(sink.expect("create trace file")));
    let obs = Obs::attached(Arc::clone(&sink), EventClass::ALL);
    let ipc = run(&obs);
    obs.finish().expect("flush trace file");
    let events = events(&sink.lock().expect("trace sink lock"));
    (ipc, events)
}

/// Local sweep mode: run (or resume) a design-space grid through the
/// sweep engine and print its Pareto report.
fn local_sweep(
    spec: &SweepSpec,
    eval: &EvalConfig,
    checkpoint: Option<PathBuf>,
    points: Option<NonZeroUsize>,
    markdown: bool,
) -> Result<ExitCode, String> {
    let opts = SweepOptions {
        jobs: None,
        checkpoint,
        limit: points.map(NonZeroUsize::get),
    };
    let outcome = run_sweep(spec, eval, &opts).map_err(|e| format!("sweep: {e}"))?;
    if markdown {
        print!("{}", outcome.report.to_markdown());
    } else {
        print!("{}", outcome.report);
    }
    eprintln!(
        "sweep: {} points ({} computed, {} resumed, {} pending, {} degenerate, \
         {} ooo-validated)",
        outcome.total,
        outcome.computed,
        outcome.resumed,
        outcome.remaining,
        outcome.degenerate,
        outcome.validated
    );
    eprintln!("{}", RunCache::global().summary());
    Ok(ExitCode::from(if outcome.remaining > 0 { 3 } else { 0 }))
}

fn occ_line(name: &str, h: &OccupancyHist) -> String {
    format!(
        "  {name:<10} mean {:>7.1}  max {:>5}  samples {}",
        h.mean(),
        h.max,
        h.samples
    )
}

/// Profile mode: one workload on the `eval.fidelity` rung with a
/// counting sink — prints the event taxonomy histogram and the core's
/// sampled occupancy summaries.
fn profile_run(workload: &str, eval: &EvalConfig) -> Result<ExitCode, String> {
    let trace = suite::by_name(workload)
        .expect("workload checked by parse_cli")
        .generate(eval.ops, eval.seed);
    let system = System::new(SystemConfig::baseline_exclusive().with_catch());
    let sink = Arc::new(Mutex::new(CountingSink::new()));
    let obs = Obs::attached(sink.clone(), EventClass::ALL);
    let result = system.run(trace, eval.fidelity, eval.warmup, &obs);
    drop(obs);
    let sink = sink.lock().expect("sink lock");
    println!(
        "profile: {workload} ops={} IPC {:.4}, {} events",
        eval.ops,
        result.ipc(),
        sink.total()
    );
    let mut counts = sink.counts().to_vec();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (name, n) in counts {
        println!("  {name:<24} {n:>10}");
    }
    println!(
        "occupancy (sampled every {} cycles):",
        catch_obs::OCC_SAMPLE_PERIOD
    );
    println!("{}", occ_line("rob", &result.core.rob_occ));
    println!("{}", occ_line("sched", &result.core.sched_occ));
    println!("{}", occ_line("mshr", &result.core.mshr_occ));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse(line: &str) -> Result<Cli, ArgError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_cli(&args)
    }

    /// The argument lists of every `run_experiment -- …` command line in
    /// `text`. `\` continuations, and a YAML fold after a trailing `--`,
    /// are joined; a shell tail (`#`, `&`, `|`, `>`, `;`, a closing
    /// backtick) is cut; lines that hold `$(` are skipped.
    fn command_lines(text: &str) -> Vec<Vec<String>> {
        const MARK: &str = "run_experiment --";
        let mut lines = Vec::new();
        let mut line = String::new();
        for raw in text.lines().map(str::trim) {
            line.push(' ');
            match raw.strip_suffix('\\') {
                Some(head) => line.push_str(head),
                None if raw.ends_with(MARK) => line.push_str(raw),
                None => {
                    line.push_str(raw);
                    lines.push(std::mem::take(&mut line));
                }
            }
        }
        lines
            .iter()
            .filter(|line| !line.contains("$("))
            .filter_map(|line| {
                let (_, tail) = line.split_once(MARK)?;
                if !tail.is_empty() && !tail.starts_with(char::is_whitespace) {
                    return None; // `run_experiment --flag`: prose, not a command
                }
                let end = tail.find(|c| "#&|>;`".contains(c)).unwrap_or(tail.len());
                Some(tail[..end].split_whitespace().map(String::from).collect())
            })
            .collect()
    }

    #[test]
    fn ci_runs_every_gate_and_every_smoke_id_it_runs_is_a_gate() {
        let ci = include_str!("../.github/workflows/ci.yml");
        let mut ran = BTreeSet::new();
        for args in command_lines(ci) {
            let cli = parse_cli(&args).unwrap_or_else(|e| panic!("ci.yml: {args:?}: {e}"));
            match cli.mode {
                Mode::Gate(gate) => {
                    ran.insert(gate.id);
                }
                _ => assert!(
                    !args.iter().any(|a| a.ends_with("-smoke")),
                    "ci.yml runs a smoke id that is not in GATES: {args:?}"
                ),
            }
        }
        let gates: BTreeSet<_> = GATES.iter().map(|g| g.id).collect();
        assert_eq!(gates.len(), GATES.len(), "duplicate gate id");
        assert_eq!(ran, gates, "CI gate steps and GATES drifted apart");
    }

    /// This file's `//!` docs.
    fn own_docs() -> String {
        include_str!("run_experiment.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The documents that show command lines, by name.
    fn docs(own_docs: &str) -> [(&'static str, &str); 5] {
        [
            ("README.md", include_str!("../README.md")),
            ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
            ("DESIGN.md", include_str!("../DESIGN.md")),
            (
                "SKILL.md",
                include_str!("../.claude/skills/verify/SKILL.md"),
            ),
            ("run_experiment.rs", own_docs),
        ]
    }

    /// Every bench target `text` names as `--bench X` or `` `bench X` ``.
    fn bench_targets(text: &str) -> Vec<&str> {
        ["--bench ", "`bench "]
            .iter()
            .flat_map(|mark| {
                text.match_indices(mark)
                    .map(|(at, m)| &text[at + m.len()..])
            })
            .map(|tail| {
                let end = tail
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(tail.len());
                &tail[..end]
            })
            .collect()
    }

    #[test]
    fn every_documented_bench_target_exists() {
        let manifest = include_str!("../crates/catch-bench/Cargo.toml");
        let targets: BTreeSet<&str> = manifest
            .split("[[bench]]")
            .skip(1)
            .filter_map(|block| block.split_once("name = \"")?.1.split_once('"'))
            .map(|(name, _)| name)
            .collect();
        assert!(targets.contains("sim_throughput"), "{targets:?}");
        let own_docs = own_docs();
        let ci = ("ci.yml", include_str!("../.github/workflows/ci.yml"));
        let mut checked = 0;
        for (doc, text) in docs(&own_docs).into_iter().chain([ci]) {
            for name in bench_targets(text) {
                assert!(
                    targets.contains(name),
                    "{doc} names bench target `{name}`, which catch-bench does not have \
                     (a paper figure is `run_experiment <id>`)"
                );
                checked += 1;
            }
        }
        assert!(
            checked >= 3,
            "found only {checked} bench targets in the docs"
        );
        assert_eq!(
            bench_targets("`bench ablations` and --bench fig01_remove_l2,"),
            ["fig01_remove_l2", "ablations"]
        );
    }

    #[test]
    fn every_documented_command_line_parses() {
        let own_docs = own_docs();
        let mut checked = 0;
        for (doc, text) in docs(&own_docs) {
            for args in command_lines(text) {
                if let Err(e) = parse_cli(&args) {
                    panic!("{doc}: `run_experiment -- {}`: {e}", args.join(" "));
                }
                checked += 1;
            }
        }
        assert!(
            checked >= 30,
            "found only {checked} documented command lines"
        );
    }

    #[test]
    fn command_lines_join_continuations_and_cut_shell_tails() {
        let text = "cargo run --example run_experiment -- \\\n  --jobs 4 fig10 # note\n\
                    run: cargo run --example run_experiment --\n  sweep-smoke 4000 1000\n\
                    `run_experiment --fidelity lite --profile` is prose\n\
                    cargo run --example run_experiment -- serve /tmp/s &\n\
                    cargo run --example run_experiment -- cache-stats \"$(ls -d /tmp/c*)\"";
        assert_eq!(
            command_lines(text),
            [
                vec!["--jobs", "4", "fig10"],
                vec!["sweep-smoke", "4000", "1000"],
                vec!["serve", "/tmp/s"]
            ]
        );
    }

    #[test]
    fn flags_set_the_scale_and_each_mode_reads_its_own() {
        let cli = parse("--sample 5000 --fidelity lite --jobs 3 fig1 4000 1000").unwrap();
        assert!(matches!(cli.mode, Mode::Experiment(ref id) if id == "fig1"));
        assert_eq!(cli.jobs, Some(3));
        let want = EvalConfig {
            ops: 4000,
            warmup: 1000,
            sample: Some(5000),
            fidelity: Fidelity::Lite,
            ..EvalConfig::standard()
        };
        assert_eq!(cli.eval, want);
        let cli = parse("--cache-dir /tmp/c --no-cache --md all").unwrap();
        assert_eq!(cli.cache, Some(CacheMode::Off), "the last cache flag wins");
        assert!(cli.markdown);
        let cli = parse("--checkpoint /tmp/j --points 3 sweep:paper 30000 7500").unwrap();
        assert!(matches!(cli.mode, Mode::Sweep(_)));
        assert_eq!(cli.points.map(NonZeroUsize::get), Some(3));
        let cli = parse("--workers 2 --cache-dir /tmp/c serve /tmp/s").unwrap();
        assert!(matches!(cli.mode, Mode::Serve(ref s) if s == Path::new("/tmp/s")));
        let cli = parse("--server /tmp/s --client bob --priority sweep sweep 4000").unwrap();
        assert!(matches!(cli.mode, Mode::Client { ref id, .. } if id == "sweep"));
        assert_eq!(cli.priority, Some(Priority::Sweep));
        let cli = parse("--sample 500 --fidelity lite cache-smoke 4000 1000").unwrap();
        assert!(matches!(cli.mode, Mode::Gate(gate) if gate.id == "cache-smoke"));
        assert_eq!(
            (cli.eval.sample, cli.eval.fidelity),
            (Some(500), Fidelity::Lite)
        );
        let cli = parse("--fidelity lite --profile tpcc_like 8000 2000").unwrap();
        assert!(matches!(cli.mode, Mode::Profile(ref w) if w == "tpcc_like"));
        let cli = parse("--jobs 4 --trace-events /tmp/t.json all 8000 2000").unwrap();
        assert!(matches!(cli.mode, Mode::Trace { ref workload, .. } if workload == "all"));
        assert!(matches!(parse("").unwrap().mode, Mode::Usage));
        assert!(matches!(
            parse("cache-stats").unwrap().mode,
            Mode::CacheStats(None)
        ));
    }

    fn assert_names(line: &str, flag: &str) {
        let err = parse(line).expect_err(line).to_string();
        assert!(
            err.starts_with(&format!("invalid {flag}: ")),
            "`{line}`: {err}"
        );
    }

    #[test]
    fn a_bad_value_or_argument_is_an_error_naming_it() {
        for (line, flag) in [
            ("--sample 0 fig1", "--sample"),
            ("--workers x serve /tmp/s", "--workers"),
            ("--points", "--points"),
            ("--points -1 sweep", "--points"),
            ("--fidelity lightning fig1", "--fidelity"),
            ("--priority urgent --server /tmp/s fig1", "--priority"),
            ("--jobs 0 fig1", "--jobs"),
            ("--cache-dir", "--cache-dir"),
            ("--trace-events", "--trace-events"),
            ("fig10 80k", "ops"),
            ("sweep:paper --checkpoint /tmp/j 30000 7500", "ops"),
            ("fig10 8000 2k", "warmup"),
            ("fig99", "id"),
            ("--profile no_such_workload", "workload"),
            ("serve", "serve"),
            ("fig10 8000 2000 9999", "argument"),
            ("serve /tmp/s /tmp/t", "argument"),
        ] {
            assert_names(line, flag);
        }
    }

    #[test]
    fn a_flag_the_mode_never_reads_is_an_error_naming_the_flag() {
        for (line, flag) in [
            ("--checkpoint /tmp/j fig10", "--checkpoint"),
            ("--points 3 all", "--points"),
            (
                "--server /tmp/s --checkpoint /tmp/j sweep:paper",
                "--checkpoint",
            ),
            ("--server /tmp/s --points 3 sweep", "--points"),
            ("--workers 4 fig10", "--workers"),
            ("--workers 4 --server /tmp/s fig10", "--workers"),
            ("--client bob fig10", "--client"),
            ("--priority sweep all", "--priority"),
            ("--md sample-smoke", "--md"),
            ("--md serve /tmp/s", "--md"),
            ("--md --trace-events /tmp/t.json tpcc_like", "--md"),
            ("--md --profile", "--md"),
            ("--md --server /tmp/s fig10", "--md"),
            ("--server /tmp/s cache-smoke 8000 2000", "--server"),
            ("--server /tmp/s serve /tmp/t", "--server"),
            ("--profile --trace-events /tmp/t.json", "--profile"),
            (
                "--sample 500 --trace-events /tmp/t.json tpcc_like",
                "--sample",
            ),
            ("--sample 500 --profile tpcc_like", "--sample"),
            ("--sample 500 obs-smoke", "--sample"),
            ("--sample 500 ladder-smoke 4000 1000", "--sample"),
            ("--fidelity lite sample-smoke 8000", "--fidelity"),
            ("--fidelity lite obs-smoke", "--fidelity"),
            ("--fidelity lite ladder-smoke", "--fidelity"),
            ("--sample 500 serve /tmp/s", "--sample"),
            ("--fidelity lite cache-stats", "--fidelity"),
        ] {
            assert_names(line, flag);
        }
    }
}
