//! Runs any paper experiment by id (same registry the bench targets use).
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
//! cargo run --release --example run_experiment -- obs-smoke     # CI gate
//! cargo run --release --example run_experiment -- cache-smoke   # CI gate
//! cargo run --release --example run_experiment -- server-smoke  # CI gate
//! cargo run --release --example run_experiment -- --trace-events t.json
//! cargo run --release --example run_experiment -- --profile tpcc_like
//! cargo run --release --example run_experiment -- serve /tmp/catch.sock
//! cargo run --release --example run_experiment -- --server /tmp/catch.sock fig10
//! cargo run --release --example run_experiment -- cache-stats   # shard inventory
//! cargo run --release --example run_experiment -- sweep         # quick design-space grid
//! cargo run --release --example run_experiment -- --checkpoint /tmp/s.journal sweep:paper
//! cargo run --release --example run_experiment -- sweep-smoke   # CI gate
//! cargo run --release --example run_experiment -- --fidelity lite sweep:paper
//! cargo run --release --example run_experiment -- ladder-smoke  # CI gate
//! cargo run --release --example run_experiment                  # lists ids
//! ```
//!
//! `--jobs N` sets the worker-thread count for suite runs (equivalent to
//! `CATCH_JOBS=N`; default: all cores). Results are bit-identical for
//! every N — parallelism only changes wall-clock time.
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
//! layer attached, writing a
//! cycle-stamped event trace to PATH — Chrome `about://tracing` JSON by
//! default, JSONL when PATH ends in `.jsonl`. With `all`, workloads run
//! in parallel on the suite runner; each job writes a part file and the
//! parts are merged in job-index order, so the trace is byte-identical
//! for every `--jobs` value.
//!
//! `--profile` runs one workload (default `tpcc_like`, on the
//! `--fidelity` rung) with a counting sink and prints the event taxonomy histogram plus the core's sampled
//! ROB / scheduler / MSHR occupancies.
//!
//! The special id `sample-smoke` is the CI accuracy gate: it runs one
//! golden workload full and sampled, prints both IPCs with the plan's
//! reported error bound, and exits non-zero if either the reported bound
//! or the actual IPC error reaches 5%.
//!
//! The special id `obs-smoke` is the CI observability-overhead gate: it
//! times one golden workload with observability fully off against the
//! same run with a sink attached but every event class masked, and exits
//! non-zero when the masked run is ≥ 2% slower (min-of-N timing). It also
//! asserts the two runs retire identical core statistics.
//!
//! The special id `cache-smoke` is the CI run-cache gate: it runs the
//! whole registry twice against a persistent cache directory (dropping
//! the in-memory cache in between, so the second pass loads from disk),
//! and exits non-zero unless the second pass is ≥ 2× faster, every
//! report is byte-identical, and the second pass recomputed nothing, met
//! no corrupt entry and loaded exactly the entries the first one left.
//! The first pass must build each suite workload's trace once, the
//! second none.
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
//! The special id `server-smoke` is the CI simulation-service gate: it
//! starts an in-process daemon on a temp socket, submits the same
//! golden-workload experiment from two clients, and exits non-zero
//! unless both responses are byte-identical to a local run, the second
//! response triggered zero recomputation (warm cache via `/stats`), and
//! the daemon shuts down cleanly (socket unlinked, all threads joined).
//!
//! The ids `sweep`, `sweep:quick` and `sweep:paper` run a design-space
//! grid through the sweep engine (see DESIGN.md §13): points execute on
//! the parallel runner through the run cache and the report ranks the
//! Pareto frontier over perf vs energy vs area. `--checkpoint PATH`
//! journals completed points so an interrupted sweep resumes with zero
//! recompute; `--points N` stops after N new points (budgeted slices of
//! a long sweep). The same ids are accepted by a daemon, where sweeps
//! drain through the `sweep` priority class behind interactive work:
//! `--server SOCK --priority sweep sweep:paper`.
//!
//! The special id `sweep-smoke` is the CI sweep gate: it runs the quick
//! grid twice against one checkpoint journal — first in an interrupted
//! prefix (`--points`-style) plus completion, then fully resumed from
//! the journal — and exits non-zero unless the resumed pass recomputes
//! nothing (run-cache miss delta zero) and renders byte-identical
//! report bytes.
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
//!
//! The special id `ladder-smoke` is the CI fidelity-ladder gate: it
//! runs every golden workload on all three rungs, prints the per-rung
//! error vs the OOO reference, and exits non-zero when a timing-lite
//! error exceeds its budget (IPC or MPKI).

use catch_core::cli::parse_arg;
use catch_core::experiments::{self, runner, EvalConfig, Fidelity, GOLDEN_WORKLOADS};
use catch_core::{
    merge_parts, part_path, CacheMode, ChromeTraceSink, CountingSink, EventClass, JsonlSink,
    NullSink, Obs, OccupancyHist, RunCache, SampleConfig, System, SystemConfig, TraceFormat,
};
use catch_server::{cachedao, Client, Priority, Server, ServerConfig};
use catch_workloads::suite;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn usage_and_exit() -> ! {
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
    eprintln!("  sample-smoke (CI accuracy gate)");
    eprintln!("  obs-smoke (CI observability-overhead gate)");
    eprintln!("  cache-smoke (CI run-cache gate)");
    eprintln!("  server-smoke (CI simulation-service gate)");
    eprintln!("  sweep-smoke (CI sweep resumability gate)");
    eprintln!("  ladder-smoke (CI fidelity-ladder accuracy gate)");
    std::process::exit(2);
}

/// Daemon mode: bind the socket, serve until a protocol `shutdown`
/// drains the pool, then exit 0.
fn serve(sock: &Path, workers: Option<usize>) -> ! {
    let mut config = ServerConfig::default();
    if let Some(w) = workers {
        config.workers = w;
    }
    let handle = match Server::bind(sock, config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", sock.display());
            std::process::exit(1);
        }
    };
    eprintln!(
        "catch-server: listening on {} ({} workers, cache {:?})",
        sock.display(),
        config.workers,
        RunCache::global().mode()
    );
    match handle.wait() {
        Ok(()) => {
            eprintln!("catch-server: drained, exiting");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("catch-server: shutdown error: {e}");
            std::process::exit(1);
        }
    }
}

/// Client mode: run `id` (or `all`) on a daemon; prints the pre-rendered
/// reports byte-identically to a local run, then a stats line to stderr.
fn client_mode(sock: &Path, id: &str, eval: &EvalConfig, name: &str, priority: Priority) -> ! {
    let mut client = match Client::connect(sock) {
        Ok(c) => c.with_identity(name, priority),
        Err(e) => {
            eprintln!("cannot connect to {}: {e}", sock.display());
            std::process::exit(1);
        }
    };
    // Daemon-control ids (no local equivalent).
    match id {
        "ping" => {
            client.ping().unwrap_or_else(|e| {
                eprintln!("ping: {e}");
                std::process::exit(1);
            });
            println!("pong");
            std::process::exit(0);
        }
        "stats" => {
            let (sched, cache, shards) = client.stats().unwrap_or_else(|e| {
                eprintln!("stats: {e}");
                std::process::exit(1);
            });
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
            std::process::exit(0);
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| {
                eprintln!("shutdown: {e}");
                std::process::exit(1);
            });
            println!("server draining");
            std::process::exit(0);
        }
        _ => {}
    }
    let ids: Vec<&str> = if id == "all" {
        experiments::all_ids().to_vec()
    } else {
        vec![id]
    };
    for id in ids {
        match client.run(id, eval) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("{id}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Ok((sched, cache, _)) = client.stats() {
        eprintln!(
            "server: {} admitted / {} coalesced / {} completed; {cache}",
            sched.admitted, sched.coalesced, sched.completed
        );
    }
    std::process::exit(0);
}

/// Shard inventory for the on-disk run cache: `dir` overrides the mode
/// from `--cache-dir` / `CATCH_RUN_CACHE`.
fn cache_stats(dir: Option<&Path>) -> ! {
    let dir = match (dir, RunCache::global().mode()) {
        (Some(d), _) => d.to_path_buf(),
        (None, CacheMode::Disk(d)) => d,
        (None, mode) => {
            eprintln!(
                "cache-stats: no cache directory (mode {mode:?}); \
                 pass a path, --cache-dir DIR, or set {}",
                catch_core::RUN_CACHE_ENV
            );
            std::process::exit(2);
        }
    };
    match cachedao::scan(&dir) {
        Ok(stats) => {
            println!(
                "cache-stats: {} — {} shards, {} B, oldest {}s, newest {}s",
                dir.display(),
                stats.entries,
                stats.bytes,
                stats.oldest_secs,
                stats.newest_secs
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("cache-stats: cannot scan {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

/// The CI simulation-service gate: an in-process daemon on a temp
/// socket, the same experiment from two clients, hard-fail unless both
/// responses are byte-identical to a local run, the second triggered
/// zero recomputation, and shutdown is clean.
fn server_smoke(eval: &EvalConfig) -> ! {
    const ID: &str = "fig10";
    let tag = std::process::id();
    let sock = std::env::temp_dir().join(format!("catch-server-smoke-{tag}.sock"));
    if !matches!(RunCache::global().mode(), CacheMode::Disk(_)) {
        let dir = std::env::temp_dir().join(format!("catch-server-smoke-cache-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        RunCache::global().set_mode(CacheMode::Disk(dir));
    }
    let handle = Server::bind(&sock, ServerConfig::default()).unwrap_or_else(|e| {
        eprintln!("server-smoke FAILED: cannot bind {}: {e}", sock.display());
        std::process::exit(1);
    });
    let connect = |name: &str, priority| {
        Client::connect(&sock)
            .unwrap_or_else(|e| {
                eprintln!("server-smoke FAILED: connect: {e}");
                std::process::exit(1);
            })
            .with_identity(name, priority)
    };
    let mut alice = connect("alice", Priority::Interactive);
    let mut bob = connect("bob", Priority::Sweep);

    let t = Instant::now();
    let first = alice.run(ID, eval).unwrap_or_else(|e| {
        eprintln!("server-smoke FAILED: first run: {e}");
        std::process::exit(1);
    });
    let cold_secs = t.elapsed().as_secs_f64();
    let misses_cold = alice.stats().expect("stats after first run").1.misses;

    let t = Instant::now();
    let second = bob.run(ID, eval).unwrap_or_else(|e| {
        eprintln!("server-smoke FAILED: second run: {e}");
        std::process::exit(1);
    });
    let warm_secs = t.elapsed().as_secs_f64();
    let (sched, cache, shards) = bob.stats().expect("stats after second run");

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
    if first != second {
        eprintln!("server-smoke FAILED: the two clients got different report bytes");
        std::process::exit(1);
    }
    if cache.misses != misses_cold {
        eprintln!(
            "server-smoke FAILED: second response recomputed \
             ({} misses cold, {} after warm)",
            misses_cold, cache.misses
        );
        std::process::exit(1);
    }
    let local = experiments::run(ID, eval).to_string();
    if local != first {
        eprintln!("server-smoke FAILED: served report differs from a local run");
        std::process::exit(1);
    }
    alice.shutdown().unwrap_or_else(|e| {
        eprintln!("server-smoke FAILED: shutdown request: {e}");
        std::process::exit(1);
    });
    if let Err(e) = handle.wait() {
        eprintln!("server-smoke FAILED: drain: {e}");
        std::process::exit(1);
    }
    if sock.exists() {
        eprintln!("server-smoke FAILED: socket not unlinked on exit");
        std::process::exit(1);
    }
    println!("server-smoke OK (byte-identical, zero recompute, clean drain)");
    std::process::exit(0);
}

/// The CI run-cache gate: the whole registry twice against a persistent
/// cache directory, hard-fail unless the warm pass is ≥ `MIN_SPEEDUP`×
/// faster with byte-identical reports and was served from the disk
/// entries alone (a pass that quietly recomputes can still be fast and
/// byte-identical at a small scale). It also gates the trace lifetime:
/// the cold pass's one `run_all` call builds each suite workload's trace
/// exactly once (fewer on a directory that was already filled), and the
/// warm pass, which simulates nothing, builds none.
fn cache_smoke(eval: &EvalConfig) -> ! {
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
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("cache-smoke FAILED: {failure}");
        }
        std::process::exit(1);
    }
    println!("cache-smoke OK (byte-identical, ≥{MIN_SPEEDUP}x, zero recomputed, zero warnings)");
    std::process::exit(0);
}

/// The CI sampling gate: one golden workload, full vs sampled, hard-fail
/// when the reported bound or the achieved IPC error reaches `LIMIT_PCT`.
fn sample_smoke(eval: &EvalConfig) -> ! {
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
        eprintln!("sample-smoke FAILED: error or bound at/over {LIMIT_PCT}%");
        std::process::exit(1);
    }
    println!("sample-smoke OK (bound and error under {LIMIT_PCT}%)");
    std::process::exit(0);
}

/// The CI observability-overhead gate: observability off vs a sink
/// attached with every class masked. Min-of-N wall-clock, interleaved so
/// machine drift hits both variants alike; hard-fail at `LIMIT_PCT`.
fn obs_smoke(eval: &EvalConfig) -> ! {
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
    let off_run = system.run_st(trace.clone());
    let masked_run = system.run_st_obs(trace.clone(), &masked);
    assert_eq!(
        off_run.core, masked_run.core,
        "masked observability changed core statistics"
    );

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
        eprintln!("obs-smoke FAILED: masked-sink overhead at/over {LIMIT_PCT}%");
        std::process::exit(1);
    }
    println!("obs-smoke OK (overhead under {LIMIT_PCT}%)");
    std::process::exit(0);
}

/// Trace mode: simulate `workload` (or every golden workload) under the
/// CATCH configuration on the `eval.fidelity` rung with all event
/// classes enabled, exporting to
/// `path` in the format chosen by its extension.
fn traced_run(path: &Path, workload: &str, eval: &EvalConfig) -> ! {
    let format = TraceFormat::from_path(path);
    let system = System::new(SystemConfig::baseline_exclusive().with_catch());
    if workload == "all" {
        let pool = runner::Runner::from_env().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        // Each job writes its own part file (one job's event order is
        // deterministic; interleaving across jobs is not), merged in
        // job-index order: identical bytes for every worker count.
        let parts: Vec<PathBuf> = (0..GOLDEN_WORKLOADS.len())
            .map(|i| part_path(path, i))
            .collect();
        let ipcs = pool.run(&GOLDEN_WORKLOADS, |i, name| {
            let trace = suite::by_name(name)
                .expect("golden workload exists")
                .generate(eval.ops, eval.seed);
            let part = part_path(path, i);
            let obs = match format {
                TraceFormat::Chrome => Obs::attached(
                    Arc::new(Mutex::new(
                        ChromeTraceSink::create_fragment(&part).expect("create trace part file"),
                    )),
                    EventClass::ALL,
                ),
                TraceFormat::Jsonl => Obs::attached(
                    Arc::new(Mutex::new(
                        JsonlSink::create(&part).expect("create trace part file"),
                    )),
                    EventClass::ALL,
                ),
            };
            let result = system.run(trace, eval.fidelity, eval.warmup, &obs);
            obs.finish().expect("flush trace part file");
            result.ipc()
        });
        let events = merge_parts(&parts, path, format).expect("merge trace part files");
        for (name, ipc) in GOLDEN_WORKLOADS.iter().zip(&ipcs) {
            println!("trace-events: {name} IPC {ipc:.4}");
        }
        println!(
            "trace-events: {} workloads, {events} events -> {} ({format:?})",
            GOLDEN_WORKLOADS.len(),
            path.display()
        );
    } else {
        let trace = match suite::by_name(workload) {
            Ok(spec) => spec.generate(eval.ops, eval.seed),
            Err(_) => {
                eprintln!("unknown workload '{workload}' (or 'all'); see tab2 for the suite");
                std::process::exit(2);
            }
        };
        let (result, events) = match format {
            TraceFormat::Chrome => {
                let sink = Arc::new(Mutex::new(
                    ChromeTraceSink::create(path).expect("create trace file"),
                ));
                let obs = Obs::attached(sink.clone(), EventClass::ALL);
                let result = system.run(trace, eval.fidelity, eval.warmup, &obs);
                obs.finish().expect("flush trace file");
                let events = sink.lock().expect("sink lock").events();
                (result, events)
            }
            TraceFormat::Jsonl => {
                let sink = Arc::new(Mutex::new(
                    JsonlSink::create(path).expect("create trace file"),
                ));
                let obs = Obs::attached(sink.clone(), EventClass::ALL);
                let result = system.run(trace, eval.fidelity, eval.warmup, &obs);
                obs.finish().expect("flush trace file");
                let events = sink.lock().expect("sink lock").events();
                (result, events)
            }
        };
        println!(
            "trace-events: {workload} ops={} IPC {:.4}, {events} events -> {} ({format:?})",
            eval.ops,
            result.ipc(),
            path.display()
        );
    }
    std::process::exit(0);
}

/// Local sweep mode: run (or resume) a design-space grid through the
/// sweep engine and print its Pareto report.
fn local_sweep(
    spec: &catch_core::sweep::SweepSpec,
    eval: &EvalConfig,
    checkpoint: Option<PathBuf>,
    points: Option<usize>,
    markdown: bool,
) -> ! {
    let opts = catch_core::sweep::SweepOptions {
        jobs: None,
        checkpoint,
        limit: points,
        spot_stride: None,
    };
    match catch_core::sweep::run_sweep(spec, eval, &opts) {
        Ok(outcome) => {
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
            std::process::exit(if outcome.remaining > 0 { 3 } else { 0 });
        }
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        }
    }
}

/// The CI sweep-resumability gate: the quick grid against one checkpoint
/// journal, interrupted after a 3-point budget, then completed, then
/// fully resumed after dropping the in-memory cache. Hard-fail unless
/// the resumed pass recomputes nothing (zero run-cache misses) and its
/// report is byte-identical to the completed run's.
fn sweep_smoke(eval: &EvalConfig) -> ! {
    use catch_core::sweep::{run_sweep, SweepOptions, SweepSpec};
    const INTERRUPT_AFTER: usize = 3;
    let dir = std::env::temp_dir().join(format!("catch-sweep-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = SweepSpec::quick();
    let opts = SweepOptions {
        jobs: None,
        checkpoint: Some(dir.join("sweep.journal")),
        limit: None,
        spot_stride: None,
    };
    let cache = RunCache::global();
    let run = |opts: &SweepOptions, what: &str| {
        run_sweep(&spec, eval, opts).unwrap_or_else(|e| {
            eprintln!("sweep-smoke FAILED: {what}: {e}");
            std::process::exit(1);
        })
    };

    // Pass 1: "killed" after a 3-point budget (the journal keeps them).
    let t = Instant::now();
    let partial = run(
        &SweepOptions {
            limit: Some(INTERRUPT_AFTER),
            ..opts.clone()
        },
        "interrupted pass",
    );
    // Pass 2: finish the grid from the journal.
    let finished = run(&opts, "completing pass");
    let cold_secs = t.elapsed().as_secs_f64();
    let misses_cold = cache.summary().misses;

    // Pass 3: drop the in-memory cache; the journal alone must carry it.
    cache.reset_memory();
    let t = Instant::now();
    let resumed = run(&opts, "resumed pass");
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
    if partial.computed != INTERRUPT_AFTER || partial.remaining == 0 {
        eprintln!("sweep-smoke FAILED: the interrupted pass did not stop mid-grid");
        std::process::exit(1);
    }
    if resumed.computed != 0 || resumed.resumed != resumed.total {
        eprintln!(
            "sweep-smoke FAILED: resume recomputed {} points instead of journaling all {}",
            resumed.computed, resumed.total
        );
        std::process::exit(1);
    }
    if miss_delta != 0 {
        eprintln!("sweep-smoke FAILED: resume simulated {miss_delta} runs (expected zero)");
        std::process::exit(1);
    }
    if finished.report.to_string() != resumed.report.to_string() {
        eprintln!("sweep-smoke FAILED: resumed report differs from the completed run's bytes");
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("sweep-smoke OK (resume: zero recompute, byte-identical report)");
    std::process::exit(0);
}

/// The CI fidelity-ladder gate: every golden workload on all three
/// rungs, hard-fail when a timing-lite error vs the OOO reference
/// exceeds its budget (see `experiments::ladder`).
fn ladder_smoke(eval: &EvalConfig) -> ! {
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
    let violations = errors.violations();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("ladder-smoke FAILED: {v}");
        }
        std::process::exit(1);
    }
    println!("ladder-smoke OK (timing-lite within every error budget)");
    std::process::exit(0);
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
fn profile_run(workload: &str, eval: &EvalConfig) -> ! {
    let trace = match suite::by_name(workload) {
        Ok(spec) => spec.generate(eval.ops, eval.seed),
        Err(_) => {
            eprintln!("unknown workload '{workload}'; see tab2 for the suite");
            std::process::exit(2);
        }
    };
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
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut markdown = false;
    let mut sample: Option<usize> = None;
    let mut trace_events: Option<PathBuf> = None;
    let mut profile = false;
    let mut server_sock: Option<PathBuf> = None;
    let mut client_name: Option<String> = None;
    let mut priority = Priority::Interactive;
    let mut workers: Option<usize> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut points: Option<usize> = None;
    let mut fidelity: Option<Fidelity> = None;
    // Flags may appear in any order ahead of the positional arguments.
    loop {
        match args.first().map(String::as_str) {
            Some("--md") => {
                markdown = true;
                args.remove(0);
            }
            Some("--jobs") => {
                args.remove(0);
                let Some(raw) = args.first() else {
                    eprintln!("--jobs requires a value");
                    usage_and_exit();
                };
                let n = runner::Runner::parse_jobs(raw).unwrap_or_else(|e| {
                    eprintln!("invalid --jobs: {e}");
                    usage_and_exit();
                });
                args.remove(0);
                // The experiment registry sizes its Runner from the
                // environment, so the flag funnels through CATCH_JOBS.
                std::env::set_var(runner::JOBS_ENV, n.to_string());
            }
            Some("--sample") => {
                args.remove(0);
                let Some(i) = args
                    .first()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&i| i > 0)
                else {
                    eprintln!("--sample requires a positive interval size in micro-ops");
                    usage_and_exit();
                };
                args.remove(0);
                sample = Some(i);
            }
            Some("--trace-events") => {
                args.remove(0);
                let Some(raw) = args.first() else {
                    eprintln!("--trace-events requires an output path");
                    usage_and_exit();
                };
                trace_events = Some(PathBuf::from(raw));
                args.remove(0);
            }
            Some("--profile") => {
                profile = true;
                args.remove(0);
            }
            Some("--cache-dir") => {
                args.remove(0);
                let Some(raw) = args.first() else {
                    eprintln!("--cache-dir requires a directory path");
                    usage_and_exit();
                };
                RunCache::global().set_mode(CacheMode::Disk(PathBuf::from(raw)));
                args.remove(0);
            }
            Some("--no-cache") => {
                RunCache::global().set_mode(CacheMode::Off);
                args.remove(0);
            }
            Some("--server") => {
                args.remove(0);
                let Some(raw) = args.first() else {
                    eprintln!("--server requires a socket path");
                    usage_and_exit();
                };
                server_sock = Some(PathBuf::from(raw));
                args.remove(0);
            }
            Some("--client") => {
                args.remove(0);
                let Some(raw) = args.first() else {
                    eprintln!("--client requires a name");
                    usage_and_exit();
                };
                client_name = Some(raw.clone());
                args.remove(0);
            }
            Some("--priority") => {
                args.remove(0);
                let Some(raw) = args.first() else {
                    eprintln!("--priority requires interactive|sweep|background");
                    usage_and_exit();
                };
                priority = Priority::parse(raw).unwrap_or_else(|e| {
                    eprintln!("invalid --priority: {e}");
                    usage_and_exit();
                });
                args.remove(0);
            }
            Some("--workers") => {
                args.remove(0);
                let Some(n) = args
                    .first()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--workers requires a positive thread count");
                    usage_and_exit();
                };
                workers = Some(n);
                args.remove(0);
            }
            Some("--fidelity") => {
                args.remove(0);
                let Some(raw) = args.first() else {
                    eprintln!("--fidelity requires 'fast', 'lite' or 'ooo'");
                    usage_and_exit();
                };
                fidelity = Some(Fidelity::parse(raw).unwrap_or_else(|e| {
                    eprintln!("invalid --fidelity: {e}");
                    usage_and_exit();
                }));
                args.remove(0);
            }
            Some("--checkpoint") => {
                args.remove(0);
                let Some(raw) = args.first() else {
                    eprintln!("--checkpoint requires a journal path");
                    usage_and_exit();
                };
                checkpoint = Some(PathBuf::from(raw));
                args.remove(0);
            }
            Some("--points") => {
                args.remove(0);
                let Some(n) = args
                    .first()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                else {
                    eprintln!("--points requires a positive point count");
                    usage_and_exit();
                };
                points = Some(n);
                args.remove(0);
            }
            _ => break,
        }
    }
    // Fail fast on a typo'd CATCH_JOBS before any simulation starts
    // (suite runs would otherwise panic mid-experiment).
    if let Err(e) = runner::Runner::from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let mut eval = EvalConfig::standard();
    eval.sample = sample;
    if let Some(f) = fidelity {
        eval.fidelity = f;
    }
    // `serve` and `cache-stats` take a path where the other ids take
    // `[ops] [warmup]`.
    if !matches!(
        args.first().map(String::as_str),
        Some("serve" | "cache-stats")
    ) {
        let scale = |i: usize, name: &str| {
            parse_arg(name, args.get(i).map(String::as_str), str::parse)
                .unwrap_or_else(|e| e.exit())
        };
        if let Some(ops) = scale(1, "ops") {
            eval.ops = ops;
        }
        if let Some(warmup) = scale(2, "warmup") {
            eval.warmup = warmup;
        }
    }
    if let Some(path) = trace_events {
        let workload = args.first().map(String::as_str).unwrap_or("tpcc_like");
        traced_run(&path, workload, &eval);
    }
    if profile {
        let workload = args.first().map(String::as_str).unwrap_or("tpcc_like");
        profile_run(workload, &eval);
    }
    let Some(id) = args.first().cloned() else {
        usage_and_exit();
    };
    if id == "serve" {
        let Some(sock) = args.get(1).map(PathBuf::from) else {
            eprintln!("serve requires a socket path");
            usage_and_exit();
        };
        serve(&sock, workers);
    }
    if id == "cache-stats" {
        cache_stats(args.get(1).map(Path::new));
    }
    if id == "server-smoke" {
        server_smoke(&eval);
    }
    if let Some(sock) = server_sock {
        if markdown {
            eprintln!("--md is not supported with --server (reports arrive pre-rendered)");
            std::process::exit(2);
        }
        let name = client_name.unwrap_or_else(|| format!("anon-{}", std::process::id()));
        client_mode(&sock, &id, &eval, &name, priority);
    }
    if id == "sample-smoke" {
        sample_smoke(&eval);
    }
    if id == "obs-smoke" {
        obs_smoke(&eval);
    }
    if id == "cache-smoke" {
        cache_smoke(&eval);
    }
    if id == "sweep-smoke" {
        sweep_smoke(&eval);
    }
    if id == "ladder-smoke" {
        ladder_smoke(&eval);
    }
    if let Some(spec) = catch_core::sweep::by_request_id(&id) {
        local_sweep(&spec, &eval, checkpoint, points, markdown);
    }
    if id == "all" {
        let reports = experiments::run_all(&experiments::all_ids(), &eval, None);
        for (_, report) in &reports {
            if markdown {
                println!("{}", report.to_markdown());
            } else {
                println!("{report}");
            }
        }
        eprintln!("{}", RunCache::global().summary());
        return;
    }
    if !experiments::all_ids().contains(&id.as_str()) {
        eprintln!(
            "unknown experiment '{id}'; available: {:?}",
            experiments::all_ids()
        );
        std::process::exit(2);
    }
    let report = experiments::run(&id, &eval);
    if markdown {
        println!("{}", report.to_markdown());
    } else {
        println!("{report}");
    }
    eprintln!("{}", RunCache::global().summary());
}
