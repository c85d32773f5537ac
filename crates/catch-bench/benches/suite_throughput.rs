//! Full-registry throughput benchmark: wall time to regenerate every
//! experiment, in three cache regimes, written to `BENCH_suite.json`
//! at the repo root so the suite-level perf trajectory is tracked
//! in-tree (the per-simulation trajectory lives in
//! `BENCH_throughput.json`).
//!
//! Three timed passes over the whole registry (`experiments::all_ids`):
//!
//! 1. **cold** — cache off, one experiment at a time: every experiment
//!    re-simulates its own configurations, as the registry did before
//!    the run cache existed.
//! 2. **deduped** — one `experiments::run_all` invocation against an
//!    empty disk-backed cache: all experiments' suite requests collapse
//!    to one deduplicated work queue (and the pass populates the cache
//!    directory for the next one).
//! 3. **warm** — `run_all` again with the in-memory cache dropped:
//!    every suite simulation loads from disk.
//!
//! The three passes must render byte-identical reports (asserted here,
//! and by the `cache_parity` suite at test scale).
//!
//! Modes (beyond the usual `CATCH_*` scale variables):
//!
//! * default — measure and print; if `BENCH_suite.json` exists, also
//!   print the delta against its checked-in reference.
//! * `CATCH_BLESS=1` — rewrite `BENCH_suite.json`: measured numbers
//!   become the new `reference`; the `pre_pr` block (the frozen
//!   before-this-PR full-registry measurement) is preserved verbatim
//!   when present, else seeded from this run's cold pass.
//! * `CATCH_BENCH_CHECK=1` — CI gate: exit non-zero when the warm pass
//!   is not at least `CATCH_SUITE_MIN_SPEEDUP` (default 2.0) times
//!   faster than the cold pass, or when any pass's report bytes differ.

use catch_bench::{eval_from_env, pin_ooo};
use catch_core::experiments::{self, EvalConfig};
use catch_core::{CacheMode, RunCache};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default CI floor for cold-vs-warm speedup.
const DEFAULT_MIN_SPEEDUP: f64 = 2.0;

fn repo_root() -> PathBuf {
    // crates/catch-bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("repo root exists")
}

/// Extracts the JSON object following `"key":` by brace counting (the
/// file is machine-written by this benchmark).
fn extract_object(json: &str, key: &str) -> Option<String> {
    let at = json.find(&format!("\"{key}\""))?;
    let open = at + json[at..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[open..=open + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts the number following `"key":` inside `json`.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\""))?;
    let rest = &json[at..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Renders every experiment's report as one string (byte-identity probe).
fn render(reports: &[(String, catch_core::report::ExperimentReport)]) -> String {
    reports
        .iter()
        .map(|(_, r)| r.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let mut eval: EvalConfig = eval_from_env();
    pin_ooo(&mut eval);
    let ids = experiments::all_ids();
    eprintln!(
        "[suite_throughput] {} experiments at ops={} warmup={} seed={}",
        ids.len(),
        eval.ops,
        eval.warmup,
        eval.seed
    );
    let cache = RunCache::global();
    let dir = std::env::temp_dir().join(format!("catch-suite-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Pass 1: cold, cache off, per-experiment (the pre-run-cache shape).
    cache.set_mode(CacheMode::Off);
    cache.reset_memory();
    let t = Instant::now();
    let cold_reports: Vec<(String, _)> = ids
        .iter()
        .map(|id| (id.to_string(), experiments::run(id, &eval)))
        .collect();
    let cold_secs = t.elapsed().as_secs_f64();
    println!("suite_throughput: cold (no cache)      {cold_secs:>8.1}s");

    // Pass 2: one deduplicated work queue, populating the disk cache.
    cache.set_mode(CacheMode::Disk(dir.clone()));
    cache.reset_memory();
    let t = Instant::now();
    let dedup_reports = experiments::run_all(&ids, &eval, None);
    let dedup_secs = t.elapsed().as_secs_f64();
    println!("suite_throughput: deduped (run_all)    {dedup_secs:>8.1}s");
    eprintln!("[suite_throughput] {}", cache.summary());

    // Pass 3: warm from disk (memory cache dropped).
    cache.reset_memory();
    let t = Instant::now();
    let warm_reports = experiments::run_all(&ids, &eval, None);
    let warm_secs = t.elapsed().as_secs_f64();
    println!("suite_throughput: warm (disk cache)    {warm_secs:>8.1}s");
    eprintln!("[suite_throughput] {}", cache.summary());

    cache.set_mode(CacheMode::Memory);
    cache.reset_memory();
    let _ = std::fs::remove_dir_all(&dir);

    let identical = {
        let cold = render(&cold_reports);
        cold == render(&dedup_reports) && cold == render(&warm_reports)
    };
    let dedup_speedup = cold_secs / dedup_secs.max(1e-9);
    let warm_speedup = cold_secs / warm_secs.max(1e-9);
    println!(
        "suite_throughput: dedup speedup {dedup_speedup:.2}x, warm speedup {warm_speedup:.2}x, \
         reports {}",
        if identical {
            "byte-identical"
        } else {
            "DIFFER"
        }
    );

    let path = repo_root().join("BENCH_suite.json");
    let existing = std::fs::read_to_string(&path).ok();

    if std::env::var_os("CATCH_BLESS").is_some() {
        let current = format!(
            "{{\n    \"cold_secs\": {cold_secs:.1},\n    \"dedup_secs\": {dedup_secs:.1},\n    \
             \"warm_secs\": {warm_secs:.1}\n  }}"
        );
        // The frozen pre-PR measurement survives re-blessing; only the
        // very first bless (no file yet) seeds it from the cold pass.
        let pre_pr = existing
            .as_deref()
            .and_then(|j| extract_object(j, "pre_pr"))
            .unwrap_or_else(|| format!("{{\n    \"registry_secs\": {cold_secs:.1}\n  }}"));
        let pre_secs = extract_number(&pre_pr, "registry_secs").unwrap_or(cold_secs);
        let json = format!(
            "{{\n  \"bench\": \"suite_throughput\",\n  \"scale\": {{ \"ops\": {}, \"warmup\": {}, \
             \"seed\": {} }},\n  \"fidelity\": \"{}\",\n  \"pre_pr\": {},\n  \"reference\": {},\n  \
             \"speedup_dedup_vs_pre_pr\": {:.4},\n  \"speedup_warm_vs_pre_pr\": {:.4}\n}}\n",
            eval.ops,
            eval.warmup,
            eval.seed,
            eval.fidelity.label(),
            pre_pr,
            current,
            pre_secs / dedup_secs.max(1e-9),
            pre_secs / warm_secs.max(1e-9),
        );
        std::fs::write(&path, json).expect("write BENCH_suite.json");
        println!("suite_throughput: blessed {}", path.display());
        return;
    }

    if let Some(ref_warm) = existing
        .as_deref()
        .and_then(|j| extract_object(j, "reference"))
        .and_then(|obj| extract_number(&obj, "warm_secs"))
    {
        println!("suite_throughput: reference warm {ref_warm:.1}s, measured {warm_secs:.1}s");
    } else {
        println!(
            "suite_throughput: no checked-in reference at {} (run with CATCH_BLESS=1 to create)",
            path.display()
        );
    }

    if std::env::var_os("CATCH_BENCH_CHECK").is_some() {
        let min_speedup = catch_harness::env_var("CATCH_SUITE_MIN_SPEEDUP", str::parse)
            .unwrap_or(DEFAULT_MIN_SPEEDUP);
        if !identical {
            eprintln!("suite_throughput FAILED: cache modes changed report bytes");
            std::process::exit(1);
        }
        if warm_speedup < min_speedup {
            eprintln!(
                "suite_throughput FAILED: warm pass only {warm_speedup:.2}x faster than cold \
                 (floor {min_speedup}x)"
            );
            std::process::exit(1);
        }
        println!("suite_throughput OK (byte-identical, warm ≥{min_speedup}x)");
    }
}
