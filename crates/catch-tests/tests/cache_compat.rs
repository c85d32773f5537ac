//! On-disk compatibility of the run cache, pinned by committed files:
//! what an earlier build wrote must load, and what this build writes
//! must be the same bytes, or every existing cache directory (and
//! sweep journal, whose point keys use the same construction) silently
//! turns into misses.
//!
//! * `golden/fingerprints.txt` — the cache key of one request per
//!   config-builder axis, eval field and workload. The keys walk the
//!   config structs field by field (`catch_trace::key`), so a field
//!   added, removed or re-walked in another order moves them; this
//!   snapshot makes that a deliberate re-bless instead of an accident.
//!   (`tests/key_walk.rs` checks that every field moves the key.)
//! * `golden/run_cache/<fingerprint>.json` — one shard exactly as the
//!   commit before the linear-time codec stored it.
//!
//! To re-bless after an intended change (bump `SCHEMA_VERSION` with it):
//!
//! ```sh
//! CATCH_BLESS=1 cargo test -p catch-tests --test cache_compat
//! git status crates/catch-tests/tests/golden/
//! ```

use catch_cache::Level;
use catch_core::experiments::{EvalConfig, Fidelity};
use catch_core::report::json::run_result_to_json;
use catch_core::{run_fingerprint, CacheMode, LoadOracle, RunCache, System, SystemConfig};
use catch_criticality::DetectorConfig;
use std::path::{Path, PathBuf};

const FINGERPRINTS_PATH: &str = "tests/golden/fingerprints.txt";
const FINGERPRINTS: &str = include_str!("golden/fingerprints.txt");
const SHARD_DIR: &str = "tests/golden/run_cache";

fn blessing() -> bool {
    std::env::var_os("CATCH_BLESS").is_some()
}

/// `config` with the env-captured core field (`CATCH_NO_SKIP`) pinned
/// to its default, so the keys do not depend on the environment the
/// suite runs under.
fn pinned(mut config: SystemConfig) -> SystemConfig {
    config.core.skip_ahead = true;
    config
}

fn eval() -> EvalConfig {
    EvalConfig {
        ops: 2_000,
        warmup: 500,
        seed: 42,
        sample: None,
        fidelity: Fidelity::Ooo,
    }
}

#[test]
fn fingerprints_match_the_committed_snapshot() {
    let base = SystemConfig::baseline_exclusive;
    let configs: Vec<(&str, SystemConfig)> = vec![
        ("base-excl", base()),
        ("base-incl", SystemConfig::baseline_inclusive()),
        ("cores4", base().with_cores(4)),
        ("noL2", base().without_l2(6656 << 10)),
        ("catch", base().with_catch()),
        (
            "incl+catch",
            SystemConfig::baseline_inclusive().with_catch(),
        ),
        (
            "tact-code",
            base().with_tact_components(true, false, false, false),
        ),
        (
            "oracle-prefetch",
            base().with_oracle(LoadOracle::CriticalPrefetch),
        ),
        (
            "oracle-demote",
            base().with_oracle(LoadOracle::Demote {
                level: Level::L1,
                only_noncritical: false,
            }),
        ),
        (
            "detector8",
            base().with_detector(DetectorConfig::paper().with_table_entries(8)),
        ),
        ("llc+6", base().with_extra_latency(Level::Llc, 6)),
        ("ring4", base().with_ring(4)),
        ("oracle-study", base().oracle_study()),
    ];
    let mut lines = Vec::new();
    for (label, config) in configs {
        let fp = run_fingerprint(&pinned(config), &eval(), "mcf_like");
        lines.push(format!("{label} quick mcf_like {fp}"));
    }
    let evals = [
        (
            "ops+1",
            EvalConfig {
                ops: 2_001,
                ..eval()
            },
        ),
        (
            "warmup+1",
            EvalConfig {
                warmup: 501,
                ..eval()
            },
        ),
        ("seed+1", EvalConfig { seed: 43, ..eval() }),
        ("sample500", eval().with_sample(500)),
        ("lite", eval().with_fidelity(Fidelity::Lite)),
        ("fast", eval().with_fidelity(Fidelity::Fast)),
        ("standard", EvalConfig::standard()),
    ];
    for (label, e) in evals {
        let fp = run_fingerprint(&pinned(base()), &e, "mcf_like");
        lines.push(format!("base-excl {label} mcf_like {fp}"));
    }
    for workload in ["astar_like", "tpcc_like"] {
        let fp = run_fingerprint(&pinned(base()), &eval(), workload);
        lines.push(format!("base-excl quick {workload} {fp}"));
    }
    let actual = lines.join("\n") + "\n";
    if blessing() {
        std::fs::write(FINGERPRINTS_PATH, &actual).expect("write the fingerprint snapshot");
        eprintln!("blessed {FINGERPRINTS_PATH}");
        return;
    }
    for (a, g) in actual.lines().zip(FINGERPRINTS.lines()) {
        assert_eq!(
            a, g,
            "a run-cache key moved: every persisted shard and journal is now a miss; \
             re-bless with CATCH_BLESS=1 (and bump SCHEMA_VERSION) if that is intended"
        );
    }
    assert_eq!(actual.lines().count(), FINGERPRINTS.lines().count());
}

/// The request whose shard is committed.
fn golden_request() -> (SystemConfig, EvalConfig, &'static str) {
    (
        pinned(SystemConfig::baseline_exclusive().with_catch()),
        eval(),
        "tpcc_like",
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("catch-cache-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn the_committed_shard_loads_and_is_reproduced_byte_for_byte() {
    let (config, eval, workload) = golden_request();
    let name = format!("{}.json", run_fingerprint(&config, &eval, workload));
    let golden_path = Path::new(SHARD_DIR).join(&name);
    let simulate = || {
        let spec = catch_workloads::suite::by_name(workload).expect("known workload");
        System::new(config.clone()).run_st_warm(spec.generate(eval.ops, eval.seed), eval.warmup)
    };

    if blessing() {
        let dir = scratch_dir("bless");
        RunCache::new(CacheMode::Disk(dir.clone())).run_result(&config, &eval, workload, simulate);
        let _ = std::fs::remove_dir_all(SHARD_DIR);
        std::fs::create_dir_all(SHARD_DIR).expect("create the golden directory");
        std::fs::copy(dir.join(&name), &golden_path).expect("copy the stored shard");
        eprintln!("blessed {}", golden_path.display());
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }

    let golden = std::fs::read(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} — the request's cache key moved, or the shard was never blessed",
            golden_path.display()
        )
    });
    // The directory listing tool still sees it as one committed shard.
    let stats = catch_server::cachedao::scan(Path::new(SHARD_DIR)).expect("scan");
    assert_eq!((stats.entries, stats.bytes), (1, golden.len() as u64));

    // An old directory is served without a warning or a simulation...
    let old_dir = scratch_dir("old");
    std::fs::write(old_dir.join(&name), &golden).expect("plant the committed shard");
    let reader = RunCache::new(CacheMode::Disk(old_dir.clone()));
    let loaded = reader.run_result(&config, &eval, workload, || {
        panic!("the committed shard must load, not recompute")
    });
    let summary = reader.summary();
    assert_eq!(
        (summary.disk_hits, summary.misses, summary.disk_warnings),
        (1, 0, 0),
        "{summary}"
    );
    assert_eq!(summary.bytes_read, golden.len() as u64);
    // ...holds what a simulation today produces...
    assert_eq!(
        run_result_to_json(&loaded, 0),
        run_result_to_json(&simulate(), 0),
        "the committed shard no longer matches the simulator (golden_stats moved too?)"
    );
    // ...and storing that result writes the committed bytes again.
    let new_dir = scratch_dir("new");
    let writer = RunCache::new(CacheMode::Disk(new_dir.clone()));
    writer.run_result(&config, &eval, workload, || loaded.clone());
    assert_eq!(writer.summary().disk_stores, 1);
    let stored = std::fs::read(new_dir.join(&name)).expect("the result was stored");
    assert!(
        stored == golden,
        "this build stores different bytes for the same result:\n{}",
        String::from_utf8_lossy(&stored)
    );
    let _ = std::fs::remove_dir_all(&old_dir);
    let _ = std::fs::remove_dir_all(&new_dir);
}
