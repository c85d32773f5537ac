//! Cache DAO: read-side access to the on-disk run-cache shards.
//!
//! The run cache (`catch_core::runcache`) persists one JSON shard per
//! structural fingerprint under `CATCH_RUN_CACHE=<dir>`. Simulation
//! correctness never depends on this module — loads and stores go
//! through the cache itself — but the daemon's `/stats` response and the
//! `run_experiment cache-stats` subcommand need an inventory: how many
//! shards exist, how big they are, and how stale. That is this module's
//! whole job, so cache-directory layout knowledge stays in one place.

use std::io;
use std::path::Path;
use std::time::SystemTime;

/// Aggregate statistics over one cache directory.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Persisted result shards (`<fingerprint>.json` files).
    pub entries: u64,
    /// Total bytes across all shards.
    pub bytes: u64,
    /// Age of the oldest shard in seconds (0 when empty).
    pub oldest_secs: u64,
    /// Age of the newest shard in seconds (0 when empty).
    pub newest_secs: u64,
}

/// True for a committed shard file name: `<32 hex chars>.json`.
/// In-flight temporaries (`.<fp>.tmp.<pid>`) and foreign files are not
/// shards and are excluded from every statistic.
fn is_shard_name(name: &str) -> bool {
    name.strip_suffix(".json")
        .map(|stem| stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or(false)
}

/// Scans `dir` and aggregates shard statistics. A missing directory is
/// an empty cache, not an error (the cache creates it lazily on the
/// first store); other IO failures propagate.
pub fn scan(dir: &Path) -> io::Result<ShardStats> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ShardStats::default()),
        Err(e) => return Err(e),
    };
    let now = SystemTime::now();
    let mut stats = ShardStats::default();
    let mut oldest: Option<u64> = None;
    let mut newest: Option<u64> = None;
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if !is_shard_name(name) {
            continue;
        }
        let meta = entry.metadata()?;
        if !meta.is_file() {
            continue;
        }
        stats.entries += 1;
        stats.bytes += meta.len();
        let age = meta
            .modified()
            .ok()
            .and_then(|m| now.duration_since(m).ok())
            .map(|d| d.as_secs())
            .unwrap_or(0);
        oldest = Some(oldest.map_or(age, |o| o.max(age)));
        newest = Some(newest.map_or(age, |n| n.min(age)));
    }
    stats.oldest_secs = oldest.unwrap_or(0);
    stats.newest_secs = newest.unwrap_or(0);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "catch-cachedao-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn missing_directory_is_an_empty_cache() {
        let dir = std::env::temp_dir().join("catch-cachedao-does-not-exist");
        assert_eq!(scan(&dir).expect("missing dir ok"), ShardStats::default());
    }

    #[test]
    fn counts_only_committed_shards() {
        let dir = temp_dir("filter");
        let shard = "0123456789abcdef0123456789abcdef.json";
        std::fs::write(dir.join(shard), b"{\"schema\": 1}\n").expect("write shard");
        // Things that must NOT count: temporaries, foreign files,
        // wrong-length stems, non-hex stems.
        std::fs::write(dir.join(".deadbeef.tmp.123"), b"x").expect("write tmp");
        std::fs::write(dir.join("README.md"), b"x").expect("write foreign");
        std::fs::write(dir.join("abc.json"), b"x").expect("write short");
        std::fs::write(dir.join("zzzz456789abcdef0123456789abcdef.json"), b"x")
            .expect("write non-hex");
        let stats = scan(&dir).expect("scan");
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 14);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scans_real_cache_output() {
        use catch_core::{CacheMode, RunCache, System, SystemConfig};
        let dir = temp_dir("real");
        let cache = RunCache::new(CacheMode::Disk(dir.clone()));
        let spec = catch_workloads::suite::by_name("linpack_like").expect("known");
        let eval = catch_core::experiments::EvalConfig {
            ops: 400,
            warmup: 100,
            seed: 1,
            sample: None,
            fidelity: catch_core::experiments::Fidelity::Ooo,
        };
        let config = SystemConfig::baseline_exclusive();
        let trace = cache.trace(&spec, eval.ops, eval.seed);
        cache.run_result(&config, &eval, spec.name, || {
            System::new(config.clone()).run_st(trace.clone())
        });
        let stats = scan(&dir).expect("scan");
        assert_eq!(stats.entries, 1, "one simulation, one shard");
        assert!(stats.bytes > 100, "shard carries the counter map");
        assert!(stats.oldest_secs >= stats.newest_secs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
