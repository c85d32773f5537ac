//! Content-addressed memoization of suite simulations.
//!
//! The experiment registry re-simulates the same (configuration,
//! workload) pairs many times over: `fig01`, `fig03`, `fig10`, `fig12`,
//! `fig15` and the tables all include the exclusive baseline suite, and
//! every suite run used to regenerate each workload trace per job. The
//! run cache removes that duplication without changing a single byte of
//! any report:
//!
//! * **Fingerprinting** — [`run_fingerprint`] hashes the structural
//!   content of a [`SystemConfig`] (its `Debug` rendering with the
//!   display name stripped), the [`EvalConfig`], the workload id and
//!   [`SCHEMA_VERSION`] into a 128-bit key. Two requests share a key iff
//!   they describe the same simulation — so `fig10`'s `"CATCH"` and
//!   `fig12`'s `"base-excl+CATCH"` (structurally identical machines)
//!   simulate once; the requested display name is patched onto the
//!   cached result instead.
//! * **Single-flight deduplication** — concurrent requests for one key
//!   block on the first requester's computation instead of racing a
//!   duplicate simulation. A panicking computation marks its slot failed
//!   and wakes waiters so one of them retries.
//! * **Trace lifetime** — a trace lives as long as the call that
//!   replays it. A call takes a [`TraceLease`] on its (ops, seed) pair
//!   ([`RunCache::lease`]); while one is live, each workload's trace is
//!   generated at most once and every configuration that replays it gets
//!   a [`Trace`] handle onto the same micro-op buffer. Nested and
//!   concurrent leases on one pair share one set. When the last lease
//!   drops, so do its traces; a later call regenerates them bit for bit.
//! * **Disk persistence** — with `CATCH_RUN_CACHE=<dir>`, finished runs
//!   are serialised through the first-party JSON writer
//!   ([`crate::report::json`]) together with an integrity hash over the
//!   canonical re-rendering, so a later process can skip the simulation
//!   entirely. Any mismatch (schema version, fingerprint, counter
//!   layout, integrity) falls back to recomputation, counted in
//!   [`CacheSummary::disk_warnings`]. Decoding is one linear pass over
//!   the file (see `decode_shard`).
//!
//! Correctness argument: a cached result is only ever reused under the
//! exact structural key that produced it, simulations are deterministic
//! functions of (config, eval, workload), and the only post-hoc mutation
//! is the report-label `config` field (which no counter depends on) —
//! hence cache-off, cache-on and warm-disk runs are byte-identical,
//! which the `cache_parity` suite in `catch-tests` asserts.

use crate::experiments::EvalConfig;
use crate::metrics::RunResult;
use crate::report::json;
use crate::system::SystemConfig;
use catch_trace::counters::CounterEntry;
use catch_trace::hash::FxHasher;
use catch_trace::Trace;
use catch_workloads::WorkloadSpec;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

/// Environment variable selecting the cache mode: unset (or empty) keeps
/// the in-memory cache, `off`/`0` disables caching entirely, and any
/// other value is a directory for cross-process persistence.
pub const RUN_CACHE_ENV: &str = "CATCH_RUN_CACHE";

/// Bump on any change that invalidates persisted results: counter
/// schema, trace generation, or simulator semantics. Part of every
/// fingerprint, so stale disk entries can never match.
pub const SCHEMA_VERSION: u64 = 1;

/// A 128-bit content fingerprint (two independent 64-bit Fx passes).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl Fingerprint {
    /// The inverse of `Display`: exactly 32 lower-case hex digits.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

/// Hashes `payload` twice with distinct domain-prefix bytes; 64 bits per
/// half keeps accidental collisions across a few hundred keys negligible
/// (and the workload id is re-checked on every disk load anyway).
pub(crate) fn fp128(payload: &str) -> Fingerprint {
    let half = |tag: u8| {
        let mut h = FxHasher::default();
        h.write_u8(tag);
        h.write(payload.as_bytes());
        h.finish()
    };
    Fingerprint(((half(0x0D) as u128) << 64) | half(0xF1) as u128)
}

/// The part of a run fingerprint that one (config, eval) pair shares
/// across workloads, rendered once: a suite fingerprints 28 workloads
/// against it, and the `Debug` rendering of the configuration is nearly
/// all of a fingerprint's cost.
///
/// The config's display `name` is a report label with no effect on the
/// simulation, so it is stripped before hashing — structurally identical
/// configs requested under different names share one key. Everything
/// else rides on the derived `Debug` renderings, which cover every field
/// (including env-captured ones like `CoreConfig::skip_ahead`), so any
/// field perturbation changes the key.
#[derive(Clone, Debug)]
pub struct KeyPrefix(String);

impl KeyPrefix {
    /// Renders `schema|config|eval|` for the pair.
    pub fn new(config: &SystemConfig, eval: &EvalConfig) -> Self {
        let mut anon = config.clone();
        anon.name = String::new();
        KeyPrefix(format!("schema{SCHEMA_VERSION}|{anon:?}|{eval:?}|"))
    }

    /// Structural cache key of the pair's simulation of `workload`.
    pub fn fingerprint(&self, workload: &str) -> Fingerprint {
        fp128(&[self.0.as_str(), workload].concat())
    }
}

/// Structural cache key for one (config, eval, workload) simulation:
/// [`KeyPrefix::fingerprint`] for a caller with a single request.
pub fn run_fingerprint(config: &SystemConfig, eval: &EvalConfig, workload: &str) -> Fingerprint {
    KeyPrefix::new(config, eval).fingerprint(workload)
}

/// One memoization slot: in flight, ready, or failed (computer panicked).
enum SlotState<V> {
    InFlight,
    Ready(V),
    Failed,
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

/// Marks the slot failed if the computation unwinds, so waiters retry
/// instead of blocking forever.
struct FailGuard<'a, V> {
    slot: &'a Slot<V>,
    armed: bool,
}

impl<V> Drop for FailGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            *self.slot.state.lock().unwrap_or_else(|e| e.into_inner()) = SlotState::Failed;
            self.slot.ready.notify_all();
        }
    }
}

/// How [`SingleFlight::get_or_compute`] came by its value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Found {
    /// Already ready, or computed by a concurrent requester this call
    /// waited on.
    Hit,
    /// Computed by this call.
    Computed,
}

/// A concurrency-safe memo map with single-flight deduplication: the
/// first requester of a key computes; concurrent requesters block until
/// the value is ready and share it.
struct SingleFlight<K, V> {
    slots: Mutex<HashMap<K, Arc<Slot<V>>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    fn new() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<K, Arc<Slot<V>>>> {
        self.slots.lock().expect("memo map poisoned")
    }

    fn clear(&self) {
        self.lock().clear();
    }

    /// Returns the memoized value and how this call found it.
    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, Found) {
        let mut compute = Some(compute);
        loop {
            let (slot, is_computer) = match self.lock().entry(key.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => (e.get().clone(), false),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::InFlight),
                        ready: Condvar::new(),
                    });
                    e.insert(slot.clone());
                    (slot, true)
                }
            };
            if is_computer {
                let mut guard = FailGuard {
                    slot: &slot,
                    armed: true,
                };
                let value = (compute.take().expect("computer runs once"))();
                guard.armed = false;
                *slot.state.lock().expect("slot poisoned") = SlotState::Ready(value.clone());
                slot.ready.notify_all();
                return (value, Found::Computed);
            }
            let mut state = slot.state.lock().expect("slot poisoned");
            loop {
                match &*state {
                    SlotState::Ready(v) => return (v.clone(), Found::Hit),
                    SlotState::Failed => break,
                    SlotState::InFlight => {
                        state = slot.ready.wait(state).expect("slot poisoned");
                    }
                }
            }
            // The computer panicked: evict the failed slot (unless a
            // retrier already replaced it) and race to become the new
            // computer.
            drop(state);
            let mut slots = self.lock();
            if let Some(current) = slots.get(&key) {
                if Arc::ptr_eq(current, &slot) {
                    slots.remove(&key);
                }
            }
        }
    }
}

/// The traces the live leases on one (ops, seed) pair share: a slot per
/// workload, each filled at most once. A slot is an `Arc` so that its
/// generation runs without the set's lock held.
type TraceSet = Mutex<HashMap<&'static str, Arc<OnceLock<Trace>>>>;

/// A call's claim on the traces of one (ops, seed) pair (see
/// [`RunCache::lease`]). The traces live until the last lease on the pair
/// drops; [`Trace`] handles already given out keep their buffers alive.
#[must_use = "traces are shared only while the lease is held"]
pub struct TraceLease {
    _set: Arc<TraceSet>,
}

/// Where cached results live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// No caching: every request simulates (and regenerates its trace).
    Off,
    /// In-process memoization only (the default).
    Memory,
    /// In-process memoization plus persistence under the directory.
    Disk(PathBuf),
}

impl CacheMode {
    /// Reads the mode from [`RUN_CACHE_ENV`].
    pub fn from_env() -> Self {
        match std::env::var(RUN_CACHE_ENV) {
            Err(_) => CacheMode::Memory,
            Ok(v) if v.is_empty() => CacheMode::Memory,
            Ok(v) if v == "off" || v == "0" => CacheMode::Off,
            Ok(dir) => CacheMode::Disk(PathBuf::from(dir)),
        }
    }
}

/// Monotonic cache activity counters (a snapshot, not a live view).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Simulation requests served from memory (incl. single-flight waits).
    pub hits: u64,
    /// Simulation requests that actually simulated.
    pub misses: u64,
    /// Trace requests served from a live lease's set.
    pub trace_hits: u64,
    /// Trace requests that generated.
    pub trace_misses: u64,
    /// Results loaded from disk instead of simulating.
    pub disk_hits: u64,
    /// Results persisted to disk.
    pub disk_stores: u64,
    /// Bytes read from persisted results.
    pub bytes_read: u64,
    /// Bytes written to persisted results.
    pub bytes_written: u64,
    /// Disk entries that were unreadable or corrupt (each one fell back
    /// to recomputation; the first prints a stderr warning).
    pub disk_warnings: u64,
}

impl fmt::Display for CacheSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run cache: {} hits / {} misses (traces {} reused / {} built), \
             disk {} loaded / {} stored, {} B read / {} B written",
            self.hits,
            self.misses,
            self.trace_hits,
            self.trace_misses,
            self.disk_hits,
            self.disk_stores,
            self.bytes_read,
            self.bytes_written
        )?;
        if self.disk_warnings > 0 {
            write!(f, ", {} disk warnings", self.disk_warnings)?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct Activity {
    hits: AtomicU64,
    misses: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_stores: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    disk_warnings: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The process-wide run cache (see the module docs).
pub struct RunCache {
    mode: Mutex<CacheMode>,
    results: SingleFlight<u128, Arc<RunResult>>,
    /// The trace set of every (ops, seed) pair some lease may still hold.
    leases: Mutex<HashMap<(usize, u64), Weak<TraceSet>>>,
    activity: Activity,
    disk_warned: AtomicBool,
}

static GLOBAL: OnceLock<RunCache> = OnceLock::new();

impl RunCache {
    /// A fresh, empty cache in the given mode.
    pub fn new(mode: CacheMode) -> Self {
        RunCache {
            mode: Mutex::new(mode),
            results: SingleFlight::new(),
            leases: Mutex::new(HashMap::new()),
            activity: Activity::default(),
            disk_warned: AtomicBool::new(false),
        }
    }

    /// The process-wide cache, lazily initialised from [`RUN_CACHE_ENV`]
    /// on first use. Binaries that take cache flags must set the env var
    /// (or call [`RunCache::set_mode`]) before the first simulation.
    pub fn global() -> &'static RunCache {
        GLOBAL.get_or_init(|| RunCache::new(CacheMode::from_env()))
    }

    /// Current mode.
    pub fn mode(&self) -> CacheMode {
        self.mode.lock().expect("mode poisoned").clone()
    }

    /// Switches mode (does not drop memoized entries; pair with
    /// [`RunCache::reset_memory`] when isolation matters).
    pub fn set_mode(&self, mode: CacheMode) {
        *self.mode.lock().expect("mode poisoned") = mode;
    }

    /// Drops every memoized result (activity counters keep accumulating;
    /// traces already go with the leases that hold them). Lets one
    /// process measure a cold-vs-warm-disk pass.
    pub fn reset_memory(&self) {
        self.results.clear();
    }

    /// Snapshot of the activity counters.
    pub fn summary(&self) -> CacheSummary {
        let a = &self.activity;
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheSummary {
            hits: get(&a.hits),
            misses: get(&a.misses),
            trace_hits: get(&a.trace_hits),
            trace_misses: get(&a.trace_misses),
            disk_hits: get(&a.disk_hits),
            disk_stores: get(&a.disk_stores),
            bytes_read: get(&a.bytes_read),
            bytes_written: get(&a.bytes_written),
            disk_warnings: get(&a.disk_warnings),
        }
    }

    /// Shares the traces of (ops, seed) until the returned lease, and
    /// every other lease on the pair, drops. Takes no trace itself: each
    /// one is generated on its first [`RunCache::trace`] request.
    pub fn lease(&self, ops: usize, seed: u64) -> TraceLease {
        let mut leases = self.leases.lock().expect("lease map poisoned");
        leases.retain(|_, set| set.strong_count() > 0);
        let set = leases
            .get(&(ops, seed))
            .and_then(Weak::upgrade)
            .unwrap_or_else(|| {
                let set = Arc::default();
                leases.insert((ops, seed), Arc::downgrade(&set));
                set
            });
        TraceLease { _set: set }
    }

    /// The trace for (workload, ops, seed). Under a live lease on
    /// (ops, seed) it is generated once and every caller gets a handle
    /// onto the same micro-op buffer; without one (or in
    /// [`CacheMode::Off`]) it is generated afresh and kept by no one.
    pub fn trace(&self, spec: &WorkloadSpec, ops: usize, seed: u64) -> Trace {
        self.trace_with(spec.name, ops, seed, || spec.generate(ops, seed))
    }

    /// [`RunCache::trace`] with the generator passed in.
    fn trace_with(
        &self,
        workload: &'static str,
        ops: usize,
        seed: u64,
        generate: impl FnOnce() -> Trace,
    ) -> Trace {
        let set = if self.is_off() {
            None
        } else {
            let leases = self.leases.lock().expect("lease map poisoned");
            leases.get(&(ops, seed)).and_then(Weak::upgrade)
        };
        let Some(set) = set else {
            bump(&self.activity.trace_misses);
            return generate();
        };
        let slot = set
            .lock()
            .expect("trace set poisoned")
            .entry(workload)
            .or_default()
            .clone();
        // `OnceLock` is the single flight: concurrent requests wait for
        // one generation, and a generator that panics leaves the slot
        // empty for the next request to retry.
        let mut generated = false;
        let trace = slot
            .get_or_init(|| {
                generated = true;
                generate()
            })
            .clone();
        bump(if generated {
            &self.activity.trace_misses
        } else {
            &self.activity.trace_hits
        });
        trace
    }

    fn is_off(&self) -> bool {
        *self.mode.lock().expect("mode poisoned") == CacheMode::Off
    }

    /// Memoized simulation: returns the cached result for the structural
    /// key of (config, eval, workload), computing via `compute` at most
    /// once per key (per process — or per cache directory lifetime in
    /// disk mode). The result's `config` label is always the requested
    /// `config.name`, whatever name first populated the key.
    pub fn run_result(
        &self,
        config: &SystemConfig,
        eval: &EvalConfig,
        workload: &str,
        compute: impl FnOnce() -> RunResult,
    ) -> RunResult {
        let fp = run_fingerprint(config, eval, workload);
        self.run_result_keyed(fp, &config.name, workload, compute)
    }

    /// [`RunCache::run_result`] for a caller that already holds the
    /// request's fingerprint (a suite keeps one [`KeyPrefix`] for all its
    /// workloads); `label` is the requested config's display name.
    pub fn run_result_keyed(
        &self,
        fp: Fingerprint,
        label: &str,
        workload: &str,
        compute: impl FnOnce() -> RunResult,
    ) -> RunResult {
        if self.is_off() {
            bump(&self.activity.misses);
            return compute();
        }
        let (cached, found) = self.results.get_or_compute(fp.0, || {
            let dir = match self.mode() {
                CacheMode::Disk(dir) => Some(dir),
                _ => None,
            };
            if let Some(loaded) = dir.as_deref().and_then(|d| self.load_disk(d, fp, workload)) {
                bump(&self.activity.disk_hits);
                return Arc::new(loaded);
            }
            bump(&self.activity.misses);
            let result = compute();
            if let Some(dir) = &dir {
                self.store_disk(dir, fp, &result);
            }
            Arc::new(result)
        });
        if found == Found::Hit {
            bump(&self.activity.hits);
        }
        let mut out = (*cached).clone();
        out.config.clear();
        out.config.push_str(label);
        out
    }

    /// Records a disk problem: bumps the `disk_warnings` counter every
    /// time, prints a stderr warning only for the first one (a corrupt
    /// cache directory would otherwise warn once per entry).
    fn warn_disk(&self, detail: &str) {
        bump(&self.activity.disk_warnings);
        if !self.disk_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: run cache: {detail}; recomputing \
                 (further disk problems counted silently in cache stats)"
            );
        }
    }

    /// Best-effort disk load; any failure (missing, unparsable, wrong
    /// schema/fingerprint/workload, integrity mismatch) means "miss".
    /// A missing entry is the normal cold-cache case and stays silent;
    /// an unreadable or corrupt entry is reported via [`Self::warn_disk`].
    fn load_disk(&self, dir: &Path, fp: Fingerprint, workload: &str) -> Option<RunResult> {
        let path = entry_path(dir, fp);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                self.warn_disk(&format!("unreadable entry {}: {e}", path.display()));
                return None;
            }
        };
        match decode_shard(&text, fp, workload) {
            Ok(loaded) => {
                self.activity
                    .bytes_read
                    .fetch_add(text.len() as u64, Ordering::Relaxed);
                Some(loaded)
            }
            Err(why) => {
                self.warn_disk(&format!(
                    "corrupt or stale entry {} ({why})",
                    path.display()
                ));
                None
            }
        }
    }

    /// Best-effort atomic disk store (tmp file + rename).
    fn store_disk(&self, dir: &Path, fp: Fingerprint, result: &RunResult) {
        let text = encode_shard(fp, result);
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(".{fp}.tmp.{}", std::process::id()));
        if std::fs::write(&tmp, &text).is_err() {
            return;
        }
        if std::fs::rename(&tmp, entry_path(dir, fp)).is_ok() {
            bump(&self.activity.disk_stores);
            self.activity
                .bytes_written
                .fetch_add(text.len() as u64, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// The bytes of one disk entry. The stored result carries an empty
/// `config` label so they do not depend on which experiment populated
/// the entry. The result is rendered once, at indent 0 — the text the
/// integrity hash covers — and the file holds that rendering shifted
/// one level in (see [`json::write_run_result`]).
fn encode_shard(fp: Fingerprint, result: &RunResult) -> String {
    let mut canonical = result.clone();
    canonical.config.clear();
    let mut rendered = String::with_capacity(8 << 10);
    json::write_run_result(&mut rendered, &canonical, 0);
    let integrity = fp128(&rendered);
    let mut text = String::with_capacity(rendered.len() + 1024);
    write!(
        text,
        "{{\n  \"schema\": {SCHEMA_VERSION},\n  \"fingerprint\": \"{fp}\",\n  \
         \"integrity\": \"{integrity}\",\n  \"result\": "
    )
    .expect("writing to a String cannot fail");
    for (i, line) in rendered.split('\n').enumerate() {
        if i > 0 {
            text.push_str("\n  ");
        }
        text.push_str(line);
    }
    text.push_str("\n}\n");
    text
}

/// Decodes one disk entry; `Err` says why it is corrupt or stale (schema
/// bump, fingerprint/workload mismatch, counter layout, integrity).
///
/// One pass over `text`, in the member order [`encode_shard`] writes:
/// identity strings are borrowed from it, and the counters go from the
/// parser straight into the name-checked replay that rebuilds the stats
/// structs, so nothing is collected in between. The integrity hash
/// covers the canonical re-rendering of the *rebuilt* result, so it
/// validates the whole decode chain (parse + counter replay), not just
/// the file bytes.
fn decode_shard(text: &str, fp: Fingerprint, workload: &str) -> Result<RunResult, String> {
    let mut p = json::Parser::new(text);
    let mut envelope = p.begin_object()?;
    p.expect_key(&mut envelope, "schema")?;
    if p.number()? != SCHEMA_VERSION {
        return Err("schema version differs".to_string());
    }
    p.expect_key(&mut envelope, "fingerprint")?;
    if Fingerprint::from_hex(&p.string()?) != Some(fp) {
        return Err("fingerprint differs".to_string());
    }
    p.expect_key(&mut envelope, "integrity")?;
    let integrity = Fingerprint::from_hex(&p.string()?).ok_or("malformed integrity hash")?;
    p.expect_key(&mut envelope, "result")?;
    let mut result = p.begin_object()?;
    p.expect_key(&mut result, "workload")?;
    let stored_workload = p.string()?;
    if stored_workload != workload {
        return Err(format!("holds workload '{stored_workload}'"));
    }
    p.expect_key(&mut result, "category")?;
    let label = p.string()?;
    p.expect_key(&mut result, "config")?;
    let config = p.string()?;
    p.expect_key(&mut result, "counters")?;
    let mut counters = CounterMembers {
        members: p.begin_object()?,
        parser: &mut p,
    };
    let rebuilt = RunResult::replay(
        stored_workload.into_owned(),
        &label,
        config.into_owned(),
        &mut counters,
    )?;
    p.end_object(&mut result)?;
    p.end_object(&mut envelope)?;
    p.end()?;
    let mut rendered = String::with_capacity(text.len());
    json::write_run_result(&mut rendered, &rebuilt, 0);
    if fp128(&rendered) != integrity {
        return Err("integrity hash differs".to_string());
    }
    Ok(rebuilt)
}

/// The members of a shard's `counters` object as a counter stream.
struct CounterMembers<'p, 'a> {
    parser: &'p mut json::Parser<'a>,
    members: json::Members,
}

impl<'a> Iterator for CounterMembers<'_, 'a> {
    type Item = CounterEntry<'a>;

    fn next(&mut self) -> Option<CounterEntry<'a>> {
        let name = match self.parser.next_key(&mut self.members) {
            Ok(name) => name?,
            Err(e) => return Some(Err(e)),
        };
        Some(self.parser.number().map(|value| (name, value)))
    }
}

fn entry_path(dir: &Path, fp: Fingerprint) -> PathBuf {
    dir.join(format!("{fp}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemConfig;
    use catch_cache::Level;
    use catch_cpu::LoadOracle;
    use catch_criticality::DetectorConfig;
    use std::sync::atomic::AtomicUsize;

    fn quick() -> EvalConfig {
        EvalConfig::quick()
    }

    /// Two handles onto one micro-op buffer.
    fn shares_ops(a: &Trace, b: &Trace) -> bool {
        std::ptr::eq(a.ops(), b.ops())
    }

    #[test]
    fn every_config_builder_changes_fingerprint() {
        let eval = quick();
        let base = SystemConfig::baseline_exclusive();
        let fp = |c: &SystemConfig| run_fingerprint(c, &eval, "mcf_like");
        // One variant per config-mutating builder.
        let variants = vec![
            SystemConfig::baseline_inclusive(),
            base.clone().with_cores(4),
            base.clone().without_l2(6656 << 10),
            base.clone().with_catch(),
            base.clone().with_tact_components(true, false, false, false),
            base.clone().with_oracle(LoadOracle::CriticalPrefetch),
            base.clone().with_oracle(LoadOracle::Demote {
                level: Level::L1,
                only_noncritical: false,
            }),
            base.clone()
                .with_detector(DetectorConfig::paper().with_table_entries(8)),
            base.clone().with_extra_latency(Level::Llc, 6),
            base.clone().with_ring(4),
            base.clone().oracle_study(),
        ];
        let mut seen = vec![fp(&base)];
        for v in &variants {
            let key = fp(v);
            assert!(
                !seen.contains(&key),
                "builder produced a colliding fingerprint for {:?}",
                v.name
            );
            seen.push(key);
        }
    }

    #[test]
    fn eval_and_workload_perturbations_change_fingerprint() {
        let base = SystemConfig::baseline_exclusive();
        let eval = quick();
        let reference = run_fingerprint(&base, &eval, "mcf_like");
        let mut ops = eval;
        ops.ops += 1;
        let mut warmup = eval;
        warmup.warmup += 1;
        let mut seed = eval;
        seed.seed += 1;
        let sampled = eval.with_sample(4_000);
        for (what, e) in [
            ("ops", ops),
            ("warmup", warmup),
            ("seed", seed),
            ("sample", sampled),
        ] {
            assert_ne!(
                run_fingerprint(&base, &e, "mcf_like"),
                reference,
                "changing {what} must change the key"
            );
        }
        assert_ne!(run_fingerprint(&base, &eval, "astar_like"), reference);
    }

    #[test]
    fn display_name_does_not_affect_fingerprint() {
        let eval = quick();
        let catch = SystemConfig::baseline_exclusive().with_catch();
        let renamed = catch.clone().named("CATCH");
        assert_eq!(
            run_fingerprint(&catch, &eval, "mcf_like"),
            run_fingerprint(&renamed, &eval, "mcf_like"),
            "the display name is a report label, not simulation content"
        );
    }

    #[test]
    fn single_flight_computes_once_across_threads() {
        let flight: SingleFlight<u64, u64> = SingleFlight::new();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = flight.get_or_compute(7, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        42
                    });
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one compute");
    }

    #[test]
    fn single_flight_recovers_from_panicking_computer() {
        let flight: SingleFlight<u64, u64> = SingleFlight::new();
        let waiter_value = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                // Give the panicking computer time to claim the slot.
                std::thread::sleep(std::time::Duration::from_millis(10));
                flight.get_or_compute(1, || 99).0
            });
            let computer = scope.spawn(|| {
                let _ = flight.get_or_compute(1, || -> u64 { panic!("boom") });
            });
            assert!(computer.join().is_err(), "computer panic propagates");
            waiter.join().expect("waiter recovers")
        });
        assert_eq!(waiter_value, 99, "a waiter retried after the failure");
    }

    #[test]
    fn off_mode_always_computes() {
        let cache = RunCache::new(CacheMode::Off);
        let spec = catch_workloads::suite::by_name("linpack_like").expect("known");
        let _lease = cache.lease(400, 1);
        let a = cache.trace(&spec, 400, 1);
        let b = cache.trace(&spec, 400, 1);
        assert!(
            !shares_ops(&a, &b),
            "off mode must not share traces, leased or not"
        );
        assert_eq!(cache.summary().trace_misses, 2);
    }

    #[test]
    fn one_lease_shares_one_buffer_and_so_do_nested_leases() {
        let cache = RunCache::new(CacheMode::Memory);
        let spec = catch_workloads::suite::by_name("astar_like").expect("known");
        let outer = cache.lease(400, 1);
        let a = cache.trace(&spec, 400, 1);
        assert!(
            shares_ops(&a, &cache.trace(&spec, 400, 1)),
            "one generation"
        );
        {
            let _inner = cache.lease(400, 1);
            assert!(
                shares_ops(&a, &cache.trace(&spec, 400, 1)),
                "a nested lease joins the set"
            );
        }
        assert!(
            shares_ops(&a, &cache.trace(&spec, 400, 1)),
            "the outer lease still holds it"
        );
        assert!(
            !shares_ops(&a, &cache.trace(&spec, 400, 2)),
            "another seed is another set"
        );
        drop(outer);
        let summary = cache.summary();
        assert_eq!((summary.trace_misses, summary.trace_hits), (2, 3));
        assert!(summary.to_string().contains("(traces 3 reused / 2 built)"));
    }

    #[test]
    fn a_new_lease_regenerates_bit_identically() {
        let cache = RunCache::new(CacheMode::Memory);
        let spec = catch_workloads::suite::by_name("astar_like").expect("known");
        let lease = cache.lease(400, 1);
        let first = cache.trace(&spec, 400, 1);
        drop(lease);
        let _lease = cache.lease(400, 1);
        let again = cache.trace(&spec, 400, 1);
        assert!(
            !shares_ops(&first, &again),
            "the last lease took its traces"
        );
        assert_eq!(first.ops(), again.ops(), "op for op");
        assert_eq!(cache.summary().trace_misses, 2);
        assert_eq!(
            cache.leases.lock().expect("not poisoned").len(),
            1,
            "the dead set was pruned"
        );
    }

    #[test]
    fn one_lease_generates_once_across_threads() {
        let cache = RunCache::new(CacheMode::Memory);
        let spec = catch_workloads::suite::by_name("astar_like").expect("known");
        let _lease = cache.lease(400, 3);
        let start = std::sync::Barrier::new(8);
        let traces: Vec<Trace> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.trace(&spec, 400, 3)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert!(traces.iter().all(|t| shares_ops(t, &traces[0])));
        let summary = cache.summary();
        assert_eq!(
            (summary.trace_misses, summary.trace_hits),
            (1, 7),
            "eight requests, one generation"
        );
    }

    #[test]
    fn a_panicking_generator_leaves_the_slot_retryable() {
        let cache = RunCache::new(CacheMode::Memory);
        let spec = catch_workloads::suite::by_name("astar_like").expect("known");
        let _lease = cache.lease(400, 1);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.trace_with(spec.name, 400, 1, || panic!("generator failed"))
        }));
        assert!(failed.is_err(), "the panic reaches its caller");
        let retried = cache.trace(&spec, 400, 1);
        assert!(
            shares_ops(&retried, &cache.trace(&spec, 400, 1)),
            "the retry filled it"
        );
        let summary = cache.summary();
        assert_eq!((summary.trace_misses, summary.trace_hits), (1, 1));
    }

    #[test]
    fn a_call_without_a_lease_keeps_nothing() {
        let cache = RunCache::new(CacheMode::Memory);
        let spec = catch_workloads::suite::by_name("linpack_like").expect("known");
        let a = cache.trace(&spec, 400, 1);
        assert!(!shares_ops(&a, &cache.trace(&spec, 400, 1)));
        let _other = cache.lease(400, 2);
        assert!(
            !shares_ops(&a, &cache.trace(&spec, 400, 1)),
            "a lease on another seed does not cover it"
        );
        let summary = cache.summary();
        assert_eq!((summary.trace_misses, summary.trace_hits), (3, 0));
    }

    #[test]
    fn memory_mode_shares_traces_and_results() {
        let cache = RunCache::new(CacheMode::Memory);
        let spec = catch_workloads::suite::by_name("linpack_like").expect("known");
        let _lease = cache.lease(400, 1);
        let a = cache.trace(&spec, 400, 1);
        let b = cache.trace(&spec, 400, 1);
        assert!(
            shares_ops(&a, &b),
            "one generation per (workload, ops, seed)"
        );
        assert!(!shares_ops(&a, &cache.trace(&spec, 400, 2)));

        let eval = quick();
        let config = SystemConfig::baseline_exclusive();
        let renamed = config.clone().named("other-label");
        let computes = AtomicUsize::new(0);
        let run = |cfg: &SystemConfig| {
            cache.run_result(cfg, &eval, "linpack_like", || {
                computes.fetch_add(1, Ordering::SeqCst);
                crate::System::new(cfg.clone()).run_st(a.clone())
            })
        };
        let first = run(&config);
        let second = run(&renamed);
        assert_eq!(computes.load(Ordering::SeqCst), 1, "one simulation per key");
        assert_eq!(first.config, "base-excl");
        assert_eq!(
            second.config, "other-label",
            "hit patched to requested name"
        );
        assert_eq!(first.core, second.core, "counters identical across names");
        cache.reset_memory();
        let _ = run(&config);
        assert_eq!(
            computes.load(Ordering::SeqCst),
            2,
            "reset drops memoization"
        );
    }

    #[test]
    fn corrupt_disk_entries_warn_once_and_recompute() {
        let dir = std::env::temp_dir().join(format!(
            "catch-runcache-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create cache dir");
        let cache = RunCache::new(CacheMode::Disk(dir.clone()));
        let eval = quick();
        let config = SystemConfig::baseline_exclusive();
        // Plant garbage at both keys this test will probe.
        for workload in ["linpack_like", "mcf_like"] {
            let fp = run_fingerprint(&config, &eval, workload);
            std::fs::write(entry_path(&dir, fp), b"{ not json").expect("plant garbage");
        }
        let spec = catch_workloads::suite::by_name("linpack_like").expect("known");
        let trace = cache.trace(&spec, eval.ops, eval.seed);
        let result = cache.run_result(&config, &eval, "linpack_like", || {
            crate::System::new(config.clone()).run_st(trace.clone())
        });
        assert_eq!(result.workload, "linpack_like", "fell back to computing");
        let summary = cache.summary();
        assert_eq!(summary.disk_warnings, 1, "corrupt entry counted");
        assert_eq!(summary.disk_hits, 0, "garbage never loads");
        assert!(
            summary.to_string().contains("1 disk warnings"),
            "summary surfaces the count: {summary}"
        );
        // A second corrupt entry still counts but must not warn again
        // (warn-once is per cache instance; asserted via the flag).
        assert!(cache.disk_warned.load(Ordering::Relaxed));
        let spec2 = catch_workloads::suite::by_name("mcf_like").expect("known");
        let trace2 = cache.trace(&spec2, eval.ops, eval.seed);
        cache.run_result(&config, &eval, "mcf_like", || {
            crate::System::new(config.clone()).run_st(trace2.clone())
        });
        assert_eq!(cache.summary().disk_warnings, 2, "still counted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
