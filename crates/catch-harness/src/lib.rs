//! First-party benchmark harness for the CATCH workspace.
//!
//! The workspace builds fully offline, so instead of an external bench
//! framework the `cargo bench` targets run on this minimal harness:
//! optional warm-up iterations, a fixed number of timed iterations, and
//! min / median / mean / max wall-clock summaries with derived
//! throughput. Emission reuses the same [`catch_core::report::Table`]
//! renderer the experiments print with, plus the workspace JSON writer
//! for machine consumption — no external dependency either way.
//!
//! Iteration counts come from the environment so CI smoke runs and local
//! deep runs share one binary:
//!
//! * `CATCH_BENCH_ITERS` — timed iterations per benchmark (default 3).
//! * `CATCH_BENCH_WARMUP_ITERS` — discarded warm-up iterations
//!   (default 1).
//! * `CATCH_BENCH_JSON` — when set (any value), a JSON summary is
//!   printed to stdout after the table.
//!
//! Numeric settings are parsed strictly by [`env_var`]: unset means the
//! default, and a malformed value panics naming the variable.
//!
//! # Example
//!
//! ```
//! use catch_harness::Harness;
//!
//! let mut h = Harness::new("demo");
//! h.bench("sum", 1_000, || {
//!     let s: u64 = (0..1_000u64).sum();
//!     assert!(s > 0);
//! });
//! println!("{}", h.table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use catch_core::report::{Table, ValueKind};
use std::ffi::OsStr;
use std::fmt::Display;
use std::time::Instant;

/// Reads environment variable `name` and parses it with `parse`: `None`
/// when unset, the parsed value otherwise.
///
/// # Panics
///
/// Panics naming `name` when the value is not valid Unicode or `parse`
/// rejects it — a bench that silently fell back to its default scale
/// or rung would report a timing of something else.
pub fn env_var<T, E: Display>(name: &str, parse: impl FnOnce(&str) -> Result<T, E>) -> Option<T> {
    parse_env(name, std::env::var_os(name).as_deref(), parse)
}

/// [`env_var`] on an already-read raw value. Pure, so it is tested
/// without touching the process environment.
fn parse_env<T, E: Display>(
    name: &str,
    raw: Option<&OsStr>,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Option<T> {
    let raw = raw?;
    let Some(text) = raw.to_str() else {
        panic!("{name}: invalid value {raw:?}: not valid Unicode");
    };
    match parse(text) {
        Ok(value) => Some(value),
        Err(e) => panic!("{name}: invalid value {text:?}: {e}"),
    }
}

/// Iteration counts for one harness run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BenchOptions {
    /// Discarded warm-up iterations before timing starts.
    pub warmup_iters: u32,
    /// Timed iterations (at least 1).
    pub iters: u32,
}

impl BenchOptions {
    /// Default scale: one warm-up plus three timed iterations — enough
    /// for a stable median without multiplying simulation time.
    pub fn standard() -> Self {
        BenchOptions {
            warmup_iters: 1,
            iters: 3,
        }
    }

    /// Reads the scale from the environment (see crate docs), falling
    /// back to [`BenchOptions::standard`] for unset variables.
    ///
    /// # Panics
    ///
    /// Panics on a malformed value (see [`env_var`]).
    pub fn from_env() -> Self {
        let standard = BenchOptions::standard();
        BenchOptions {
            warmup_iters: env_var("CATCH_BENCH_WARMUP_ITERS", str::parse)
                .unwrap_or(standard.warmup_iters),
            iters: env_var("CATCH_BENCH_ITERS", str::parse)
                .unwrap_or(standard.iters)
                .max(1),
        }
    }
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions::standard()
    }
}

/// Wall-clock summary of one benchmark.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark label.
    pub label: String,
    /// Timed iterations performed.
    pub iters: u32,
    /// Nominal operations per iteration (0 = no throughput reported).
    pub ops_per_iter: u64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Median iteration, nanoseconds.
    pub median_ns: u64,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u64,
    /// Slowest iteration, nanoseconds.
    pub max_ns: u64,
}

impl BenchResult {
    /// Summarises raw per-iteration durations (nanoseconds, non-empty).
    fn from_samples(label: &str, ops_per_iter: u64, mut samples: Vec<u64>) -> Self {
        assert!(!samples.is_empty(), "at least one timed iteration");
        samples.sort_unstable();
        let n = samples.len();
        let median_ns = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2
        };
        let mean_ns = (samples.iter().map(|&s| s as u128).sum::<u128>() / n as u128) as u64;
        BenchResult {
            label: label.to_string(),
            iters: n as u32,
            ops_per_iter,
            min_ns: samples[0],
            median_ns,
            mean_ns,
            max_ns: samples[n - 1],
        }
    }

    /// Throughput in operations per second, from the median iteration
    /// (0.0 when no op count was supplied or timing underflowed).
    pub fn ops_per_sec(&self) -> f64 {
        if self.ops_per_iter == 0 || self.median_ns == 0 {
            0.0
        } else {
            self.ops_per_iter as f64 / (self.median_ns as f64 * 1e-9)
        }
    }
}

/// A group of benchmarks sharing one options set and one report.
#[derive(Clone, Debug)]
pub struct Harness {
    name: String,
    options: BenchOptions,
    results: Vec<BenchResult>,
}

impl Harness {
    /// A harness scaled from the environment (see crate docs).
    pub fn new(name: impl Into<String>) -> Self {
        Harness::with_options(name, BenchOptions::from_env())
    }

    /// A harness with explicit iteration counts.
    pub fn with_options(name: impl Into<String>, options: BenchOptions) -> Self {
        Harness {
            name: name.into(),
            options: BenchOptions {
                warmup_iters: options.warmup_iters,
                iters: options.iters.max(1),
            },
            results: Vec::new(),
        }
    }

    /// Runs one benchmark: `warmup_iters` discarded calls of `f`, then
    /// `iters` timed calls. `ops_per_iter` is the caller's nominal work
    /// per iteration (simulated micro-ops here) and only feeds the
    /// throughput column; pass 0 to omit it.
    pub fn bench(&mut self, label: &str, ops_per_iter: u64, mut f: impl FnMut()) -> &BenchResult {
        for _ in 0..self.options.warmup_iters {
            f();
        }
        let mut samples = Vec::with_capacity(self.options.iters as usize);
        for _ in 0..self.options.iters {
            let start = Instant::now();
            f();
            samples.push(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        self.results
            .push(BenchResult::from_samples(label, ops_per_iter, samples));
        self.results.last().expect("just pushed")
    }

    /// All results in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders the summary as a [`catch_core::report::Table`]
    /// (milliseconds, plus Mops/s throughput).
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!("{} (wall clock, {} iters)", self.name, self.options.iters),
            ["min ms", "median ms", "mean ms", "max ms", "Mops/s"]
                .into_iter()
                .map(String::from)
                .collect(),
            ValueKind::Raw,
        );
        for r in &self.results {
            table.push_row(
                r.label.clone(),
                vec![
                    r.min_ns as f64 * 1e-6,
                    r.median_ns as f64 * 1e-6,
                    r.mean_ns as f64 * 1e-6,
                    r.max_ns as f64 * 1e-6,
                    r.ops_per_sec() * 1e-6,
                ],
            );
        }
        table
    }

    /// Renders the summary as JSON (workspace writer; no external
    /// dependency). Timing is environment-dependent by nature, so unlike
    /// the golden-stats snapshot this output is *not* byte-stable across
    /// runs — it is for dashboards and ad-hoc diffing.
    pub fn json(&self) -> String {
        use catch_core::report::json::{counters_to_json, escape};
        let benches: Vec<String> = self
            .results
            .iter()
            .map(|r| {
                let counters = vec![
                    ("iters".to_string(), r.iters as u64),
                    ("ops_per_iter".to_string(), r.ops_per_iter),
                    ("min_ns".to_string(), r.min_ns),
                    ("median_ns".to_string(), r.median_ns),
                    ("mean_ns".to_string(), r.mean_ns),
                    ("max_ns".to_string(), r.max_ns),
                    ("ops_per_sec".to_string(), r.ops_per_sec() as u64),
                ];
                format!(
                    "    {{\n      \"label\": \"{}\",\n      \"timing\": {}\n    }}",
                    escape(&r.label),
                    counters_to_json(&counters, 3),
                )
            })
            .collect();
        format!(
            "{{\n  \"harness\": \"{}\",\n  \"benches\": [\n{}\n  ]\n}}\n",
            escape(&self.name),
            benches.join(",\n"),
        )
    }

    /// Prints the table to stdout, plus the JSON summary when
    /// `CATCH_BENCH_JSON` is set.
    pub fn report(&self) {
        println!("{}", self.table());
        if std::env::var_os("CATCH_BENCH_JSON").is_some() {
            println!("{}", self.json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> BenchOptions {
        BenchOptions {
            warmup_iters: 0,
            iters: 3,
        }
    }

    #[test]
    fn unset_env_is_none_and_a_valid_value_parses() {
        assert_eq!(parse_env("X", None, str::parse::<u32>), None);
        assert_eq!(
            parse_env("X", Some(OsStr::new("7")), str::parse::<u32>),
            Some(7)
        );
    }

    #[test]
    fn malformed_env_panics_naming_the_variable() {
        for bad in ["", "80k", "-1", " 3", "abc"] {
            let err = std::panic::catch_unwind(|| {
                parse_env(
                    "CATCH_BENCH_ITERS",
                    Some(OsStr::new(bad)),
                    str::parse::<u32>,
                )
            })
            .expect_err("value must be rejected");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("CATCH_BENCH_ITERS"), "{msg}");
        }
    }

    #[test]
    fn bench_counts_iterations() {
        let mut calls = 0u32;
        let mut h = Harness::with_options(
            "t",
            BenchOptions {
                warmup_iters: 2,
                iters: 5,
            },
        );
        let r = h.bench("b", 10, || calls += 1).clone();
        assert_eq!(calls, 7, "2 warmup + 5 timed");
        assert_eq!(r.iters, 5);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.max_ns);
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
    }

    #[test]
    fn median_of_even_samples_averages() {
        let r = BenchResult::from_samples("m", 0, vec![10, 20, 40, 30]);
        assert_eq!(r.median_ns, 25);
        assert_eq!(r.min_ns, 10);
        assert_eq!(r.max_ns, 40);
        assert_eq!(r.mean_ns, 25);
    }

    #[test]
    fn throughput_derives_from_median() {
        let r = BenchResult::from_samples("t", 1_000, vec![1_000_000]);
        // 1000 ops in 1 ms = 1M ops/s.
        assert!((r.ops_per_sec() - 1e6).abs() < 1.0);
        let none = BenchResult::from_samples("n", 0, vec![1_000]);
        assert_eq!(none.ops_per_sec(), 0.0);
    }

    #[test]
    fn zero_iters_clamps_to_one() {
        let mut h = Harness::with_options(
            "t",
            BenchOptions {
                warmup_iters: 0,
                iters: 0,
            },
        );
        let r = h.bench("b", 0, || {}).clone();
        assert_eq!(r.iters, 1);
    }

    #[test]
    fn table_has_row_per_bench() {
        let mut h = Harness::with_options("grp", quick());
        h.bench("a", 100, || {});
        h.bench("b", 100, || {});
        let t = h.table();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.columns.len(), 5);
        assert!(t.title.contains("grp"));
    }

    #[test]
    fn json_lists_benches() {
        let mut h = Harness::with_options("grp", quick());
        h.bench("a", 100, || {});
        let json = h.json();
        assert!(json.contains("\"harness\": \"grp\""));
        assert!(json.contains("\"label\": \"a\""));
        assert!(json.contains("\"median_ns\""));
    }
}
