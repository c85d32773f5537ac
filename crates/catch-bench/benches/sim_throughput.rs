//! Simulator-throughput tracking benchmark: simulated Mcycles/s and
//! Mops/s over the six golden workloads, written to
//! `BENCH_throughput.json` at the repo root so the perf trajectory is
//! tracked in-tree.
//!
//! Each golden workload is simulated in full detail under the CATCH
//! configuration (the hottest configuration the experiment suite runs)
//! on the first-party [`catch_harness`] harness; throughput derives
//! from the median iteration. The headline number is the geometric
//! mean of simulated cycles per wall-clock second across the six
//! workloads.
//!
//! Modes (beyond the usual `CATCH_*` scale variables):
//!
//! * default — measure and print; if `BENCH_throughput.json` exists,
//!   also print the delta against its checked-in reference.
//! * `CATCH_BLESS=1` — rewrite `BENCH_throughput.json`: the measured
//!   numbers become the new `reference`; the `pre_pr` block (the
//!   before-this-optimisation-PR baseline) is preserved verbatim when
//!   present, else seeded from this run.
//! * `CATCH_BENCH_CHECK=1` — CI regression gate: exit non-zero when
//!   the measured geomean falls more than `CATCH_BENCH_GATE_PCT`
//!   (default 15) percent below the checked-in reference. A speedup
//!   beyond the same margin prints a re-bless reminder but passes —
//!   a faster runner must not fail CI.
//! * `CATCH_BENCH_MIN_SPEEDUP=F` — speedup gate: exit non-zero unless
//!   measured geomean ÷ the `pre_pr` baseline geomean reaches `F`
//!   (e.g. `1.5` for the calendar-queue skip's acceptance floor). The
//!   comparison line prints regardless whenever a `pre_pr` block
//!   exists.
//!
//! `CATCH_NO_SKIP=1 cargo bench ...` measures the naive per-cycle loop
//! on the same scale.

use catch_bench::eval_from_env;
use catch_core::experiments::GOLDEN_WORKLOADS;
use catch_core::{System, SystemConfig};
use catch_harness::{env_var, Harness};
use catch_workloads::suite;
use std::path::{Path, PathBuf};

/// Default regression-gate width, percent below reference.
const DEFAULT_GATE_PCT: f64 = 15.0;

/// One workload's measured simulation rate.
struct Rate {
    name: &'static str,
    mcycles_per_sec: f64,
    mops_per_sec: f64,
}

fn repo_root() -> PathBuf {
    // crates/catch-bench -> crates -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("repo root exists")
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.max(1e-12).ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Renders one measurement block (`pre_pr` / `reference`) as JSON.
fn block_to_json(rates: &[Rate], indent: usize) -> String {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 2);
    let workloads: Vec<String> = rates
        .iter()
        .map(|r| {
            format!(
                "{inner}\"{}\": {{ \"mcycles_per_sec\": {:.4}, \"mops_per_sec\": {:.4} }}",
                r.name, r.mcycles_per_sec, r.mops_per_sec
            )
        })
        .collect();
    format!(
        "{{\n{pad}  \"workloads\": {{\n{}\n{pad}  }},\n\
         {pad}  \"geomean_mcycles_per_sec\": {:.4},\n\
         {pad}  \"geomean_mops_per_sec\": {:.4}\n{pad}}}",
        workloads.join(",\n"),
        geomean(rates.iter().map(|r| r.mcycles_per_sec)),
        geomean(rates.iter().map(|r| r.mops_per_sec)),
    )
}

/// Extracts the JSON object following `"key":` by brace counting.
/// The file is machine-written by this benchmark, so this stays simple.
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

fn main() {
    let eval = eval_from_env();
    let system = System::new(SystemConfig::baseline_exclusive().with_catch());
    let cycle_loop = if system.config().core.skip_ahead {
        "skip-ahead"
    } else {
        "naive per-cycle"
    };
    eprintln!(
        "[sim_throughput] six golden workloads at ops={} seed={} (full-detail, CATCH config, \
         {cycle_loop} loop)",
        eval.ops, eval.seed,
    );
    let mut harness = Harness::new("sim_throughput");
    let mut rates = Vec::new();
    for &name in GOLDEN_WORKLOADS.iter() {
        let trace = suite::by_name(name)
            .expect("golden workload exists")
            .generate(eval.ops, eval.seed);
        // Uncounted pre-run pins the simulated work for the throughput
        // denominators (the harness separately does its own warm-up).
        let pre = system.run_st(trace.clone());
        let (cycles, instructions) = (pre.core.cycles, pre.core.instructions);
        let result = harness
            .bench(name, cycles, || {
                std::hint::black_box(system.run_st(trace.clone()));
            })
            .clone();
        let secs = result.median_ns as f64 * 1e-9;
        rates.push(Rate {
            name,
            mcycles_per_sec: cycles as f64 / secs * 1e-6,
            mops_per_sec: instructions as f64 / secs * 1e-6,
        });
    }
    harness.report();
    let geo_cycles = geomean(rates.iter().map(|r| r.mcycles_per_sec));
    let geo_ops = geomean(rates.iter().map(|r| r.mops_per_sec));
    println!("sim_throughput: geomean {geo_cycles:.3} Mcycles/s, {geo_ops:.3} Mops/s");

    let path = repo_root().join("BENCH_throughput.json");
    let existing = std::fs::read_to_string(&path).ok();
    let reference_geo = existing
        .as_deref()
        .and_then(|j| extract_object(j, "reference"))
        .and_then(|obj| extract_number(&obj, "geomean_mcycles_per_sec"));

    if std::env::var_os("CATCH_BLESS").is_some() {
        let current = block_to_json(&rates, 1);
        // The pre-PR baseline survives re-blessing; only the very first
        // bless (no file yet) seeds it from the live measurement.
        let pre_pr = existing
            .as_deref()
            .and_then(|j| extract_object(j, "pre_pr"))
            .unwrap_or_else(|| current.clone());
        let pre_geo = extract_number(&pre_pr, "geomean_mcycles_per_sec").unwrap_or(geo_cycles);
        let speedup = if pre_geo > 0.0 {
            geo_cycles / pre_geo
        } else {
            1.0
        };
        let json = format!(
            "{{\n  \"bench\": \"sim_throughput\",\n  \"scale\": {{ \"ops\": {}, \"seed\": {}, \"iters\": {} }},\n  \"fidelity\": \"ooo\",\n  \"pre_pr\": {},\n  \"reference\": {},\n  \"speedup_geomean\": {:.4}\n}}\n",
            eval.ops,
            eval.seed,
            rates.first().map(|_| harness.results()[0].iters).unwrap_or(0),
            pre_pr,
            current,
            speedup,
        );
        std::fs::write(&path, json).expect("write BENCH_throughput.json");
        println!(
            "sim_throughput: blessed {} (speedup vs pre-PR baseline: {speedup:.2}x)",
            path.display()
        );
        return;
    }

    let Some(reference) = reference_geo else {
        println!(
            "sim_throughput: no checked-in reference at {} (run with CATCH_BLESS=1 to create)",
            path.display()
        );
        return;
    };
    let delta_pct = 100.0 * (geo_cycles - reference) / reference;
    println!(
        "sim_throughput: reference {reference:.3} Mcycles/s, measured {geo_cycles:.3} \
         ({delta_pct:+.1}%)"
    );
    // Comparison against the pre-optimisation baseline: the pre_pr
    // block was blessed before the calendar-queue skip landed, so this
    // ratio is that change's headline speedup.
    let pre_geo = existing
        .as_deref()
        .and_then(|j| extract_object(j, "pre_pr"))
        .and_then(|obj| extract_number(&obj, "geomean_mcycles_per_sec"));
    if let Some(pre) = pre_geo.filter(|&p| p > 0.0) {
        let speedup = geo_cycles / pre;
        println!(
            "sim_throughput: {cycle_loop} speedup vs pre-PR baseline {pre:.3} Mcycles/s: \
             {speedup:.2}x"
        );
        if let Some(min) = env_var("CATCH_BENCH_MIN_SPEEDUP", str::parse::<f64>) {
            if speedup < min {
                eprintln!(
                    "sim_throughput FAILED: speedup {speedup:.2}x under the {min}x floor \
                     (CATCH_BENCH_MIN_SPEEDUP)"
                );
                std::process::exit(1);
            }
            println!("sim_throughput: speedup gate OK (≥{min}x)");
        }
    }
    if std::env::var_os("CATCH_BENCH_CHECK").is_some() {
        let gate_pct = env_var("CATCH_BENCH_GATE_PCT", str::parse).unwrap_or(DEFAULT_GATE_PCT);
        if delta_pct < -gate_pct {
            eprintln!(
                "sim_throughput FAILED: {:.1}% below the checked-in reference \
                 (gate {gate_pct}%) — a real regression or a slower runner; \
                 investigate before re-blessing",
                -delta_pct
            );
            std::process::exit(1);
        }
        if delta_pct > gate_pct {
            println!(
                "sim_throughput: {delta_pct:+.1}% above reference — consider re-blessing \
                 BENCH_throughput.json with CATCH_BLESS=1"
            );
        }
        println!("sim_throughput OK (within {gate_pct}% of reference)");
    }
}
