//! The benchmark's metric tables (`std` only): the one place a name,
//! its unit, its direction and its bound are written down.
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`catch-benchmark manifest`) and a unit test keeps the two equal.

use crate::json::Value;
use crate::workloads::WORKLOADS;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 10;

/// An end-to-end metric: `(name, unit, direction, bound)`. The bound is
/// the share of the parent's median by which the metric may get worse
/// before a change counts as a regression. Every workload reports every
/// one of them, and a metric has one bound for all six workloads (the
/// driver's contract; README, "What the contract fixes").
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    // All timings are host time as the clock read it. Their bounds are
    // the contract's ceiling because the noisiest workload sets them:
    // over ten seeds on the shared sandbox, `wall_s` spread 1.9 % on
    // `st_detail` and 9.4 % on `mp_shared` in the same quarter of an
    // hour, and 15.6 % on `sweep_ladder` an afternoon earlier (README,
    // "Reference numbers"). Issue 11 asked for 8 to 15 %.
    //
    // Host seconds before the timed phase: trace generation and one
    // untimed pass, cache population, daemon bind and pre-warm (median
    // over repeats).
    ("setup_s", "s", Lower, 0.25),
    // Host seconds per timed pass (sum of per-slot medians).
    ("wall_s", "s", Lower, 0.25),
    // Host ms of the small operation a caller repeats: one detailed run,
    // one run_mp, one report out of a filled registry, one replay of a
    // finished sweep, one cached request (median over the kinds of
    // operation of each kind's median).
    ("op_p50_ms", "ms", Lower, 0.25),
    // VmHWM of the workload's process: over ten seeds it spread up to
    // 4.9 % (`registry_warm` reads 61 or 65 MB), a third of this bound.
    // Issue 11 asked for 10 %.
    ("peak_rss_mb", "MB", Lower, 0.15),
];

/// A per-layer metric: `(name, unit, direction)`. All come from the
/// traced run; none has a bound. For the exact simulated counts the
/// direction is nominal: a simulator-only change must leave them equal.
pub const PER_LAYER: [(&str, &str, Better); 92] = [
    // Host ns per step of a fixed kernel around the run (a diagnostic:
    // a reading above this host's quiet 8.4 says the host was busy),
    // and the traced run itself.
    ("host.kernel_ns", "ns", Lower),
    ("trace.wall_s", "s", Lower),
    ("trace.spans", "count", Lower),
    ("trace.overhead_pct", "%", Lower),
    // Self time of the spans around each layer call, whole traced run.
    ("self_ms.setup", "ms", Lower),
    ("self_ms.pass", "ms", Lower),
    ("self_ms.workloads.generate", "ms", Lower),
    ("self_ms.trace.clone", "ms", Lower),
    ("self_ms.system.run_st_warm", "ms", Lower),
    ("self_ms.system.run_mp", "ms", Lower),
    ("self_ms.experiments.run_all", "ms", Lower),
    ("self_ms.experiments.run", "ms", Lower),
    ("self_ms.experiments.reassemble", "ms", Lower),
    ("self_ms.sweep.run_sweep", "ms", Lower),
    ("self_ms.server.bind", "ms", Lower),
    ("self_ms.server.drain", "ms", Lower),
    ("self_ms.client.run", "ms", Lower),
    ("self_ms.client.ping", "ms", Lower),
    ("self_ms.client.stats", "ms", Lower),
    // Probes, one batch per layer.
    ("workloads.gen_mops_per_s", "Mops/s", Higher),
    ("trace.clone_ms", "ms", Lower),
    ("cpu.ooo_mops_per_s", "Mops/s", Higher),
    ("cpu.lite_mops_per_s", "Mops/s", Higher),
    ("cpu.fast_mops_per_s", "Mops/s", Higher),
    ("cpu.ooo_fixedmem_mops_per_s", "Mops/s", Higher),
    ("cpu.host_ns_per_cycle", "ns", Lower),
    ("cpu.lite_ipc_err_max_pct", "%", Lower),
    ("cpu.sim_mops_per_s", "Mops/s", Higher),
    ("cpu.sim_cycles", "count", Lower),
    ("cpu.sim_instructions", "count", Higher),
    ("cpu.ipc_geomean", "ipc", Higher),
    ("cpu.stats_digest", "hash", Lower),
    ("cache.excl_access_ns", "ns", Lower),
    ("cache.incl_access_ns", "ns", Lower),
    ("cache.nol2_access_ns", "ns", Lower),
    ("cache.mp_access_ns", "ns", Lower),
    ("cache.l1d_hit_frac", "frac", Higher),
    ("cache.l2_mpki", "mpki", Lower),
    ("cache.llc_mpki", "mpki", Lower),
    ("cache.back_invalidates", "count", Lower),
    ("cache.dram_reads", "count", Lower),
    ("dram.read_ns", "ns", Lower),
    ("dram.write_ns", "ns", Lower),
    ("dram.row_hit_frac", "frac", Higher),
    ("dram.avg_read_latency_cyc", "cycles", Lower),
    ("criticality.retire_ns", "ns", Lower),
    ("criticality.walks", "count", Lower),
    ("criticality.walk_steps", "count", Lower),
    ("criticality.critical_pcs", "count", Higher),
    ("prefetch.catch_share", "frac", Lower),
    ("prefetch.tact_issued", "count", Higher),
    ("prefetch.used_frac", "frac", Higher),
    ("prefetch.timely_frac", "frac", Higher),
    ("timeq.wheel_ns", "ns", Lower),
    ("timeq.overflow_ns", "ns", Lower),
    ("timeq.hibitset_scan_ns", "ns", Lower),
    ("sample.plan_ms", "ms", Lower),
    ("sample.speedup", "x", Higher),
    ("sample.ipc_err_pct", "%", Lower),
    ("obs.on_overhead_pct", "%", Lower),
    ("runcache.fingerprint_ns", "ns", Lower),
    ("runcache.mem_hit_us", "us", Lower),
    ("runcache.disk_load_us", "us", Lower),
    ("runcache.disk_store_us", "us", Lower),
    ("experiments.assemble_ms", "ms", Lower),
    ("report.render_us", "us", Lower),
    ("runner.parallel_eff", "frac", Higher),
    ("sweep.expand_ms", "ms", Lower),
    ("sweep.quick_ladder_speedup", "x", Higher),
    ("server.ping_rtt_us", "us", Lower),
    ("server.stats_rtt_us", "us", Lower),
    ("server.codec_ns", "ns", Lower),
    // Seen only by the workload that exercises the layer; 0 elsewhere.
    ("runcache.hits", "count", Higher),
    ("runcache.misses", "count", Lower),
    ("runcache.disk_loaded", "count", Higher),
    ("runcache.bytes_read", "B", Lower),
    ("runcache.dedupe_frac", "frac", Higher),
    ("sweep.ooo_runs", "count", Lower),
    ("sweep.journal_replay_ms", "ms", Lower),
    ("sweep.journal_bytes", "B", Lower),
    ("server.req_per_s", "1/s", Higher),
    ("server.hit_p50_ms", "ms", Lower),
    ("server.hit_p90_ms", "ms", Lower),
    ("server.hit_p99_ms", "ms", Lower),
    ("server.miss_p50_ms", "ms", Lower),
    ("server.miss_p90_ms", "ms", Lower),
    ("server.miss_max_ms", "ms", Lower),
    ("server.drain_ms", "ms", Lower),
    ("server.admitted", "count", Higher),
    ("server.coalesced", "count", Higher),
    ("server.rejected", "count", Lower),
    ("server.completed", "count", Higher),
];

/// Exact simulated counts: `compare` demands they be equal between any
/// two runs of the same seed, traced or not.
pub const EXACT: [&str; 4] = [
    "cpu.sim_cycles",
    "cpu.sim_instructions",
    "cpu.ipc_geomean",
    "cpu.stats_digest",
];

/// Unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let text = |s: &str| Value::str(s);
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Value::Arr(vec![text("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| Value::obj([("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|(name, unit, better, bound)| {
                        Value::obj([
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better.word())),
                            ("bound", Value::Num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        Value::obj([
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(WORKLOADS.iter().map(|w| (w.0, "count")))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(names.insert(name), "{name} is used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        for (name, _, better, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
            if name == "setup_s" {
                assert_eq!(better, Lower);
                let widest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
                assert_eq!(bound, widest, "setup_s carries the largest bound");
            }
        }
        assert!(EXACT.iter().all(|n| unit_of(n).is_some()));
        assert_eq!(unit_of("wall_s"), Some("s"));
        assert_eq!(unit_of("nope"), None);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(on_disk.len() <= 64 * 1024);
        let parsed = crate::json::parse(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
