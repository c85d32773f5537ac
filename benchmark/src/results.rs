//! Turns one run's [`Outcome`] (and, traced, its spans and probe
//! numbers) into the metrics `BENCHMARK.json` names, the contract's
//! result line and a detailed result document (`std` only).

use crate::json::Value;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::product::RunOut;
use crate::span::{self, Span};
use crate::stats::{self, Summary};
use crate::workloads::Outcome;
use std::collections::BTreeMap;

/// Metric values by name, in table order.
pub type Metrics = Vec<(&'static str, f64)>;

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome) -> Metrics {
    let value = |name: &str| match name {
        "setup_s" => stats::median(&out.setup_s),
        "wall_s" => out.wall_s(),
        "op_p50_ms" => out.op_p50_ms(),
        "peak_rss_mb" => peak_rss_mb(),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END.iter().map(|m| (m.0, value(m.0))).collect()
}

/// Folds per-run digests into one 48-bit value (exact in a JSON number).
fn fold_digests(runs: &[RunOut]) -> u64 {
    let folded = runs.iter().fold(0u64, |h, r| {
        (h.rotate_left(5) ^ r.digest).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    folded >> 16
}

/// The per-layer metrics of a traced run: probe numbers, what only the
/// workload saw, the exact simulated counts over every direct simulator
/// run (workload's first pass, then the probes'), and the span figures.
pub fn per_layer(
    out: &Outcome,
    probe_layer: &BTreeMap<&'static str, f64>,
    probe_runs: &[RunOut],
    spans: &[Span],
    span_cost_ns: f64,
) -> Metrics {
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.extend(probe_layer.iter().map(|(k, v)| (*k, *v)));
    values.extend(out.layer.iter().map(|(k, v)| (*k, *v)));

    let runs: Vec<RunOut> = out.runs.iter().chain(probe_runs).copied().collect();
    values.insert(
        "cpu.sim_cycles",
        runs.iter().map(|r| r.cycles).sum::<u64>() as f64,
    );
    values.insert(
        "cpu.sim_instructions",
        runs.iter().map(|r| r.instructions).sum::<u64>() as f64,
    );
    let ipcs: Vec<f64> = runs.iter().map(RunOut::ipc).collect();
    values.insert("cpu.ipc_geomean", stats::geomean(&ipcs));
    values.insert("cpu.stats_digest", fold_digests(&runs) as f64);
    let wall = out.wall_s();
    let own_uops: u64 = out.runs.iter().map(|r| r.instructions).sum();
    values.insert("cpu.sim_mops_per_s", own_uops as f64 / 1e6 / wall.max(1e-9));

    values.insert("trace.wall_s", wall);
    values.insert("host.kernel_ns", stats::median(&out.host_kernel_ns));
    values.insert("trace.spans", spans.len() as f64);
    let traced_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    values.insert(
        "trace.overhead_pct",
        100.0 * spans.len() as f64 * span_cost_ns / (traced_ns.max(1) as f64),
    );
    let own = span::self_time_by_name(spans);
    for (key, _, _) in PER_LAYER {
        if let Some(span_name) = key.strip_prefix("self_ms.") {
            let ns = own.get(span_name).copied().unwrap_or(0);
            values.insert(key, ns as f64 / 1e6);
        }
    }

    // Table order; a layer nobody touched in this workload reads 0.
    PER_LAYER
        .iter()
        .map(|m| (m.0, values.get(m.0).copied().unwrap_or(0.0)))
        .collect()
}

fn metrics_value(metrics: &Metrics) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = metrics::unit_of(name).expect("metric names come from the tables");
                (
                    name.to_string(),
                    Value::obj([("value", Value::Num(*value)), ("unit", Value::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The contract's result object (printed as the last stdout line).
pub fn result_line(out: &Outcome, metrics: &Metrics) -> String {
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    Value::obj([
        ("correct", Value::Bool(out.checks.failed == 0 && finite)),
        ("attempted", Value::Num(out.checks.attempted.max(1) as f64)),
        ("failed", Value::Num(out.checks.failed as f64)),
        ("metrics", metrics_value(metrics)),
    ])
    .to_line()
}

fn summary_value(s: Summary, unit: &str) -> Value {
    Value::obj([
        ("n", Value::Num(s.n as f64)),
        ("q1", Value::Num(s.q1)),
        ("median", Value::Num(s.median)),
        ("q3", Value::Num(s.q3)),
        ("unit", Value::str(unit)),
    ])
}

/// Identity of one run, recorded with its results.
pub struct RunId<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Whether this was the traced run.
    pub traced: bool,
}

/// The detailed result document: the result line's content plus every
/// timing as median, quartiles and sample count, and what failed.
pub fn detail(id: &RunId<'_>, out: &Outcome, metrics: &Metrics) -> Value {
    let ms = |samples: &[f64]| -> Vec<f64> { samples.iter().map(|s| s * 1e3).collect() };
    let mut timings = vec![(
        "setup_s".to_string(),
        summary_value(stats::summarize(&out.setup_s), "s"),
    )];
    // `serve_mix`'s operations are its clients' requests; everywhere
    // else they are the slots marked `repeated_op` below.
    for (kind, ms) in &out.ops {
        timings.push((
            format!("op:{kind}"),
            summary_value(stats::summarize(ms), "ms"),
        ));
    }
    // The tail a caller of the operation sees, over all kinds together.
    let pooled: Vec<f64> = out
        .op_kinds()
        .iter()
        .flat_map(|(_, ms)| ms.iter().copied())
        .collect();
    if let Some(p) = stats::highest_supported_percentile(pooled.len()) {
        timings.push((
            "op_tail".to_string(),
            Value::obj([
                ("n", Value::Num(pooled.len() as f64)),
                ("percentile", Value::Num(p)),
                ("value", Value::Num(stats::percentile(&pooled, p))),
                ("unit", Value::str("ms")),
            ]),
        ));
    }
    for slot in &out.slots {
        let mut summary = summary_value(stats::summarize(&ms(&slot.samples)), "ms");
        if let Value::Obj(members) = &mut summary {
            members.push(("repeated_op".to_string(), Value::Bool(slot.primary)));
        }
        timings.push((format!("slot:{}", slot.name), summary));
    }
    Value::obj([
        ("workload", Value::str(id.workload)),
        ("seed", Value::Num(id.seed as f64)),
        ("seconds", Value::Num(id.seconds)),
        ("traced", Value::Bool(id.traced)),
        ("correct", Value::Bool(out.checks.failed == 0)),
        ("attempted", Value::Num(out.checks.attempted as f64)),
        ("failed", Value::Num(out.checks.failed as f64)),
        (
            "fail_frac",
            Value::Num(out.checks.failed as f64 / out.checks.attempted.max(1) as f64),
        ),
        (
            "notes",
            Value::Arr(out.checks.notes.iter().map(Value::str).collect()),
        ),
        ("passes", Value::Num(out.passes as f64)),
        (
            "host_kernel_ns",
            Value::Arr(
                out.host_kernel_ns
                    .iter()
                    .map(|ns| Value::Num(*ns))
                    .collect(),
            ),
        ),
        ("metrics", metrics_value(metrics)),
        ("timings", Value::Obj(timings)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::{Checks, Slot};

    fn outcome() -> Outcome {
        Outcome {
            setup_s: vec![0.5, 0.7, 0.6],
            slots: vec![Slot {
                name: "a".into(),
                primary: true,
                samples: vec![1.0, 3.0, 2.0],
            }],
            checks: Checks {
                attempted: 5,
                failed: 0,
                notes: vec![],
            },
            ..Outcome::default()
        }
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let out = outcome();
        let metrics = end_to_end(&out);
        let line = result_line(&out, &metrics);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(5.0));
        let m = v.get("metrics").and_then(Value::as_obj).expect("metrics");
        assert_eq!(m.len(), END_TO_END.len());
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(2.0));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.6));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut out = outcome();
        out.checks.expect(false, || "broken".to_string());
        let line = result_line(&out, &end_to_end(&out));
        let v = json::parse(&line).expect("JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let id = RunId {
            workload: "st_detail",
            seed: 42,
            seconds: 10.0,
            traced: false,
        };
        let doc = detail(&id, &out, &end_to_end(&out));
        let back = json::parse(&doc.to_pretty()).expect("the detail document is JSON");
        assert_eq!(back, doc, "writer and parser agree");
        let notes = doc.get("notes").and_then(Value::as_arr).expect("notes");
        assert_eq!(notes[0].as_str(), Some("broken"));
        let slot = doc
            .get("timings")
            .and_then(|t| t.get("slot:a"))
            .expect("slot");
        assert_eq!(slot.get("median").and_then(Value::as_f64), Some(2000.0));
        assert_eq!(slot.get("n").and_then(Value::as_f64), Some(3.0));
    }

    #[test]
    fn per_layer_reports_every_table_name_and_exact_counts() {
        let mut out = outcome();
        let a = RunOut {
            instructions: 300,
            cycles: 100,
            digest: 7,
            ..RunOut::default()
        };
        let b = RunOut {
            instructions: 100,
            cycles: 100,
            digest: 9,
            ..RunOut::default()
        };
        out.runs = vec![a];
        out.layer.insert("runcache.hits", 12.0);
        let probe: BTreeMap<&'static str, f64> = [("dram.read_ns", 33.0)].into();
        let layer = per_layer(&out, &probe, &[b], &[], 50.0);
        assert_eq!(layer.len(), PER_LAYER.len());
        let get = |n: &str| layer.iter().find(|(k, _)| *k == n).expect("in table").1;
        assert_eq!(get("cpu.sim_cycles"), 200.0);
        assert_eq!(get("cpu.sim_instructions"), 400.0);
        assert!((get("cpu.ipc_geomean") - 3f64.sqrt()).abs() < 1e-12);
        assert_eq!(get("cpu.stats_digest"), fold_digests(&[a, b]) as f64);
        assert_ne!(
            fold_digests(&[a, b]),
            fold_digests(&[b, a]),
            "order matters"
        );
        assert!(fold_digests(&[a, b]) < 1 << 48);
        assert_eq!(get("runcache.hits"), 12.0);
        assert_eq!(get("dram.read_ns"), 33.0);
        assert_eq!(get("server.admitted"), 0.0);
        // Only the workload's own run (300 uops) over its 2 s pass.
        assert_eq!(get("cpu.sim_mops_per_s"), 300.0 / 1e6 / 2.0);
        assert_eq!(get("trace.wall_s"), 2.0);
    }
}
