//! The structural key walk behind every fingerprint: the run cache's
//! (`run_fingerprint`), the sweep journal's (`sweep_fingerprint`,
//! `point_fingerprint`) and the server's admission
//! (`request_fingerprint`).
//!
//! Each keyed type destructures all its fields, so a new field does not
//! compile until its walk takes it. These tests check the other half:
//! that every field the walk takes really moves the key. Each table
//! holds one perturbation per field; a table that misses a field of the
//! type (read off the field names of its `Debug` rendering, which feeds
//! no key) fails, and so does a perturbation that leaves the key where
//! it was.

use catch_cache::{HierarchyKind, Level, ReplKind};
use catch_core::experiments::{EvalConfig, Fidelity};
use catch_core::sweep::{point_fingerprint, sweep_fingerprint, Org, SweepSpec};
use catch_core::{run_fingerprint, Fingerprint, SystemConfig};
use catch_cpu::{DetectorKind, LoadOracle};
use catch_criticality::HeuristicConfig;
use catch_server::request_fingerprint;
use std::collections::BTreeSet;
use std::fmt::Debug;

const WORKLOAD: &str = "mcf_like";

/// Every leaf field path (`hierarchy.l1i.bytes`) of `value`'s `Debug`
/// rendering: the fields a perturbation table must cover.
fn leaf_fields(value: &impl Debug) -> BTreeSet<String> {
    let text = format!("{value:?}");
    let bytes = text.as_bytes();
    let mut all = BTreeSet::new();
    // The path of each open `{`, and of the last field named at the
    // current level (the owner of a `{` that follows it).
    let mut open: Vec<String> = Vec::new();
    let mut last = String::new();
    let mut at = 0;
    while at < bytes.len() {
        match bytes[at] {
            b'"' => {
                at += 1;
                while at < bytes.len() && bytes[at] != b'"' {
                    at += if bytes[at] == b'\\' { 2 } else { 1 };
                }
            }
            b'{' => open.push(std::mem::take(&mut last)),
            b'}' => {
                open.pop();
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = at;
                while at < bytes.len() && (bytes[at].is_ascii_alphanumeric() || bytes[at] == b'_') {
                    at += 1;
                }
                if text[at..].starts_with(": ") {
                    let parent = open.last().map_or("", String::as_str);
                    last = if parent.is_empty() {
                        text[start..at].to_string()
                    } else {
                        format!("{parent}.{}", &text[start..at])
                    };
                    all.insert(last.clone());
                }
                continue;
            }
            _ => {}
        }
        at += 1;
    }
    let parents: BTreeSet<String> = all
        .iter()
        .filter_map(|p| p.rsplit_once('.').map(|(parent, _)| parent.to_string()))
        .collect();
    &all - &parents
}

/// One named field perturbation of a `T`.
type Edit<T> = (&'static str, fn(&mut T));

fn edit<T>(path: &'static str, f: fn(&mut T)) -> Edit<T> {
    (path, f)
}

/// Applies every edit to a copy of `base` and checks it moves `key`
/// away from `base`'s key and from every other edit's; checks too that
/// `table` names every leaf field of `base` but `unkeyed`.
fn check_table<T: Clone + PartialEq + Debug>(
    base: &T,
    table: &[Edit<T>],
    unkeyed: &[&str],
    key: impl Fn(&T) -> Fingerprint,
) {
    let covered: BTreeSet<String> = table
        .iter()
        .map(|(path, _)| path.to_string())
        .chain(unkeyed.iter().map(|p| p.to_string()))
        .collect();
    let missing: Vec<_> = leaf_fields(base).difference(&covered).cloned().collect();
    assert!(
        missing.is_empty(),
        "fields with no perturbation in the table: {missing:?}"
    );
    let mut seen = vec![("(base)", key(base))];
    for &(path, perturb) in table {
        let mut changed = base.clone();
        perturb(&mut changed);
        assert!(changed != *base, "{path}: the perturbation changes nothing");
        let fp = key(&changed);
        if let Some((other, _)) = seen.iter().find(|(_, k)| *k == fp) {
            panic!("perturbing {path} gives the key of {other}: the field is not keyed");
        }
        seen.push((path, fp));
    }
}

/// A configuration with every optional part present, so that every
/// field of every keyed type is reachable.
fn full_config() -> SystemConfig {
    let mut config = SystemConfig::baseline_exclusive()
        .with_ring(4)
        .with_extra_latency(Level::Llc, 6);
    config.core.detector_kind = DetectorKind::Heuristic(HeuristicConfig::default());
    config.core.oracle = LoadOracle::Demote {
        level: Level::L2,
        only_noncritical: true,
    };
    config
}

fn full_eval() -> EvalConfig {
    EvalConfig::quick()
        .with_sample(4_000)
        .with_fidelity(Fidelity::Lite)
}

fn heuristic(c: &mut SystemConfig) -> &mut HeuristicConfig {
    match &mut c.core.detector_kind {
        DetectorKind::Heuristic(h) => h,
        DetectorKind::Graph => unreachable!("the full config uses the heuristic detector"),
    }
}

fn ring(c: &mut SystemConfig) -> &mut catch_cache::RingConfig {
    c.hierarchy
        .ring
        .as_mut()
        .expect("the full config has a ring")
}

fn demote(c: &mut SystemConfig, to: Level, spare_critical: bool) {
    c.core.oracle = LoadOracle::Demote {
        level: to,
        only_noncritical: spare_critical,
    };
}

macro_rules! cache_edits {
    ($level:ident) => {
        [
            edit(
                concat!("hierarchy.", stringify!($level), ".name"),
                |c: &mut SystemConfig| c.hierarchy.$level.name.push('x'),
            ),
            edit(
                concat!("hierarchy.", stringify!($level), ".bytes"),
                |c: &mut SystemConfig| c.hierarchy.$level.bytes *= 2,
            ),
            edit(
                concat!("hierarchy.", stringify!($level), ".ways"),
                |c: &mut SystemConfig| c.hierarchy.$level.ways *= 2,
            ),
            edit(
                concat!("hierarchy.", stringify!($level), ".latency"),
                |c: &mut SystemConfig| c.hierarchy.$level.latency += 1,
            ),
            edit(
                concat!("hierarchy.", stringify!($level), ".repl"),
                |c: &mut SystemConfig| c.hierarchy.$level.repl = ReplKind::Srrip,
            ),
        ]
    };
}

/// One perturbation per field of `SystemConfig` and every config type
/// below it (cache, hierarchy, ring, core, latencies, ports, TACT,
/// detector, heuristic, oracle, DRAM), plus the variant switches.
fn config_edits() -> Vec<Edit<SystemConfig>> {
    let mut table = vec![
        edit("hierarchy.kind", |c: &mut SystemConfig| {
            c.hierarchy.kind = HierarchyKind::ThreeLevelInclusive
        }),
        edit("hierarchy.cores", |c| c.hierarchy.cores += 1),
        edit("hierarchy.ring", |c| c.hierarchy.ring = None),
        edit("hierarchy.ring.hop_cycles", |c| ring(c).hop_cycles += 1),
        edit("hierarchy.ring.slices", |c| ring(c).slices += 1),
        edit("core.fetch_width", |c| c.core.fetch_width += 1),
        edit("core.alloc_width", |c| c.core.alloc_width += 1),
        edit("core.retire_width", |c| c.core.retire_width += 1),
        edit("core.rob_size", |c| c.core.rob_size += 1),
        edit("core.sched_window", |c| c.core.sched_window += 1),
        edit("core.fetch_buffer", |c| c.core.fetch_buffer += 1),
        edit("core.latencies.alu", |c| c.core.latencies.alu += 1),
        edit("core.latencies.mul", |c| c.core.latencies.mul += 1),
        edit("core.latencies.div", |c| c.core.latencies.div += 1),
        edit("core.latencies.fp_add", |c| c.core.latencies.fp_add += 1),
        edit("core.latencies.fp_mul", |c| c.core.latencies.fp_mul += 1),
        edit("core.latencies.branch", |c| c.core.latencies.branch += 1),
        edit("core.latencies.store", |c| c.core.latencies.store += 1),
        edit("core.ports.int_ports", |c| c.core.ports.int_ports += 1),
        edit("core.ports.fp_ports", |c| c.core.ports.fp_ports += 1),
        edit("core.ports.load_ports", |c| c.core.ports.load_ports += 1),
        edit("core.ports.store_ports", |c| c.core.ports.store_ports += 1),
        edit("core.mispredict_penalty", |c| {
            c.core.mispredict_penalty += 1
        }),
        edit("core.baseline_prefetchers", |c| {
            c.core.baseline_prefetchers ^= true
        }),
        edit("core.tact.data", |c| c.core.tact.data ^= true),
        edit("core.tact.code", |c| c.core.tact.code ^= true),
        edit("core.tact_config.max_targets", |c| {
            c.core.tact_config.max_targets += 1
        }),
        edit("core.tact_config.deep_max_distance", |c| {
            c.core.tact_config.deep_max_distance += 1
        }),
        edit("core.tact_config.feeder_distance", |c| {
            c.core.tact_config.feeder_distance += 1
        }),
        edit("core.tact_config.cross_instances_per_candidate", |c| {
            c.core.tact_config.cross_instances_per_candidate += 1
        }),
        edit("core.tact_config.cross_candidate_wraps", |c| {
            c.core.tact_config.cross_candidate_wraps += 1
        }),
        edit("core.tact_config.enable_cross", |c| {
            c.core.tact_config.enable_cross ^= true
        }),
        edit("core.tact_config.enable_deep", |c| {
            c.core.tact_config.enable_deep ^= true
        }),
        edit("core.tact_config.enable_feeder", |c| {
            c.core.tact_config.enable_feeder ^= true
        }),
        edit("core.tact_config.max_prefetches_per_event", |c| {
            c.core.tact_config.max_prefetches_per_event += 1
        }),
        edit("core.detector.rob_size", |c| c.core.detector.rob_size += 1),
        edit("core.detector.buffer_factor_x10", |c| {
            c.core.detector.buffer_factor_x10 += 1
        }),
        edit("core.detector.walk_factor_x10", |c| {
            c.core.detector.walk_factor_x10 += 1
        }),
        edit("core.detector.table_entries", |c| {
            c.core.detector.table_entries += 1
        }),
        edit("core.detector.table_ways", |c| {
            c.core.detector.table_ways += 1
        }),
        edit("core.detector.confidence_reset_interval", |c| {
            c.core.detector.confidence_reset_interval += 1
        }),
        edit("core.detector.quantize_shift", |c| {
            c.core.detector.quantize_shift += 1
        }),
        edit("core.detector.redirect_penalty", |c| {
            c.core.detector.redirect_penalty += 1
        }),
        edit("core.detector.rename_latency", |c| {
            c.core.detector.rename_latency += 1
        }),
        edit("core.detector.track_levels", |c| {
            c.core.detector.track_levels.push(Level::L1)
        }),
        edit("core.detector_kind", |c| {
            c.core.detector_kind = DetectorKind::Graph
        }),
        edit("core.detector_kind.shadow_window", |c| {
            heuristic(c).shadow_window += 1
        }),
        edit("core.detector_kind.dep_depth", |c| {
            heuristic(c).dep_depth += 1
        }),
        edit("core.detector_kind.latency_threshold", |c| {
            heuristic(c).latency_threshold += 1
        }),
        edit("core.oracle", |c| c.core.oracle = LoadOracle::None),
        edit("core.oracle.level", |c| demote(c, Level::Llc, true)),
        edit("core.oracle.only_noncritical", |c| {
            demote(c, Level::L2, false)
        }),
        edit("core.oracle=CriticalPrefetch", |c| {
            c.core.oracle = LoadOracle::CriticalPrefetch
        }),
        edit("core.oracle=PrefetchAll", |c| {
            c.core.oracle = LoadOracle::PrefetchAll
        }),
        edit("core.perfect_l1i", |c| c.core.perfect_l1i ^= true),
        edit("core.demoted_memory_latency", |c| {
            c.core.demoted_memory_latency += 1
        }),
        edit("core.max_outstanding_loads", |c| {
            c.core.max_outstanding_loads += 1
        }),
        edit("core.code_runahead_lines", |c| {
            c.core.code_runahead_lines += 1
        }),
        edit("core.skip_ahead", |c| c.core.skip_ahead ^= true),
        edit("dram.channels", |c| c.dram.channels += 1),
        edit("dram.ranks", |c| c.dram.ranks += 1),
        edit("dram.banks", |c| c.dram.banks += 1),
        edit("dram.row_bytes", |c| c.dram.row_bytes *= 2),
        edit("dram.t_cas", |c| c.dram.t_cas += 1),
        edit("dram.t_rcd", |c| c.dram.t_rcd += 1),
        edit("dram.t_rp", |c| c.dram.t_rp += 1),
        edit("dram.t_ras", |c| c.dram.t_ras += 1),
        edit("dram.t_burst", |c| c.dram.t_burst += 1),
        edit("dram.core_per_dram_x100", |c| {
            c.dram.core_per_dram_x100 += 1
        }),
        edit("dram.write_batch", |c| c.dram.write_batch += 1),
        edit("extra_latency", |c| c.extra_latency.push((Level::L1, 1))),
        edit("extra_latency[0].level", |c| {
            c.extra_latency[0].0 = Level::L2
        }),
        edit("extra_latency[0].cycles", |c| c.extra_latency[0].1 += 1),
    ];
    table.extend(cache_edits!(l1i));
    table.extend(cache_edits!(l1d));
    table.extend(cache_edits!(l2));
    table.extend(cache_edits!(llc));
    table
}

#[test]
fn every_config_field_moves_the_run_and_point_keys() {
    let (base, eval) = (full_config(), full_eval());
    let workloads = [WORKLOAD.to_string()];
    let table = config_edits();
    check_table(&base, &table, &["name"], |c| {
        run_fingerprint(c, &eval, WORKLOAD)
    });
    check_table(&base, &table, &["name"], |c| {
        point_fingerprint(c, &eval, &workloads)
    });
}

#[test]
fn every_eval_field_moves_every_key() {
    let table = [
        edit("ops", |e: &mut EvalConfig| e.ops += 1),
        edit("warmup", |e| e.warmup += 1),
        edit("seed", |e| e.seed += 1),
        edit("sample", |e| e.sample = None),
        edit("sample.interval", |e| e.sample = Some(4_001)),
        edit("fidelity", |e| e.fidelity = Fidelity::Ooo),
        edit("fidelity=fast", |e| e.fidelity = Fidelity::Fast),
    ];
    let (config, spec) = (full_config(), SweepSpec::quick());
    let base = full_eval();
    check_table(&base, &table, &[], |e| {
        run_fingerprint(&config, e, WORKLOAD)
    });
    check_table(&base, &table, &[], |e| {
        point_fingerprint(&config, e, &spec.workloads)
    });
    check_table(&base, &table, &[], |e| sweep_fingerprint(&spec, e));
    check_table(&base, &table, &[], |e| {
        Fingerprint(request_fingerprint("fig10", e))
    });
}

#[test]
fn every_sweep_spec_field_moves_the_sweep_key() {
    let table = [
        edit("llc_kb", |s: &mut SweepSpec| s.llc_kb.push(2048)),
        edit("orgs", |s| s.orgs.push(Org::Incl3)),
        edit("catch", |s| s.catch.reverse()),
        edit("llc_extra_latency", |s| s.llc_extra_latency.push(6)),
        edit("baseline_prefetchers", |s| {
            s.baseline_prefetchers.push(false)
        }),
        edit("chip_cores", |s| s.chip_cores += 1),
        edit("workloads", |s| s.workloads.push("tpcc_like".to_string())),
    ];
    check_table(&SweepSpec::quick(), &table, &[], |s| {
        sweep_fingerprint(s, &EvalConfig::quick())
    });
}

#[test]
fn a_changed_name_moves_no_key() {
    let eval = full_eval();
    let config = full_config();
    let renamed = config.clone().named("another label");
    let workloads = [WORKLOAD.to_string()];
    assert_eq!(
        run_fingerprint(&config, &eval, WORKLOAD),
        run_fingerprint(&renamed, &eval, WORKLOAD)
    );
    assert_eq!(
        point_fingerprint(&config, &eval, &workloads),
        point_fingerprint(&renamed, &eval, &workloads)
    );
}

#[test]
fn workload_lists_are_length_prefixed() {
    let (config, eval) = (SystemConfig::baseline_exclusive(), EvalConfig::quick());
    let key = |names: [&str; 2]| {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        point_fingerprint(&config, &eval, &names)
    };
    assert_ne!(key(["ab", "c"]), key(["a", "bc"]));
    assert_ne!(key(["ab", ""]), key(["", "ab"]));
}

#[test]
fn run_point_sweep_and_request_keys_of_the_same_inputs_differ() {
    let (config, eval) = (SystemConfig::baseline_exclusive(), EvalConfig::quick());
    let spec = SweepSpec::quick();
    let keys = [
        run_fingerprint(&config, &eval, WORKLOAD),
        point_fingerprint(&config, &eval, &[WORKLOAD.to_string()]),
        sweep_fingerprint(&spec, &eval),
        Fingerprint(request_fingerprint(WORKLOAD, &eval)),
    ];
    let distinct: BTreeSet<_> = keys.iter().collect();
    assert_eq!(distinct.len(), keys.len(), "{keys:?}");
}

#[test]
fn leaf_fields_reads_nested_and_optional_structs() {
    #[allow(dead_code)] // read through `Debug` only
    #[derive(Debug)]
    struct Inner {
        a: u8,
        b: &'static str,
    }
    #[allow(dead_code)]
    #[derive(Debug)]
    struct Outer {
        inner: Option<Inner>,
        list: Vec<(u8, u8)>,
        name: &'static str,
    }
    let value = Outer {
        inner: Some(Inner { a: 1, b: "x: {y}" }),
        list: vec![(1, 2)],
        name: "n",
    };
    let want: BTreeSet<String> = ["inner.a", "inner.b", "list", "name"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(leaf_fields(&value), want);
}
