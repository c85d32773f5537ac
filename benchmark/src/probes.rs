//! Per-layer probes of the traced run: each batch times one layer from
//! the benchmark's side of its public functions, at a scale small
//! enough to repeat in every traced run. Uses `std` and
//! [`crate::product`] only.
//!
//! Next to each batch: the end-to-end metric the layer should move and
//! on which workload (the README carries the same map as a table).

use crate::product::{self, Grid, Machine, Org, RunOut, Rung, TraceBox};
use crate::span::Lane;
use crate::stats;
use crate::workloads::Scale;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Layer numbers by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// Median host µs of `n` calls.
fn median_us(n: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| secs(&mut call).1 * 1e6).collect();
    stats::median(&samples)
}

/// Micro-ops per host second, in millions.
fn mops(uops: usize, s: f64) -> f64 {
    uops as f64 / 1e6 / s.max(1e-9)
}

/// Runs every probe; returns the layer numbers and the OOO runs whose
/// exact counts the caller folds into `cpu.stats_digest`.
pub fn run(seed: u64, scale: &Scale, scratch: &Path, lane: &mut Lane) -> (Layer, Vec<RunOut>) {
    let mut layer = Layer::new();
    let ops = scale.probe_ops;

    // workloads / trace -> setup_s on st_detail; wall_s on registry_*
    // (28 generations inside run_all); a miss on serve_mix.
    let open = lane.begin("probe.workloads");
    let (traces, s) = secs(|| {
        product::GOLDEN
            .iter()
            .map(|name| product::generate(name, ops, seed))
            .collect::<Vec<TraceBox>>()
    });
    let uops: usize = traces.iter().map(TraceBox::len).sum();
    layer.insert("workloads.gen_mops_per_s", mops(uops, s));
    let (copies, s) = secs(|| traces.iter().map(TraceBox::duplicate).collect::<Vec<_>>());
    drop(copies);
    layer.insert("trace.clone_ms", s * 1e3);
    lane.end(open);

    // cpu -> ooo: wall_s on st_detail, mp_shared, registry_cold;
    // lite: sweep_ladder; fast: registry_warm (sampling study).
    let open = lane.begin("probe.cpu");
    let golden = |rung: Rung, machine: Machine| -> (Vec<RunOut>, f64) {
        let mut s = 0.0;
        let runs = traces
            .iter()
            .map(|t| {
                let copy = t.duplicate();
                let (out, dt) = secs(|| product::run_st(machine, rung, copy, 0));
                s += dt;
                out
            })
            .collect();
        (runs, s)
    };
    let (_, fast_s) = golden(Rung::Fast, Machine::ExclCatch);
    let (_, lite_s) = golden(Rung::Lite, Machine::ExclCatch);
    let (ooo, ooo_s) = golden(Rung::Ooo, Machine::ExclCatch);
    layer.insert("cpu.fast_mops_per_s", mops(uops, fast_s));
    layer.insert("cpu.lite_mops_per_s", mops(uops, lite_s));
    layer.insert("cpu.ooo_mops_per_s", mops(uops, ooo_s));
    let cycles: u64 = ooo.iter().map(|r| r.cycles).sum();
    layer.insert("cpu.host_ns_per_cycle", ooo_s * 1e9 / cycles.max(1) as f64);
    let mut fixed_s = 0.0;
    for t in &traces {
        let copy = t.duplicate();
        fixed_s += secs(|| product::run_st_fixed_memory(Machine::ExclCatch, copy, 200)).1;
    }
    layer.insert("cpu.ooo_fixedmem_mops_per_s", mops(uops, fixed_s));
    let (acc_ops, acc_warmup) = scale.accuracy;
    product::cache_reset(None);
    layer.insert(
        "cpu.lite_ipc_err_max_pct",
        product::lite_ipc_err_max_pct(acc_ops, acc_warmup, seed),
    );
    lane.end(open);

    // prefetch -> wall_s on st_detail: the host-time share of detector
    // + TACT, by difference against the plain exclusive baseline.
    let open = lane.begin("probe.prefetch");
    let (_, plain_s) = golden(Rung::Ooo, Machine::Excl);
    layer.insert("prefetch.catch_share", 1.0 - plain_s / ooo_s.max(1e-9));
    let total = |f: fn(&RunOut) -> u64| ooo.iter().map(f).sum::<u64>() as f64;
    let (issued, used) = (total(|r| r.tact_issued), total(|r| r.tact_used));
    layer.insert("prefetch.tact_issued", issued);
    layer.insert("prefetch.used_frac", used / issued.max(1.0));
    layer.insert(
        "prefetch.timely_frac",
        total(|r| r.tact_timely) / used.max(1.0),
    );
    lane.end(open);

    // cache -> wall_s on st_detail, mp_shared, registry_cold; none on
    // registry_warm.
    let open = lane.begin("probe.cache");
    let stream = product::demand_stream(&traces);
    let excl = product::replay_cache(Org::Excl, &stream);
    layer.insert("cache.excl_access_ns", excl.access_ns);
    layer.insert("cache.l1d_hit_frac", excl.l1d_hit_frac);
    let kilo_uops = uops as f64 / 1e3;
    layer.insert("cache.l2_mpki", excl.l2_misses as f64 / kilo_uops);
    layer.insert("cache.llc_mpki", excl.llc_misses as f64 / kilo_uops);
    layer.insert("cache.dram_reads", excl.dram_reads as f64);
    let incl = product::replay_cache(Org::Incl, &stream);
    layer.insert("cache.incl_access_ns", incl.access_ns);
    layer.insert(
        "cache.nol2_access_ns",
        product::replay_cache(Org::NoL2, &stream).access_ns,
    );
    drop(stream);
    let mp = product::replay_cache(Org::Mp, &product::demand_stream_mp(&traces));
    layer.insert("cache.mp_access_ns", mp.access_ns);
    layer.insert(
        "cache.back_invalidates",
        (incl.back_invalidates + mp.back_invalidates) as f64,
    );
    lane.end(open);

    // dram -> wall_s on st_detail, mp_shared.
    let open = lane.begin("probe.dram");
    let dram = product::replay_dram(&excl.memory, 8);
    layer.insert("dram.read_ns", dram.read_ns);
    layer.insert("dram.write_ns", dram.write_ns);
    layer.insert("dram.row_hit_frac", dram.row_hit_frac);
    layer.insert("dram.avg_read_latency_cyc", dram.avg_read_latency_cyc);
    lane.end(open);

    // criticality -> wall_s on st_detail.
    let open = lane.begin("probe.criticality");
    let crit = product::criticality_probe(&product::retire_stream(&traces[0]));
    layer.insert("criticality.retire_ns", crit.retire_ns);
    layer.insert("criticality.walks", crit.walks as f64);
    layer.insert("criticality.walk_steps", crit.walk_steps as f64);
    layer.insert("criticality.critical_pcs", crit.critical_pcs as f64);
    lane.end(open);

    // timeq -> wall_s on st_detail, sweep_ladder.
    let open = lane.begin("probe.timeq");
    let timeq = product::timeq_probe(seed, ops);
    layer.insert("timeq.wheel_ns", timeq.wheel_ns);
    layer.insert("timeq.overflow_ns", timeq.overflow_ns);
    layer.insert("timeq.hibitset_scan_ns", timeq.hibitset_scan_ns);
    lane.end(open);

    // sample -> wall_s on registry_warm (the sampling study).
    let open = lane.begin("probe.sample");
    let sample = product::sample_probe(Machine::ExclCatch, &traces[0], (ops / 20).max(500));
    layer.insert("sample.plan_ms", sample.plan_ms);
    layer.insert("sample.speedup", sample.speedup);
    layer.insert("sample.ipc_err_pct", sample.ipc_err_pct);
    lane.end(open);

    // obs -> nothing with observability off; this is the budget
    // ROADMAP item 5 spends.
    let open = lane.begin("probe.obs");
    let mut plain = Vec::new();
    let mut counted = Vec::new();
    for _ in 0..3 {
        let copy = traces[0].duplicate();
        plain.push(secs(|| product::run_st(Machine::ExclCatch, Rung::Ooo, copy, 0)).1);
        let copy = traces[0].duplicate();
        counted.push(secs(|| product::run_st_counting(Machine::ExclCatch, copy)).1);
    }
    layer.insert(
        "obs.on_overhead_pct",
        (stats::median(&counted) / stats::median(&plain).max(1e-9) - 1.0) * 100.0,
    );
    lane.end(open);

    // runcache -> wall_s on registry_warm; op_p50_ms on serve_mix;
    // almost nothing on st_detail.
    let open = lane.begin("probe.runcache");
    let dir = scratch.join("probe-runcache");
    let _ = std::fs::remove_dir_all(&dir);
    let small = product::generate(product::GOLDEN[0], scale.probe_registry.0, seed);
    let rc = product::runcache_probe(&dir, &small, seed);
    let _ = std::fs::remove_dir_all(&dir);
    layer.insert("runcache.fingerprint_ns", rc.fingerprint_ns);
    layer.insert("runcache.mem_hit_us", rc.mem_hit_us);
    layer.insert("runcache.disk_store_us", rc.disk_store_us);
    layer.insert("runcache.disk_load_us", rc.disk_load_us);
    lane.end(open);

    // experiments / report / runner -> op_p50_ms on serve_mix; wall_s
    // on registry_warm and registry_cold.
    let open = lane.begin("probe.experiments");
    let (r_ops, r_warmup) = scale.probe_registry;
    product::cache_reset(None);
    product::run_registry(&crate::mix::IDS, r_ops, r_warmup, seed, scale.jobs);
    let mut assemble_ms = Vec::new();
    let mut render_us = Vec::new();
    let mut rendered = String::new();
    for id in crate::mix::IDS {
        let (report, s) = secs(|| {
            lane.span("experiments.run", || {
                product::run_experiment(id, r_ops, r_warmup, seed)
            })
        });
        assemble_ms.push(s * 1e3);
        let (text, s) = secs(|| report.render());
        render_us.push(s * 1e6);
        rendered = text;
    }
    layer.insert("experiments.assemble_ms", stats::median(&assemble_ms));
    layer.insert("report.render_us", stats::median(&render_us));
    let suite_ops = (ops / 10).max(1_000);
    product::cache_reset(None);
    let (_, serial_s) = secs(|| product::run_suite(suite_ops, 0, seed, 1));
    product::cache_reset(None);
    let (_, parallel_s) = secs(|| product::run_suite(suite_ops, 0, seed, 2));
    layer.insert(
        "runner.parallel_eff",
        serial_s / (2.0 * parallel_s).max(1e-9),
    );
    lane.end(open);

    // sweep -> wall_s on sweep_ladder.
    let open = lane.begin("probe.sweep");
    let (points, s) = secs(|| product::sweep_expand(Grid::Paper));
    std::hint::black_box(points);
    layer.insert("sweep.expand_ms", s * 1e3);
    let (q_ops, q_warmup) = scale.quick;
    let quick = |rung: Rung| {
        product::cache_reset(None);
        secs(|| product::run_sweep(Grid::Quick, q_ops, q_warmup, seed, rung, scale.jobs, None)).1
    };
    let (all_ooo_s, ladder_s) = (quick(Rung::Ooo), quick(Rung::Lite));
    layer.insert("sweep.quick_ladder_speedup", all_ooo_s / ladder_s.max(1e-9));
    product::cache_reset(None);
    lane.end(open);

    // server -> op_p50_ms and wall_s on serve_mix only.
    let open = lane.begin("probe.server");
    std::fs::create_dir_all(scratch).expect("create the benchmark's scratch directory");
    let sock = scratch.join("probe.sock");
    let daemon = product::Daemon::bind(&sock, 1).expect("bind the probe daemon's socket");
    let mut conn = product::Conn::connect(&sock, "probe").expect("connect to the probe daemon");
    let ping = median_us(300, || conn.ping().expect("probe ping"));
    layer.insert("server.ping_rtt_us", ping);
    let stat = median_us(100, || {
        conn.stats().expect("probe stats");
    });
    layer.insert("server.stats_rtt_us", stat);
    drop(conn);
    daemon.stop().expect("the probe daemon drains");
    let reps = 200;
    let (bytes, s) = secs(|| {
        (0..reps)
            .map(|_| product::codec_round_trip(&rendered))
            .sum::<usize>()
    });
    std::hint::black_box(bytes);
    layer.insert("server.codec_ns", s * 1e9 / reps as f64);
    lane.end(open);

    (layer, ooo)
}
