//! One benchmark for the whole CATCH stack.
//!
//! ```text
//! catch-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! catch-benchmark all [--seed <n>] [--seconds <s>] [--out <dir>]
//! catch-benchmark compare <dirA> <dirB>
//! catch-benchmark manifest
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload
//! in this process, untraced (end-to-end metrics) or traced (per-layer
//! metrics), with the result as one JSON object on the last stdout line.
//! `all` runs every workload both ways, each in a child process of its
//! own (the run cache is process-global and `VmHWM` is per process).
//! See `README.md` next to this package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod host;
mod json;
mod metrics;
mod mix;
mod probes;
mod product;
mod results;
mod span;
mod stats;
mod workloads;

use json::Value;
use results::RunId;
use span::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Outcome, Run, Scale, WORKLOADS};

const USAGE: &str = "usage:
  catch-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  catch-benchmark all [--seed <n>] [--seconds <s>] [--out <dir>]
  catch-benchmark compare <dirA> <dirB>
  catch-benchmark manifest
workloads: st_detail mp_shared registry_cold registry_warm sweep_ladder serve_mix";

/// The one scale the benchmark runs ([`Scale::full`]), as the results
/// header names it.
const SCALE: &str = "full";

/// Options shared by the single-workload and `all` forms.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {v}: not a number of seconds"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Where results, traces and scratch files go: `benchmark/out` from the
/// repo root (where `BENCHMARK.json`'s command runs), `out` from inside
/// the package. Relative on purpose: the daemon's socket path must stay
/// under the 108-byte `sun_path` limit however deep the checkout lives.
fn out_dir(explicit: Option<&Path>) -> Result<PathBuf, String> {
    if let Some(dir) = explicit {
        return Ok(dir.to_path_buf());
    }
    if Path::new("benchmark/Cargo.toml").is_file() {
        Ok(PathBuf::from("benchmark/out"))
    } else if Path::new("Cargo.toml").is_file() && Path::new("src/product.rs").is_file() {
        Ok(PathBuf::from("out"))
    } else {
        Err("run from the repo root or from benchmark/, or pass --out <dir>".to_string())
    }
}

fn refuse_forbidden_env() -> Result<(), String> {
    let set: Vec<&str> = product::FORBIDDEN_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure: {} set; each silently changes what the simulator runs",
            set.join(", ")
        ))
    }
}

/// What one in-process run of one workload produced.
struct Measured {
    out: Outcome,
    metrics: results::Metrics,
    chrome_trace: Option<String>,
}

/// Runs `workload` in this process at `scale`, untraced or traced.
fn measure(
    workload: &str,
    opts: &Options,
    mut scale: Scale,
    scratch: &Path,
) -> Result<Measured, String> {
    let tracer = Tracer::new(opts.trace);
    let mut seconds = opts.seconds;
    if opts.trace {
        // The traced run also pays for the probes: one set-up, half the
        // timed phase.
        scale.setup_reps = 1;
        seconds /= 2.0;
    }
    let mut run = Run {
        seed: opts.seed,
        seconds,
        scale: &scale,
        tracer: &tracer,
        lane: tracer.lane(),
        scratch: scratch.to_path_buf(),
        out: Outcome::default(),
    };
    workloads::run(workload, &mut run)
        .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?;
    let Run { mut lane, out, .. } = run;
    if !opts.trace {
        tracer.collect(lane);
        let metrics = results::end_to_end(&out);
        return Ok(Measured {
            out,
            metrics,
            chrome_trace: None,
        });
    }
    let (probe_layer, probe_runs) = probes::run(opts.seed, &scale, scratch, &mut lane);
    tracer.collect(lane);
    let spans = tracer.finish();
    let metrics = results::per_layer(
        &out,
        &probe_layer,
        &probe_runs,
        &spans,
        span::calibrate_span_cost_ns(),
    );
    // One Chrome-trace process per workload, so that `all` can put the
    // six traces into one file without their lanes and epochs colliding.
    let pid = WORKLOADS
        .iter()
        .position(|(name, _)| *name == workload)
        .map_or(0, |i| i + 1);
    Ok(Measured {
        out,
        metrics,
        chrome_trace: Some(span::chrome_trace_json(workload, pid, &spans)),
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where the single-workload form leaves its detailed result document.
fn result_file(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "per_layer" } else { "end_to_end" };
    out_dir.join(format!("last.{workload}.{kind}.json"))
}

/// The single-workload form.
fn run_one(opts: &Options, workload: &str) -> Result<(), String> {
    refuse_forbidden_env()?;
    let out_dir = out_dir(opts.out.as_deref())?;
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    let measured = measure(workload, opts, Scale::full(), &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let measured = measured?;
    for note in &measured.out.checks.notes {
        eprintln!("check failed: {note}");
    }
    let id = RunId {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
    };
    let detail = results::detail(&id, &measured.out, &measured.metrics).to_pretty();
    write_file(&result_file(&out_dir, workload, opts.trace), &detail)?;
    if let Some(trace) = &measured.chrome_trace {
        write_file(&out_dir.join(format!("trace.{workload}.json")), trace)?;
    }
    println!("{}", results::result_line(&measured.out, &measured.metrics));
    Ok(())
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in a child process and reads its result document.
fn run_child(opts: &Options, workload: &str, trace: bool, out_dir: &Path) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let result_file = result_file(out_dir, workload, trace);
    let _ = std::fs::remove_file(&result_file);
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let text = std::fs::read_to_string(&result_file)
        .map_err(|e| format!("{}: {e}", result_file.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", result_file.display()))
}

fn print_metrics(doc: &Value) {
    let Some(metrics) = doc.get("metrics").and_then(Value::as_obj) else {
        return;
    };
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("  {name:<32} {value:>16.4} {unit}");
    }
}

fn num(doc: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The `all` form: every workload untraced then traced, each in its own
/// child process; prints every metric, writes `results-<k>.json` and
/// `trace.json`, and reports whether every check passed.
fn run_all(opts: &Options) -> Result<bool, String> {
    refuse_forbidden_env()?;
    let out_dir = out_dir(opts.out.as_deref())?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let header = Value::obj([
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("scale", Value::str(SCALE)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Value::str(tool_version("rustc", &["--version"]))),
        (
            "git_commit",
            Value::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    println!("catch-benchmark all: {}", header.to_line());
    let mut all_ok = true;
    let mut docs = Vec::new();
    let mut trace_events = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("\n== {workload}: {why}");
        let e2e = run_child(opts, workload, false, &out_dir)?;
        println!(" end to end (untraced, {} passes)", num(&e2e, &["passes"]));
        print_metrics(&e2e);
        let layer = run_child(opts, workload, true, &out_dir)?;
        println!(" per layer (traced, {} passes)", num(&layer, &["passes"]));
        print_metrics(&layer);
        let attempted = num(&e2e, &["attempted"]) + num(&layer, &["attempted"]);
        let failed = num(&e2e, &["failed"]) + num(&layer, &["failed"]);
        let fail_frac = failed / attempted.max(1.0);
        let untraced_wall = num(&e2e, &["metrics", "wall_s", "value"]);
        let traced_wall = num(&layer, &["metrics", "trace.wall_s", "value"]);
        let wall_delta_pct = (traced_wall / untraced_wall.max(1e-12) - 1.0) * 100.0;
        println!(
            "  {:<32} {fail_frac:>16.4} frac ({failed} of {attempted})",
            "fail_frac"
        );
        println!(
            "  {:<32} {wall_delta_pct:>16.4} % (traced pass against untraced pass)",
            "trace.wall_delta_pct"
        );
        let correct = |doc: &Value| doc.get("correct").and_then(Value::as_bool) == Some(true);
        all_ok &= correct(&e2e) && correct(&layer);
        let trace_file = out_dir.join(format!("trace.{workload}.json"));
        if let Ok(text) = std::fs::read_to_string(&trace_file) {
            if let Some(events) = json::parse(&text).ok().and_then(|t| {
                t.get("traceEvents")
                    .and_then(Value::as_arr)
                    .map(<[_]>::to_vec)
            }) {
                trace_events.extend(events);
            }
            let _ = std::fs::remove_file(&trace_file);
        }
        docs.push(Value::obj([
            ("workload", Value::str(workload)),
            ("fail_frac", Value::Num(fail_frac)),
            ("trace_wall_delta_pct", Value::Num(wall_delta_pct)),
            ("end_to_end", e2e),
            ("per_layer", layer),
        ]));
    }
    let results = Value::obj([
        ("header", header),
        ("correct", Value::Bool(all_ok)),
        ("workloads", Value::Arr(docs)),
    ]);
    let index = (1..)
        .find(|k| !out_dir.join(format!("results-{k}.json")).exists())
        .expect("some index is free");
    let results_file = out_dir.join(format!("results-{index}.json"));
    write_file(&results_file, &results.to_pretty())?;
    let trace = Value::obj([
        ("traceEvents", Value::Arr(trace_events)),
        ("displayTimeUnit", Value::str("ms")),
    ]);
    write_file(&out_dir.join("trace.json"), &trace.to_line())?;
    println!(
        "\nwrote {} and {}; every check passed: {all_ok}",
        results_file.display(),
        out_dir.join("trace.json").display()
    );
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::from(2);
        }
        Some("manifest") => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err(format!("compare takes two directories\n{USAGE}")),
        },
        Some("all") => parse_options(&args[1..]).and_then(|opts| run_all(&opts)),
        Some(_) => parse_options(&args).and_then(|opts| match opts.workload.clone() {
            Some(workload) => run_one(&opts, &workload).map(|()| true),
            None => Err(format!("--workload is required\n{USAGE}")),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("catch-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_contract_arguments_parse_in_any_order() {
        let o = parse_options(&args(&[
            "--trace",
            "1",
            "--seconds",
            "7",
            "--workload",
            "mp_shared",
            "--seed",
            "9",
        ]))
        .expect("parses");
        assert_eq!(o.workload.as_deref(), Some("mp_shared"));
        assert_eq!((o.seed, o.seconds, o.trace), (9, 7.0, true));
        let o = parse_options(&[]).expect("defaults");
        assert_eq!((o.seed, o.seconds, o.trace), (42, 10.0, false));
    }

    #[test]
    fn malformed_arguments_are_errors() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--scale", "tiny"],
            &["--frobnicate"],
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn forbidden_environment_is_refused_by_name() {
        // Reads the real environment: none of these may be set while
        // the benchmark (or its tests) run.
        assert!(refuse_forbidden_env().is_ok());
        assert_eq!(product::FORBIDDEN_ENV.len(), 6);
        assert!(product::FORBIDDEN_ENV.contains(&"CATCH_RUN_CACHE"));
    }

    /// The whole pipeline at the tiny scale: every workload untraced and
    /// traced, every metric present and finite, every check passing.
    #[test]
    fn whole_pipeline_at_tiny_scale() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let opts = Options {
                    workload: Some(workload.to_string()),
                    seed: 7,
                    seconds: 0.05,
                    trace,
                    out: None,
                };
                // A short relative path keeps the daemon's socket under
                // the sun_path limit wherever the checkout lives.
                let scratch = PathBuf::from(format!("out/t-{}", std::process::id()));
                let measured =
                    measure(workload, &opts, Scale::tiny(), &scratch).expect("workload runs");
                let _ = std::fs::remove_dir_all(&scratch);
                let checks = &measured.out.checks;
                assert_eq!(checks.failed, 0, "{workload}: {:?}", checks.notes);
                assert!(checks.attempted > 0, "{workload} checks something");
                assert!(measured.out.passes >= 1);
                let table: Vec<&str> = if trace {
                    metrics::PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    metrics::END_TO_END.iter().map(|m| m.0).collect()
                };
                let names: Vec<&str> = measured.metrics.iter().map(|m| m.0).collect();
                assert_eq!(names, table, "{workload} reports exactly the table");
                for (name, value) in &measured.metrics {
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    if !trace {
                        assert!(*value > 0.0, "{workload} {name} must never be 0");
                    }
                }
                assert_eq!(measured.chrome_trace.is_some(), trace);
                if let Some(text) = &measured.chrome_trace {
                    let doc = json::parse(text).expect("the Chrome trace is JSON");
                    let events = doc
                        .get("traceEvents")
                        .and_then(Value::as_arr)
                        .expect("events");
                    assert!(events.len() > 10, "{workload} recorded spans");
                }
                let line = results::result_line(&measured.out, &measured.metrics);
                let parsed = json::parse(&line).expect("result line parses");
                assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
            }
        }
    }
}
