//! Trace tooling: generate, save, load, and inspect traces.
//!
//! ```sh
//! cargo run --release --example trace_tool -- gen xalanc_like out.ctrc 50000
//! cargo run --release --example trace_tool -- info out.ctrc
//! cargo run --release --example trace_tool -- dump out.ctrc 20
//! cargo run --release --example trace_tool -- run out.ctrc
//! ```

use catch_core::cli::parse_arg;
use catch_core::{System, SystemConfig};
use catch_trace::Trace;
use catch_workloads::suite;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: trace_tool gen <workload> <file> [ops] [seed]");
    eprintln!("       trace_tool info <file>");
    eprintln!("       trace_tool dump <file> [count]");
    eprintln!("       trace_tool run  <file>");
    exit(2);
}

fn load_trace(path: &str) -> Trace {
    let file = File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1);
    });
    Trace::read_from(&mut BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            let (Some(workload), Some(path)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let ops = parse_arg("ops", args.get(3).map(String::as_str), str::parse)
                .unwrap_or_else(|e| e.exit())
                .unwrap_or(50_000);
            let seed = parse_arg("seed", args.get(4).map(String::as_str), str::parse)
                .unwrap_or_else(|e| e.exit())
                .unwrap_or(42);
            let spec = suite::by_name(workload).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1);
            });
            let trace = spec.generate(ops, seed);
            let file = File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                exit(1);
            });
            let mut w = BufWriter::new(file);
            trace.write_to(&mut w).expect("write trace");
            println!("wrote {trace} to {path}");
        }
        Some("info") => {
            let Some(path) = args.get(1) else { usage() };
            let trace = load_trace(path);
            println!("{trace}");
            println!("  {}", trace.stats());
        }
        Some("dump") => {
            let Some(path) = args.get(1) else { usage() };
            let count = parse_arg("count", args.get(2).map(String::as_str), str::parse)
                .unwrap_or_else(|e| e.exit())
                .unwrap_or(32);
            let trace = load_trace(path);
            for (i, op) in trace.ops().iter().take(count).enumerate() {
                let mem = op.mem.map(|m| format!(" [{}]", m.addr)).unwrap_or_default();
                let br = op
                    .branch()
                    .map(|b| format!(" -> {} ({})", b.target, if b.taken { "T" } else { "NT" }))
                    .unwrap_or_default();
                println!("{i:6} {} {}{mem}{br}", op.pc, op.class);
            }
        }
        Some("run") => {
            let Some(path) = args.get(1) else { usage() };
            let trace = load_trace(path);
            let result = System::new(SystemConfig::baseline_exclusive()).run_st(trace);
            println!("{}: IPC {:.3}", result.workload, result.ipc());
        }
        _ => usage(),
    }
}
