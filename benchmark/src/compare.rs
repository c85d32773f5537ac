//! `compare <dirA> <dirB>`: two sets of `all` runs side by side
//! (`std` only). Per (workload, end-to-end metric): medians, quartiles
//! and one of within-bound / worse / unresolved, where unresolved means
//! the run-to-run spread is wider than the metric's bound. The exact
//! simulated counts must be equal across every run of both sets. Each
//! workload's host-kernel readings are printed beside its verdicts, so a
//! reader can tell a slow host from slow code; they decide nothing.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, EXACT};
use crate::stats::{self, Summary};
use crate::workloads::WORKLOADS;
use std::path::Path;

/// Verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's quartile distance exceeds the bound, and B does not beat
    /// A on every run: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Judges set `b` against set `a` for a metric with the given direction
/// and bound.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Summary, Summary, Verdict) {
    let (sa, sb) = (stats::summarize(a), stats::summarize(b));
    let worse_by = match better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (sa.median - sb.median) / sa.median.abs().max(f64::MIN_POSITIVE),
    };
    let b_always_better = !a.is_empty()
        && !b.is_empty()
        && a.iter().all(|x| {
            b.iter().all(|y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
    let verdict = if b_always_better {
        Verdict::WithinBound
    } else if sa.spread().max(sb.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    (sa, sb, verdict)
}

/// One `results-*.json` document of an `all` run.
fn load_set(dir: &Path) -> Result<Vec<Value>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("results-") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!(
            "{}: no results-*.json (run `all --out` there)",
            dir.display()
        ));
    }
    files
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

/// Values of metric `name` for `workload` in `section` (`end_to_end` or
/// `per_layer`) over every document of a set.
fn values(set: &[Value], workload: &str, section: &str, name: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .as_arr()?
                .iter()
                .find(|w| w.get("workload").and_then(Value::as_str) == Some(workload))?
                .get(section)?
                .get("metrics")?
                .get(name)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Median over a set's documents of the slower of the two host-kernel
/// readings around `workload`'s untraced run (0 if none recorded).
fn host_kernel_ns(set: &[Value], workload: &str) -> f64 {
    let readings: Vec<f64> = set
        .iter()
        .filter_map(|doc| {
            doc.get("workloads")?
                .as_arr()?
                .iter()
                .find(|w| w.get("workload").and_then(Value::as_str) == Some(workload))?
                .get("end_to_end")?
                .get("host_kernel_ns")?
                .as_arr()?
                .iter()
                .filter_map(Value::as_f64)
                .reduce(f64::max)
        })
        .collect();
    stats::median(&readings)
}

/// Renders the comparison; the flag says whether everything passed.
pub fn compare_sets(a: &[Value], b: &[Value]) -> (String, bool) {
    let mut text = format!(
        "{:<14} {:<12} {:>11} {:>11} {:>8} {:>8} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for (name, unit, better, bound) in END_TO_END {
            let (va, vb) = (
                values(a, workload, "end_to_end", name),
                values(b, workload, "end_to_end", name),
            );
            if va.is_empty() || vb.is_empty() {
                text.push_str(&format!("{workload:<14} {name:<12} missing in a set\n"));
                ok = false;
                continue;
            }
            let (sa, sb, verdict) = judge(&va, &vb, better, bound);
            ok &= verdict == Verdict::WithinBound;
            text.push_str(&format!(
                "{workload:<14} {name:<12} {:>9.4}{unit:<2} {:>9.4}{unit:<2} {:>7.2}% {:>7.2}% {:>6.0}%  {} (n={}+{})\n",
                sa.median,
                sb.median,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                bound * 100.0,
                verdict.word(),
                sa.n,
                sb.n,
            ));
        }
        text.push_str(&format!(
            "{workload:<14} host kernel, ns per step (diagnostic): A {:.2}  B {:.2}\n",
            host_kernel_ns(a, workload),
            host_kernel_ns(b, workload),
        ));
        for name in EXACT {
            let mut all = values(a, workload, "per_layer", name);
            all.extend(values(b, workload, "per_layer", name));
            let equal = !all.is_empty() && all.iter().all(|v| *v == all[0]);
            ok &= equal;
            text.push_str(&format!(
                "{workload:<14} {name:<24} {}\n",
                match (all.first(), equal) {
                    (Some(v), true) => format!("equal in all {} runs ({v})", all.len()),
                    (Some(_), false) => format!("DIFFERENT across runs: {all:?}"),
                    (None, _) => "missing".to_string(),
                }
            ));
        }
    }
    (text, ok)
}

/// The `compare` subcommand: prints the table; `Ok(true)` when every
/// pair is within its bound and every exact count is equal.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (load_set(dir_a)?, load_set(dir_b)?);
    println!(
        "A = {} ({} runs)   B = {} ({} runs)",
        dir_a.display(),
        a.len(),
        dir_b.display(),
        b.len()
    );
    let (text, ok) = compare_sets(&a, &b);
    print!("{text}");
    println!("{}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_within_worse_and_unresolved() {
        let a = [10.0, 10.1, 9.9, 10.05];
        // 2 % slower, tight: within a 10 % bound.
        let (_, _, v) = judge(&a, &[10.2, 10.25, 10.15, 10.3], Better::Lower, 0.10);
        assert_eq!(v, Verdict::WithinBound);
        // 20 % slower, tight: worse.
        let (_, _, v) = judge(&a, &[12.0, 12.1, 11.9, 12.05], Better::Lower, 0.10);
        assert_eq!(v, Verdict::Worse);
        // For a higher-is-better metric the same numbers are a gain.
        let (_, _, v) = judge(&a, &[12.0, 12.1, 11.9, 12.05], Better::Higher, 0.10);
        assert_eq!(v, Verdict::WithinBound);
        // Spread wider than the bound, overlapping: cannot tell.
        let (_, sb, v) = judge(&a, &[8.0, 13.0, 9.5, 12.0], Better::Lower, 0.10);
        assert!(sb.spread() > 0.10);
        assert_eq!(v, Verdict::Unresolved);
        // Spread wider than the bound, but every B run beats every A run.
        let (_, _, v) = judge(&a, &[5.0, 8.0, 6.0, 9.0], Better::Lower, 0.10);
        assert_eq!(v, Verdict::WithinBound);
    }

    fn doc(wall: f64, digest: f64) -> Value {
        let metric = |v: f64| Value::obj([("value", Value::Num(v)), ("unit", Value::str("x"))]);
        let workloads = WORKLOADS
            .iter()
            .map(|(name, _)| {
                Value::obj([
                    ("workload", Value::str(*name)),
                    (
                        "end_to_end",
                        Value::obj([
                            (
                                "metrics",
                                Value::Obj(
                                    END_TO_END
                                        .iter()
                                        .map(|m| (m.0.to_string(), metric(wall)))
                                        .collect(),
                                ),
                            ),
                            (
                                "host_kernel_ns",
                                Value::Arr(vec![Value::Num(8.0), Value::Num(9.0 * wall)]),
                            ),
                        ]),
                    ),
                    (
                        "per_layer",
                        Value::obj([(
                            "metrics",
                            Value::Obj(
                                EXACT
                                    .iter()
                                    .map(|n| (n.to_string(), metric(digest)))
                                    .collect(),
                            ),
                        )]),
                    ),
                ])
            })
            .collect();
        Value::obj([("workloads", Value::Arr(workloads))])
    }

    #[test]
    fn sets_compare_end_to_end_and_demand_equal_exact_counts() {
        let a = vec![doc(1.00, 5.0), doc(1.01, 5.0), doc(0.99, 5.0)];
        let b = vec![doc(1.02, 5.0), doc(1.00, 5.0), doc(1.01, 5.0)];
        let (text, ok) = compare_sets(&a, &b);
        assert!(ok, "{text}");
        assert!(text.contains("within-bound"));
        assert!(text.contains("equal in all 6 runs"));
        assert!(text.contains("A 9.00  B 9.09"), "{text}");

        let slower = vec![doc(1.5, 5.0), doc(1.51, 5.0), doc(1.49, 5.0)];
        let (text, ok) = compare_sets(&a, &slower);
        assert!(!ok && text.contains("WORSE"), "{text}");

        let drifted = vec![doc(1.0, 6.0), doc(1.01, 6.0), doc(0.99, 6.0)];
        let (text, ok) = compare_sets(&a, &drifted);
        assert!(!ok && text.contains("DIFFERENT"), "{text}");

        let (text, ok) = compare_sets(&a, &[Value::obj::<String>([])]);
        assert!(!ok && text.contains("missing"), "{text}");
    }

    #[test]
    fn an_empty_directory_is_an_error() {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("directory under the package's out/");
        assert!(load_set(&dir).is_err());
        assert!(load_set(&dir.join("absent")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
