//! Checkpoint journal: crash-safe resumability for sweeps.
//!
//! The journal is a line-oriented file in the workspace's restricted
//! JSON subset (objects / strings / unsigned integers — the same
//! grammar [`crate::report::json::parse`] reads for the run cache).
//! Floats are stored as their IEEE-754 bit patterns
//! ([`f64::to_bits`]) so every metric round-trips **bit-exactly** —
//! the property behind the byte-identical-resume guarantee.
//!
//! Line 1 is the header, written once when a sweep first touches the
//! file:
//!
//! ```json
//! {"sweep": "<fp hex>", "schema": 2, "points": 12, "fidelity": "lite",
//!  "baseline": {"xalanc_like": 4606281698874543104, ...},
//!  "baseline_ooo": {"xalanc_like": ...}}
//! ```
//!
//! `sweep` is the [`sweep_fingerprint`](super::sweep_fingerprint) of
//! (grid spec, eval, schema): a journal can only ever resume the exact
//! sweep that wrote it. `fidelity` records the sweep's fidelity plan
//! explicitly; it is checked *before* the fingerprint so a resume after
//! a fidelity-config change is rejected with a diagnostic naming the
//! plan change rather than the generic foreign-sweep error (the
//! fingerprint would catch it too — `eval.fidelity` is structural —
//! but "grid changed" would mislead). `baseline` pins the per-workload
//! baseline IPCs so a resumed run aggregates against the same
//! denominators without recomputation; `baseline_ooo` rides along in
//! ladder mode, pinning the OOO-reference denominators the spot-check
//! and frontier-revalidation points aggregate against. Every later line
//! is one completed point, appended by the worker that retires its last
//! workload (in ladder mode, rung and OOO evaluations of the same grid
//! cell are separate lines under their own fingerprints — rungs never
//! mix):
//!
//! ```json
//! {"point": "<fp hex>", "name": "excl3-5632KB", "perf": ...,
//!  "energy": ..., "area": ...}
//! ```
//!
//! Appends are serialized by a mutex and flushed per line, so a killed
//! process loses at most its in-flight points; a torn final line from a
//! hard kill fails to parse and is skipped on load (that point simply
//! reruns). Unknown but well-formed lines are skipped too, which keeps
//! old journals readable if later schemas add line kinds.

use super::PointMetrics;
use crate::report::json;
use crate::runcache::{Fingerprint, SCHEMA_VERSION};
use crate::FxHashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;

/// Everything a prior invocation left in the journal.
#[derive(Debug, Default)]
pub(super) struct State {
    /// Baseline per-workload IPCs from the header, if one was written.
    pub baseline: Option<Vec<(String, f64)>>,
    /// OOO-reference baseline IPCs (ladder-mode headers only).
    pub baseline_ooo: Option<Vec<(String, f64)>>,
    /// Completed points keyed by point fingerprint.
    pub points: FxHashMap<u128, PointMetrics>,
}

/// Header payload for a fresh journal (see the module docs).
pub(super) struct HeaderInfo {
    /// Fidelity plan label ([`Fidelity::label`](crate::experiments::Fidelity::label)).
    pub fidelity: &'static str,
    /// Per-workload rung baseline IPCs.
    pub baseline: Vec<(String, f64)>,
    /// Per-workload OOO baseline IPCs (ladder mode only).
    pub baseline_ooo: Option<Vec<(String, f64)>>,
}

fn field_f64(v: &json::JsonValue, key: &str) -> Option<f64> {
    Some(f64::from_bits(v.get(key)?.as_num()?))
}

/// Reads a journal back. A missing file is an empty state (fresh
/// sweep); a present file must lead with a header whose fidelity plan,
/// `sweep` fingerprint and schema match, otherwise the checkpoint
/// belongs to a different sweep and resuming would silently mix grids
/// or rungs. The fidelity check runs first so a plan change gets its
/// own diagnostic (see the module docs).
pub(super) fn load(path: &Path, sweep_fp: Fingerprint, fidelity: &str) -> Result<State, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(State::default()),
        Err(e) => return Err(format!("cannot read checkpoint {}: {e}", path.display())),
    };
    // Lossy: a hard kill inside a multi-byte character must cost that
    // line (it no longer parses), not the whole checkpoint.
    let text = String::from_utf8_lossy(&bytes);
    let mut state = State::default();
    let mut saw_header = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(value) = json::parse(line) else {
            // Torn tail from a hard kill: drop the line, rerun the point.
            continue;
        };
        if let Some(fp) = value.get("sweep").and_then(|v| v.as_str()) {
            if !saw_header {
                // Only the first header is authoritative. Fidelity
                // first: the fingerprint covers it too, but the generic
                // foreign-sweep error would point at the grid.
                if let Some(plan) = value.get("fidelity").and_then(|v| v.as_str()) {
                    if plan != fidelity {
                        return Err(format!(
                            "checkpoint {} was written under fidelity plan '{plan}' \
                             but this sweep runs '{fidelity}'; a resumed sweep must \
                             keep its fidelity configuration — delete the checkpoint \
                             or pick another path",
                            path.display()
                        ));
                    }
                }
                if Fingerprint::from_hex(fp) != Some(sweep_fp) {
                    return Err(format!(
                        "checkpoint {} was written by a different sweep \
                         (grid, eval scale or schema changed); delete it or \
                         pick another path",
                        path.display()
                    ));
                }
                if value.get("schema").and_then(|v| v.as_num()) != Some(SCHEMA_VERSION) {
                    return Err(format!(
                        "checkpoint {} has an incompatible schema",
                        path.display()
                    ));
                }
                let baseline = value
                    .get("baseline")
                    .and_then(|v| v.as_obj())
                    .ok_or_else(|| {
                        format!("checkpoint {} header lacks baselines", path.display())
                    })?;
                state.baseline = Some(
                    baseline
                        .iter()
                        .filter_map(|(k, v)| Some((k.to_string(), f64::from_bits(v.as_num()?))))
                        .collect(),
                );
                state.baseline_ooo = value.get("baseline_ooo").and_then(|v| v.as_obj()).map(|b| {
                    b.iter()
                        .filter_map(|(k, v)| Some((k.to_string(), f64::from_bits(v.as_num()?))))
                        .collect()
                });
                saw_header = true;
            }
            continue;
        }
        if !saw_header {
            return Err(format!(
                "checkpoint {} does not start with a sweep header",
                path.display()
            ));
        }
        let Some(fp) = value
            .get("point")
            .and_then(|v| v.as_str())
            .and_then(Fingerprint::from_hex)
        else {
            continue;
        };
        let (Some(perf), Some(energy_uj), Some(area_mm2)) = (
            field_f64(&value, "perf"),
            field_f64(&value, "energy"),
            field_f64(&value, "area"),
        ) else {
            continue;
        };
        state.points.insert(
            fp.0,
            PointMetrics {
                perf,
                energy_uj,
                area_mm2,
            },
        );
    }
    Ok(state)
}

/// Append handle shared by the sweep workers. One mutex serializes
/// whole-line writes; each line is flushed before the lock drops.
pub(super) struct Writer {
    file: Mutex<BufWriter<File>>,
}

impl Writer {
    /// Opens `path` for appending, creating parent directories as
    /// needed, and writes the header iff `header` carries the baseline
    /// (i.e. the file had none — fresh or headerless journal).
    pub(super) fn open(
        path: &Path,
        sweep_fp: Fingerprint,
        total: usize,
        header: Option<HeaderInfo>,
    ) -> Result<Writer, String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))?;
        let writer = Writer {
            file: Mutex::new(BufWriter::new(file)),
        };
        if let Some(h) = header {
            let obj = |pairs: &[(String, f64)]| {
                let fields: Vec<String> = pairs
                    .iter()
                    .map(|(name, ipc)| format!("\"{}\": {}", json::escape(name), ipc.to_bits()))
                    .collect();
                format!("{{{}}}", fields.join(", "))
            };
            let ooo = h
                .baseline_ooo
                .as_deref()
                .map(|b| format!(", \"baseline_ooo\": {}", obj(b)))
                .unwrap_or_default();
            writer.write_line(&format!(
                "{{\"sweep\": \"{sweep_fp}\", \"schema\": {SCHEMA_VERSION}, \
                 \"points\": {total}, \"fidelity\": \"{}\", \"baseline\": {}{ooo}}}",
                h.fidelity,
                obj(&h.baseline)
            ))?;
        }
        Ok(writer)
    }

    /// Appends one completed point.
    pub(super) fn append(&self, fp: Fingerprint, name: &str, m: PointMetrics) {
        // A full disk mid-sweep should not take the in-memory results
        // down with it; the line is simply lost and the point reruns.
        let _ = self.write_line(&format!(
            "{{\"point\": \"{fp}\", \"name\": \"{}\", \"perf\": {}, \
             \"energy\": {}, \"area\": {}}}",
            json::escape(name),
            m.perf.to_bits(),
            m.energy_uj.to_bits(),
            m.area_mm2.to_bits()
        ));
    }

    fn write_line(&self, line: &str) -> Result<(), String> {
        let mut file = self.file.lock().expect("journal writer poisoned");
        writeln!(file, "{line}")
            .and_then(|()| file.flush())
            .map_err(|e| format!("checkpoint write failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_trace::key::KeySink;

    /// A stand-in key for a sweep or point named `name`.
    fn key(name: &str) -> Fingerprint {
        let mut sink = KeySink::new("journal-test");
        sink.str(name);
        Fingerprint(sink.finish())
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("catch-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_header_and_points_bit_exactly() {
        let path = tmp("roundtrip.journal");
        let _ = std::fs::remove_file(&path);
        let sweep = key("journal-test-sweep");
        let baseline = vec![("astar_like".to_string(), 0.1234567891234)];
        let baseline_ooo = vec![("astar_like".to_string(), 0.9876543219876)];
        let header = HeaderInfo {
            fidelity: "lite",
            baseline: baseline.clone(),
            baseline_ooo: Some(baseline_ooo.clone()),
        };
        let w = Writer::open(&path, sweep, 3, Some(header)).unwrap();
        let p1 = key("p1");
        let m1 = PointMetrics {
            perf: 1.0372819,
            energy_uj: 8123.4567,
            area_mm2: 21.5,
        };
        w.append(p1, "excl3-5632KB", m1);
        w.append(
            key("p2"),
            "weird \"name\"\n",
            PointMetrics {
                perf: f64::NAN,
                energy_uj: 0.0,
                area_mm2: 1.5,
            },
        );
        drop(w);

        let state = load(&path, sweep, "lite").unwrap();
        assert_eq!(state.baseline, Some(baseline));
        assert_eq!(state.baseline_ooo, Some(baseline_ooo));
        assert_eq!(state.points.len(), 2);
        assert_eq!(state.points[&p1.0], m1);
        // NaN survives as NaN (bit pattern, not text).
        assert!(state.points[&key("p2").0].perf.is_nan());
        // A fidelity-plan change is rejected with its own diagnostic,
        // ahead of (and more specific than) the fingerprint check.
        let err = load(&path, sweep, "ooo").expect_err("plan change rejected");
        assert!(err.contains("fidelity plan 'lite'"), "got: {err}");
        assert!(err.contains("runs 'ooo'"), "got: {err}");
    }

    #[test]
    fn rejects_foreign_sweeps_and_tolerates_torn_tails() {
        let path = tmp("torn.journal");
        let _ = std::fs::remove_file(&path);
        let sweep = key("owner");
        let header = HeaderInfo {
            fidelity: "ooo",
            baseline: vec![("x".into(), 1.0)],
            baseline_ooo: None,
        };
        let w = Writer::open(&path, sweep, 1, Some(header)).unwrap();
        w.append(
            key("done"),
            "a",
            PointMetrics {
                perf: 1.0,
                energy_uj: 2.0,
                area_mm2: 3.0,
            },
        );
        drop(w);
        // Simulate a hard kill mid-append: garbage tail line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"point\": \"deadbeef").unwrap();
        }
        let state = load(&path, sweep, "ooo").unwrap();
        assert_eq!(state.points.len(), 1);
        assert!(
            state.baseline_ooo.is_none(),
            "plain headers carry no OOO baseline"
        );
        // A different sweep must refuse to resume from this file.
        assert!(load(&path, key("intruder"), "ooo").is_err());
        // Missing file: clean empty state.
        let fresh = load(&tmp("never-written.journal"), sweep, "ooo").unwrap();
        assert!(fresh.baseline.is_none() && fresh.points.is_empty());
    }

    #[test]
    fn a_journal_cut_at_any_byte_loads_what_was_complete() {
        let path = tmp("cut.journal");
        let _ = std::fs::remove_file(&path);
        let sweep = key("cut-sweep");
        let header = HeaderInfo {
            fidelity: "lite",
            baseline: vec![("astar_like".into(), 0.75), ("mcf_like".into(), 0.25)],
            baseline_ooo: Some(vec![("astar_like".into(), 0.5), ("mcf_like".into(), 0.125)]),
        };
        let w = Writer::open(&path, sweep, 2, Some(header)).unwrap();
        let points = [
            (key("p1"), "excl3-5632KB", 1.0372819),
            (key("p2"), "odd \"name\" µ", 0.97),
        ];
        for (fp, name, perf) in points {
            let m = PointMetrics {
                perf,
                energy_uj: 8123.4567,
                area_mm2: 21.5,
            };
            w.append(fp, name, m);
        }
        drop(w);
        let whole = std::fs::read(&path).unwrap();
        let line_ends: Vec<usize> = (0..whole.len()).filter(|&i| whole[i] == b'\n').collect();
        assert_eq!(line_ends.len(), 3, "a header and two points");

        for cut in 0..=whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            // A line counts once its closing brace is on disk.
            let complete = line_ends.iter().filter(|&&end| cut >= end).count();
            let state = load(&path, sweep, "lite").unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            assert_eq!(state.baseline.is_some(), complete >= 1, "cut at {cut}");
            assert_eq!(
                state.points.len(),
                complete.saturating_sub(1),
                "cut at {cut}"
            );
            for (fp, _, perf) in &points[..state.points.len()] {
                assert_eq!(state.points[&fp.0].perf, *perf, "cut at {cut}");
            }
        }
    }
}
