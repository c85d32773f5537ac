//! Run results and aggregate metrics.

use catch_cache::{CacheHierarchy, HierarchyStats};
use catch_cpu::CoreStats;
use catch_dram::{DramStats, DramSystem};
use catch_trace::counters::{
    join_prefix, CounterEntry, CounterSink, CounterSource, CounterVec, Counters, FromCounters,
};
use catch_trace::Category;
use std::borrow::Cow;

/// Everything measured over one core's run under one configuration.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Workload category.
    pub category: Category,
    /// Configuration name.
    pub config: String,
    /// Core statistics.
    pub core: CoreStats,
    /// Hierarchy statistics (shared across cores in MP runs).
    pub hierarchy: HierarchyStats,
    /// DRAM statistics, when the backend is the DRAM model.
    pub dram: Option<DramStats>,
}

impl Counters for RunResult {
    fn counters_into(&self, prefix: &str, out: &mut dyn CounterSink) {
        self.core.counters_into(&join_prefix(prefix, "core"), out);
        self.hierarchy
            .counters_into(&join_prefix(prefix, "hierarchy"), out);
        if let Some(dram) = &self.dram {
            dram.counters_into(&join_prefix(prefix, "dram"), out);
        }
    }
}

impl RunResult {
    /// Rebuilds a result from identity fields plus its flat counter
    /// export (the inverse of [`Counters::counters_into`]). `label` is
    /// the workload category label as rendered in reports.
    pub fn from_parts(
        workload: String,
        label: &str,
        config: String,
        counters: CounterVec,
    ) -> Result<Self, String> {
        let mut entries = counters
            .iter()
            .map(|(name, value)| Ok((Cow::Borrowed(name.as_str()), *value)));
        Self::replay(workload, label, config, &mut entries)
    }

    /// [`RunResult::from_parts`] over a counter stream that is consumed
    /// as it is produced: the on-disk run cache replays a shard's
    /// counters straight out of its parser, without a list in between.
    pub fn replay<'a>(
        workload: String,
        label: &str,
        config: String,
        counters: &mut dyn Iterator<Item = CounterEntry<'a>>,
    ) -> Result<Self, String> {
        let category = *Category::ALL
            .iter()
            .find(|c| c.label() == label)
            .ok_or_else(|| format!("unknown workload category label '{label}'"))?;
        let mut src = CounterSource::new(counters)?;
        let core = CoreStats::from_counters("core", &mut src)?;
        let hierarchy = HierarchyStats::from_counters("hierarchy", &mut src)?;
        let dram = if src.next_in("dram") {
            Some(DramStats::from_counters("dram", &mut src)?)
        } else {
            None
        };
        src.finish()?;
        Ok(RunResult {
            workload,
            category,
            config,
            core,
            hierarchy,
            dram,
        })
    }

    /// Collects a result from a finished core + hierarchy.
    pub fn collect(
        workload: String,
        category: Category,
        config: String,
        core: CoreStats,
        hier: &CacheHierarchy,
    ) -> Self {
        let dram = hier
            .backend()
            .as_any()
            .downcast_ref::<DramSystem>()
            .map(|d| *d.stats());
        RunResult {
            workload,
            category,
            config,
            core,
            hierarchy: hier.stats(),
            dram,
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }
}

/// Result of a 4-way multi-programmed run.
#[derive(Clone, Debug)]
pub struct MpResult {
    /// Configuration name.
    pub config: String,
    /// Per-core results (index = core id).
    pub per_core: Vec<RunResult>,
}

impl MpResult {
    /// Weighted speedup against per-workload alone IPCs:
    /// `Σ IPC_together,i / IPC_alone,i`.
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> f64 {
        assert_eq!(
            alone_ipc.len(),
            self.per_core.len(),
            "one alone IPC per core"
        );
        self.per_core
            .iter()
            .zip(alone_ipc)
            .map(|(r, &alone)| if alone > 0.0 { r.ipc() / alone } else { 0.0 })
            .sum()
    }
}

/// Geometric mean of positive values.
///
/// Degenerate *values* (zero, negative, non-finite) yield the 0.0
/// sentinel the registry's ratio tables render as a visibly-broken
/// `0.00x` row. An *empty* slice is a different failure — nothing was
/// aggregated at all — and returns NaN so it can never masquerade as a
/// plausible result. Layers that must fail loudly (the sweep engine's
/// per-point aggregation) should use [`try_geomean`] instead and handle
/// `None` explicitly.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    // Non-finite inputs are rejected along with non-positive ones: a
    // zero-IPC base run turns its ratio into +inf, and one inf (or NaN)
    // would otherwise poison the whole mean instead of flagging the
    // degenerate input with the 0.0 sentinel.
    if values.iter().any(|&v| !v.is_finite() || v <= 0.0) {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Geometric mean that refuses to aggregate nothing: `None` when the
/// slice is empty or contains a non-finite / non-positive value, the
/// mean otherwise. This is the checked face of [`geomean`] for callers
/// (the sweep aggregation layer) where a sentinel would be silently
/// journaled and ranked.
pub fn try_geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| !v.is_finite() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Geometric-mean speedup of `new` over `base`, paired by position.
///
/// Two empty slices yield NaN (nothing was compared), per [`geomean`];
/// every registry caller passes a fixed non-empty suite, and
/// `per_category_ratio` skips categories with no members before
/// aggregating.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn geomean_ratio(base: &[RunResult], new: &[RunResult]) -> f64 {
    assert_eq!(base.len(), new.len(), "paired runs required");
    let ratios: Vec<f64> = base
        .iter()
        .zip(new)
        .map(|(b, n)| {
            debug_assert_eq!(b.workload, n.workload, "pairing mismatch");
            n.ipc() / b.ipc()
        })
        .collect();
    geomean(&ratios)
}

/// Per-category geometric-mean speedups (category label, ratio), in
/// [`Category::ALL`] order, plus the overall geomean last.
pub fn per_category_ratio(base: &[RunResult], new: &[RunResult]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for cat in Category::ALL {
        let pairs: (Vec<&RunResult>, Vec<&RunResult>) = base
            .iter()
            .zip(new)
            .filter(|(b, _)| b.category == cat)
            .unzip();
        if pairs.0.is_empty() {
            continue;
        }
        let ratios: Vec<f64> = pairs
            .0
            .iter()
            .zip(&pairs.1)
            .map(|(b, n)| n.ipc() / b.ipc())
            .collect();
        out.push((cat.label().to_string(), geomean(&ratios)));
    }
    out.push(("GeoMean".to_string(), geomean_ratio(base, new)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        // Aggregating nothing is NaN, never a plausible-looking number.
        assert!(geomean(&[]).is_nan());
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[1.0, f64::INFINITY]), 0.0);
        assert_eq!(geomean(&[1.0, f64::NAN]), 0.0);
    }

    #[test]
    fn try_geomean_rejects_degenerate_sets() {
        assert_eq!(try_geomean(&[]), None);
        assert_eq!(try_geomean(&[1.0, 0.0]), None);
        assert_eq!(try_geomean(&[1.0, f64::NAN]), None);
        assert_eq!(try_geomean(&[1.0, -2.0]), None);
        let m = try_geomean(&[2.0, 8.0]).unwrap();
        assert!((m - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_ratio_survives_zero_ipc_base() {
        // A base run that retired nothing must yield the 0.0 sentinel,
        // not +inf (its per-pair ratio divides by a zero IPC).
        let base = vec![result(Category::Hpc, 0.0), result(Category::Hpc, 2.0)];
        let new = vec![result(Category::Hpc, 1.0), result(Category::Hpc, 2.0)];
        assert_eq!(geomean_ratio(&base, &new), 0.0);
    }

    fn result(cat: Category, ipc: f64) -> RunResult {
        let core = CoreStats {
            instructions: (ipc * 1000.0) as u64,
            cycles: 1000,
            ..CoreStats::default()
        };
        RunResult {
            workload: "w".into(),
            category: cat,
            config: "c".into(),
            core,
            hierarchy: HierarchyStats::default(),
            dram: None,
        }
    }

    #[test]
    fn geomean_ratio_pairs() {
        let base = vec![result(Category::Hpc, 1.0), result(Category::Hpc, 2.0)];
        let new = vec![result(Category::Hpc, 2.0), result(Category::Hpc, 2.0)];
        let r = geomean_ratio(&base, &new);
        assert!((r - 2.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn per_category_includes_geomean_row() {
        let base = vec![result(Category::Hpc, 1.0), result(Category::Ispec, 1.0)];
        let new = vec![result(Category::Hpc, 1.1), result(Category::Ispec, 1.2)];
        let rows = per_category_ratio(&base, &new);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.last().unwrap().0, "GeoMean");
    }

    #[test]
    fn weighted_speedup_sums_ratios() {
        let mp = MpResult {
            config: "c".into(),
            per_core: vec![result(Category::Hpc, 1.0), result(Category::Hpc, 2.0)],
        };
        let ws = mp.weighted_speedup(&[1.0, 1.0]);
        assert!((ws - 3.0).abs() < 1e-9);
    }
}
