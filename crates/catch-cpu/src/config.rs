//! Core configuration and oracle modes.

use catch_cache::Level;
use catch_criticality::{DetectorConfig, HeuristicConfig};
use catch_prefetch::TactConfig;
use catch_trace::key::{Key, KeySink};
use catch_trace::OpClass;
use std::ffi::OsStr;

/// Execution latency per op class, in cycles.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExecLatencies {
    /// Simple integer ops.
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Divides.
    pub div: u64,
    /// FP add.
    pub fp_add: u64,
    /// FP multiply / FMA.
    pub fp_mul: u64,
    /// Branch resolution.
    pub branch: u64,
    /// Store (address/data into the store buffer).
    pub store: u64,
}

impl ExecLatencies {
    /// Skylake-like latencies.
    pub fn skylake() -> Self {
        ExecLatencies {
            alu: 1,
            mul: 3,
            div: 20,
            fp_add: 4,
            fp_mul: 4,
            branch: 1,
            store: 1,
        }
    }

    /// Latency of a non-load class.
    pub fn of(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Alu | OpClass::Nop => self.alu,
            OpClass::Mul => self.mul,
            OpClass::Div => self.div,
            OpClass::FpAdd => self.fp_add,
            OpClass::FpMul => self.fp_mul,
            OpClass::Branch => self.branch,
            OpClass::Store => self.store,
            OpClass::Load => unreachable!("load latency comes from the hierarchy"),
        }
    }
}

impl Default for ExecLatencies {
    fn default() -> Self {
        ExecLatencies::skylake()
    }
}

/// Issue-port budget per cycle per class.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PortConfig {
    /// Integer ALU / branch ports.
    pub int_ports: u32,
    /// FP ports.
    pub fp_ports: u32,
    /// Load ports (AGU + data).
    pub load_ports: u32,
    /// Store ports.
    pub store_ports: u32,
}

impl PortConfig {
    /// Skylake-like port counts.
    pub fn skylake() -> Self {
        PortConfig {
            int_ports: 4,
            fp_ports: 2,
            load_ports: 2,
            store_ports: 1,
        }
    }
}

impl Default for PortConfig {
    fn default() -> Self {
        PortConfig::skylake()
    }
}

/// The latency oracles used by the paper's motivation studies.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum LoadOracle {
    /// Normal operation.
    #[default]
    None,
    /// Figure 3/4: loads that hit at `level` observe the latency of the
    /// next-outer level instead. With `only_noncritical`, loads whose PC
    /// the detector flags critical keep their real latency.
    Demote {
        /// The level whose hits are slowed.
        level: Level,
        /// Spare critical loads.
        only_noncritical: bool,
    },
    /// Figure 5: critical loads (bounded critical-PC table) that would hit
    /// the L2 or LLC are served at L1 latency ("zero-time prefetch").
    CriticalPrefetch,
    /// Figure 5 "All PC" bar: every load that would hit the L2 or LLC is
    /// served at L1 latency.
    PrefetchAll,
}

/// Which criticality-detection mechanism the core uses.
#[derive(Clone, Debug, PartialEq)]
pub enum DetectorKind {
    /// The paper's buffered-DDG graph walk.
    Graph,
    /// Symptom heuristics (shadow-of-mispredict, long latency) — the
    /// alternative the paper argues over-flags PCs.
    Heuristic(HeuristicConfig),
}

/// Which TACT components the core drives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TactMode {
    /// Data prefetchers (Cross/Deep/Feeder) — per-component flags live in
    /// [`TactConfig`].
    pub data: bool,
    /// Code runahead prefetcher.
    pub code: bool,
}

impl TactMode {
    /// Everything off (the baseline machine).
    pub fn off() -> Self {
        TactMode {
            data: false,
            code: false,
        }
    }

    /// Everything on (full CATCH).
    pub fn full() -> Self {
        TactMode {
            data: true,
            code: true,
        }
    }
}

/// Full configuration of one core.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreConfig {
    /// Fetch width (µops/cycle).
    pub fetch_width: usize,
    /// Allocation width into the ROB.
    pub alloc_width: usize,
    /// Retire width.
    pub retire_width: usize,
    /// ROB entries (paper: 224).
    pub rob_size: usize,
    /// Scheduler window examined for issue each cycle.
    pub sched_window: usize,
    /// Fetch-buffer entries between fetch and allocate.
    pub fetch_buffer: usize,
    /// Execution latencies.
    pub latencies: ExecLatencies,
    /// Issue ports.
    pub ports: PortConfig,
    /// Front-end redirect penalty after a mispredicted branch resolves.
    pub mispredict_penalty: u64,
    /// Baseline prefetchers (L1 stride + L2 multi-stream) enabled.
    pub baseline_prefetchers: bool,
    /// TACT components enabled.
    pub tact: TactMode,
    /// TACT data-prefetcher configuration.
    pub tact_config: TactConfig,
    /// Criticality-detector configuration.
    pub detector: DetectorConfig,
    /// Detection mechanism (graph walk vs symptom heuristics).
    pub detector_kind: DetectorKind,
    /// Oracle mode for motivation studies.
    pub oracle: LoadOracle,
    /// Code always hits the L1I (used by the Figure 5 oracle study).
    pub perfect_l1i: bool,
    /// Memory latency assumed when demoting LLC hits (Figure 4's
    /// "LLC hits at memory latency").
    pub demoted_memory_latency: u64,
    /// L1D MSHR entries: maximum loads outstanding to the hierarchy.
    pub max_outstanding_loads: usize,
    /// Code lines the runahead may prefetch per stall.
    pub code_runahead_lines: usize,
    /// Stall skip-ahead: when a tick makes no pipeline progress, jump
    /// the clock to the earliest wake reservation in the core's `timeq`
    /// calendar queue instead of ticking idle cycles. Statistics, event
    /// streams and occupancy histograms are bit-identical either way
    /// (asserted by the `engine_parity` suite); `false` keeps the naive
    /// per-cycle loop as the differential oracle.
    pub skip_ahead: bool,
}

/// Resolves [`CoreConfig::skip_ahead`] from the value of `CATCH_NO_SKIP`:
/// unset selects stall skip-ahead, `1` the naive per-cycle loop.
///
/// # Panics
///
/// Panics on any other value, naming the variable — a `0` or empty
/// value silently selecting the slow reference loop would mislead a
/// timing run.
fn skip_ahead_from(no_skip: Option<&OsStr>) -> bool {
    match no_skip {
        None => true,
        Some(v) if v == "1" => false,
        Some(v) => panic!("CATCH_NO_SKIP: invalid value {v:?}: expected unset or '1'"),
    }
}

impl CoreConfig {
    /// The paper's Skylake-like baseline core: 4-wide, 224 ROB, baseline
    /// prefetchers on, TACT off.
    pub fn baseline() -> Self {
        CoreConfig {
            fetch_width: 4,
            alloc_width: 4,
            retire_width: 4,
            rob_size: 224,
            sched_window: 97,
            fetch_buffer: 16,
            latencies: ExecLatencies::skylake(),
            ports: PortConfig::skylake(),
            mispredict_penalty: 15,
            baseline_prefetchers: true,
            tact: TactMode::off(),
            tact_config: TactConfig::paper(),
            detector: DetectorConfig::paper(),
            detector_kind: DetectorKind::Graph,
            oracle: LoadOracle::None,
            perfect_l1i: false,
            demoted_memory_latency: 200,
            max_outstanding_loads: 16,
            code_runahead_lines: 8,
            // `CATCH_NO_SKIP=1` forces the naive per-cycle loop — used
            // by the CI throughput comparison and the naive-loop smoke
            // run (the parity suite sets the field per-System instead).
            skip_ahead: skip_ahead_from(std::env::var_os("CATCH_NO_SKIP").as_deref()),
        }
    }

    /// Baseline plus the full CATCH mechanisms (criticality + all TACT).
    pub fn catch() -> Self {
        CoreConfig {
            tact: TactMode::full(),
            ..CoreConfig::baseline()
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::baseline()
    }
}

impl Key for ExecLatencies {
    fn key(&self, sink: &mut KeySink) {
        let ExecLatencies {
            alu,
            mul,
            div,
            fp_add,
            fp_mul,
            branch,
            store,
        } = self;
        for latency in [alu, mul, div, fp_add, fp_mul, branch, store] {
            latency.key(sink);
        }
    }
}

impl Key for PortConfig {
    fn key(&self, sink: &mut KeySink) {
        let PortConfig {
            int_ports,
            fp_ports,
            load_ports,
            store_ports,
        } = self;
        for ports in [int_ports, fp_ports, load_ports, store_ports] {
            ports.key(sink);
        }
    }
}

impl Key for LoadOracle {
    fn key(&self, sink: &mut KeySink) {
        match self {
            LoadOracle::None => sink.u64(0),
            LoadOracle::Demote {
                level,
                only_noncritical,
            } => {
                sink.u64(1);
                level.key(sink);
                only_noncritical.key(sink);
            }
            LoadOracle::CriticalPrefetch => sink.u64(2),
            LoadOracle::PrefetchAll => sink.u64(3),
        }
    }
}

impl Key for DetectorKind {
    fn key(&self, sink: &mut KeySink) {
        match self {
            DetectorKind::Graph => sink.u64(0),
            DetectorKind::Heuristic(config) => {
                sink.u64(1);
                config.key(sink);
            }
        }
    }
}

impl Key for TactMode {
    fn key(&self, sink: &mut KeySink) {
        let TactMode { data, code } = self;
        data.key(sink);
        code.key(sink);
    }
}

impl Key for CoreConfig {
    fn key(&self, sink: &mut KeySink) {
        let CoreConfig {
            fetch_width,
            alloc_width,
            retire_width,
            rob_size,
            sched_window,
            fetch_buffer,
            latencies,
            ports,
            mispredict_penalty,
            baseline_prefetchers,
            tact,
            tact_config,
            detector,
            detector_kind,
            oracle,
            perfect_l1i,
            demoted_memory_latency,
            max_outstanding_loads,
            code_runahead_lines,
            skip_ahead,
        } = self;
        for width in [
            fetch_width,
            alloc_width,
            retire_width,
            rob_size,
            sched_window,
            fetch_buffer,
        ] {
            width.key(sink);
        }
        latencies.key(sink);
        ports.key(sink);
        mispredict_penalty.key(sink);
        baseline_prefetchers.key(sink);
        tact.key(sink);
        tact_config.key(sink);
        detector.key(sink);
        detector_kind.key(sink);
        oracle.key(sink);
        perfect_l1i.key(sink);
        demoted_memory_latency.key(sink);
        max_outstanding_loads.key(sink);
        code_runahead_lines.key(sink);
        skip_ahead.key(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_core() {
        let c = CoreConfig::baseline();
        assert_eq!(c.rob_size, 224);
        assert_eq!(c.fetch_width, 4);
        assert!(c.baseline_prefetchers);
        assert!(!c.tact.data);
    }

    #[test]
    fn catch_enables_tact() {
        let c = CoreConfig::catch();
        assert!(c.tact.data && c.tact.code);
    }

    #[test]
    fn latencies_cover_all_non_load_classes() {
        let l = ExecLatencies::skylake();
        for class in [
            OpClass::Alu,
            OpClass::Mul,
            OpClass::Div,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::Branch,
            OpClass::Store,
            OpClass::Nop,
        ] {
            assert!(l.of(class) >= 1);
        }
    }

    #[test]
    #[should_panic]
    fn load_latency_is_not_static() {
        let _ = ExecLatencies::skylake().of(OpClass::Load);
    }

    #[test]
    fn no_skip_unset_skips_and_one_selects_the_naive_loop() {
        assert!(skip_ahead_from(None));
        assert!(!skip_ahead_from(Some(OsStr::new("1"))));
    }

    #[test]
    fn no_skip_rejects_other_values() {
        for bad in ["0", "", "true", " 1"] {
            let err = std::panic::catch_unwind(|| skip_ahead_from(Some(OsStr::new(bad))))
                .expect_err("value must be rejected");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("CATCH_NO_SKIP"), "{msg}");
        }
    }
}
