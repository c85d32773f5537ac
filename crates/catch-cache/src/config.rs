//! Cache and hierarchy configuration.

use crate::replacement::ReplKind;
use crate::Level;
use catch_trace::key::{Key, KeySink};
use std::fmt;

/// Error returned when a cache geometry is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Capacity is not an exact multiple of `ways × 64 B`.
    Indivisible {
        /// Requested capacity in bytes.
        bytes: u64,
        /// Requested associativity.
        ways: usize,
    },
    /// Capacity or associativity was zero.
    Zero,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::Indivisible { bytes, ways } => write!(
                f,
                "capacity {bytes} B is not divisible into {ways}-way sets of 64 B lines"
            ),
            CacheConfigError::Zero => write!(f, "capacity and associativity must be non-zero"),
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Geometry and latency of one cache.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheConfig {
    /// Human-readable name ("L1D", "LLC"...).
    pub name: String,
    /// Capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Round-trip load-to-use hit latency in core cycles.
    pub latency: u64,
    /// Replacement policy.
    pub repl: ReplKind,
}

impl CacheConfig {
    /// Creates a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if the geometry does not divide into an
    /// integral number of sets of 64-byte lines.
    pub fn new(
        name: impl Into<String>,
        bytes: u64,
        ways: usize,
        latency: u64,
    ) -> Result<Self, CacheConfigError> {
        let config = CacheConfig {
            name: name.into(),
            bytes,
            ways,
            latency,
            repl: ReplKind::Lru,
        };
        config.sets().map(|_| config)
    }

    /// Same as [`CacheConfig::new`] with an explicit replacement policy.
    pub fn with_repl(
        name: impl Into<String>,
        bytes: u64,
        ways: usize,
        latency: u64,
        repl: ReplKind,
    ) -> Result<Self, CacheConfigError> {
        let mut config = CacheConfig::new(name, bytes, ways, latency)?;
        config.repl = repl;
        Ok(config)
    }

    /// Number of sets, or an error if the geometry is invalid.
    pub fn sets(&self) -> Result<usize, CacheConfigError> {
        if self.bytes == 0 || self.ways == 0 {
            return Err(CacheConfigError::Zero);
        }
        let lines = self.bytes / catch_trace::LINE_BYTES;
        if !self.bytes.is_multiple_of(catch_trace::LINE_BYTES)
            || !lines.is_multiple_of(self.ways as u64)
        {
            return Err(CacheConfigError::Indivisible {
                bytes: self.bytes,
                ways: self.ways,
            });
        }
        Ok((lines / self.ways as u64) as usize)
    }

    /// Capacity in cache lines.
    pub fn lines(&self) -> u64 {
        self.bytes / catch_trace::LINE_BYTES
    }
}

/// Which multi-level organisation the hierarchy uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum HierarchyKind {
    /// Private L1 + private L2, shared LLC exclusive of L2 (Skylake server).
    ThreeLevelExclusive,
    /// Private L1 + private L2, shared inclusive LLC (Skylake client).
    ThreeLevelInclusive,
    /// Private L1 directly in front of the shared LLC (CATCH's two-level).
    TwoLevelNoL2,
}

/// Distributed (NUCA) LLC over a ring interconnect: the LLC is sliced
/// per core and an access pays hop latency to the slice holding the line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RingConfig {
    /// Cycles per ring hop (one direction; the shorter way is taken).
    pub hop_cycles: u64,
    /// Ring stops / LLC slices (usually the core count).
    pub slices: usize,
}

/// Full hierarchy configuration for `cores` cores.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchyConfig {
    /// Organisation.
    pub kind: HierarchyKind,
    /// Number of cores (each gets private L1I/L1D and, if three-level, L2).
    pub cores: usize,
    /// Per-core L1 instruction cache.
    pub l1i: CacheConfig,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core L2 (ignored for [`HierarchyKind::TwoLevelNoL2`]).
    pub l2: CacheConfig,
    /// Shared LLC.
    pub llc: CacheConfig,
    /// Optional sliced-LLC ring model (None ⇒ uniform LLC latency).
    pub ring: Option<RingConfig>,
}

impl HierarchyConfig {
    /// The paper's large-L2 exclusive baseline: 32 KB 8-way L1I/L1D
    /// (5 cycles), 1 MB 16-way L2 (15 cycles), 5.5 MB 11-way exclusive LLC
    /// (40 cycles) shared by `cores` cores.
    pub fn skylake_server(cores: usize) -> Self {
        HierarchyConfig {
            kind: HierarchyKind::ThreeLevelExclusive,
            cores,
            l1i: CacheConfig::new("L1I", 32 << 10, 8, 5).expect("valid L1I geometry"),
            l1d: CacheConfig::new("L1D", 32 << 10, 8, 5).expect("valid L1D geometry"),
            l2: CacheConfig::new("L2", 1 << 20, 16, 15).expect("valid L2 geometry"),
            llc: CacheConfig::new("LLC", 5632 << 10, 11, 40).expect("valid LLC geometry"),
            ring: None,
        }
    }

    /// The paper's small-L2 inclusive baseline: 256 KB 8-way L2, 8 MB
    /// 16-way inclusive LLC.
    pub fn skylake_client(cores: usize) -> Self {
        HierarchyConfig {
            kind: HierarchyKind::ThreeLevelInclusive,
            cores,
            l1i: CacheConfig::new("L1I", 32 << 10, 8, 5).expect("valid L1I geometry"),
            l1d: CacheConfig::new("L1D", 32 << 10, 8, 5).expect("valid L1D geometry"),
            l2: CacheConfig::new("L2", 256 << 10, 8, 13).expect("valid L2 geometry"),
            llc: CacheConfig::new("LLC", 8 << 20, 16, 40).expect("valid LLC geometry"),
            ring: None,
        }
    }

    /// Removes the L2, optionally growing the LLC to `llc_bytes`
    /// (`ways` chosen to keep 8192 sets when possible).
    pub fn without_l2(mut self, llc_bytes: u64) -> Self {
        self.kind = HierarchyKind::TwoLevelNoL2;
        let sets = 8192u64;
        let lines = llc_bytes / catch_trace::LINE_BYTES;
        let ways = if lines.is_multiple_of(sets) {
            (lines / sets) as usize
        } else {
            self.llc.ways
        };
        self.llc = CacheConfig::with_repl("LLC", llc_bytes, ways, self.llc.latency, self.llc.repl)
            .expect("valid grown-LLC geometry");
        self
    }

    /// Returns a copy with `extra` cycles added to the LLC hit latency
    /// (Figure 15 sensitivity).
    pub fn with_llc_latency_delta(mut self, extra: u64) -> Self {
        self.llc.latency += extra;
        self
    }

    /// Total on-die cache bytes visible to one core
    /// (L1I + L1D + L2 + LLC/cores-share is *not* how the paper counts; it
    /// reports private caches plus the full shared LLC).
    pub fn per_core_private_bytes(&self) -> u64 {
        let l2 = if self.kind == HierarchyKind::TwoLevelNoL2 {
            0
        } else {
            self.l2.bytes
        };
        self.l1i.bytes + self.l1d.bytes + l2
    }

    /// True if the organisation has a private L2.
    pub fn has_l2(&self) -> bool {
        self.kind != HierarchyKind::TwoLevelNoL2
    }

    /// Enables the sliced-LLC ring model with the given per-hop latency
    /// (slices = core count).
    pub fn with_ring(mut self, hop_cycles: u64) -> Self {
        self.ring = Some(RingConfig {
            hop_cycles,
            slices: self.cores.max(1),
        });
        self
    }
}

impl Key for CacheConfig {
    fn key(&self, sink: &mut KeySink) {
        let CacheConfig {
            name,
            bytes,
            ways,
            latency,
            repl,
        } = self;
        name.key(sink);
        bytes.key(sink);
        ways.key(sink);
        latency.key(sink);
        repl.key(sink);
    }
}

impl Key for ReplKind {
    fn key(&self, sink: &mut KeySink) {
        sink.u64(match self {
            ReplKind::Lru => 0,
            ReplKind::LruLip => 1,
            ReplKind::Srrip => 2,
            ReplKind::Random => 3,
        });
    }
}

impl Key for Level {
    fn key(&self, sink: &mut KeySink) {
        sink.u64(match self {
            Level::L1 => 0,
            Level::L2 => 1,
            Level::Llc => 2,
            Level::Memory => 3,
        });
    }
}

impl Key for HierarchyKind {
    fn key(&self, sink: &mut KeySink) {
        sink.u64(match self {
            HierarchyKind::ThreeLevelExclusive => 0,
            HierarchyKind::ThreeLevelInclusive => 1,
            HierarchyKind::TwoLevelNoL2 => 2,
        });
    }
}

impl Key for RingConfig {
    fn key(&self, sink: &mut KeySink) {
        let RingConfig { hop_cycles, slices } = self;
        hop_cycles.key(sink);
        slices.key(sink);
    }
}

impl Key for HierarchyConfig {
    fn key(&self, sink: &mut KeySink) {
        let HierarchyConfig {
            kind,
            cores,
            l1i,
            l1d,
            l2,
            llc,
            ring,
        } = self;
        kind.key(sink);
        cores.key(sink);
        l1i.key(sink);
        l1d.key(sink);
        l2.key(sink);
        llc.key(sink);
        ring.key(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_geometry_computes_sets() {
        let c = CacheConfig::new("L1", 32 << 10, 8, 5).unwrap();
        assert_eq!(c.sets().unwrap(), 64);
        assert_eq!(c.lines(), 512);
    }

    #[test]
    fn indivisible_geometry_rejected() {
        let err = CacheConfig::new("bad", 1000, 3, 1).unwrap_err();
        assert!(matches!(err, CacheConfigError::Indivisible { .. }));
        assert!(err.to_string().contains("not divisible"));
    }

    #[test]
    fn zero_geometry_rejected() {
        assert_eq!(
            CacheConfig::new("bad", 0, 8, 1).unwrap_err(),
            CacheConfigError::Zero
        );
    }

    #[test]
    fn skylake_server_matches_paper() {
        let h = HierarchyConfig::skylake_server(4);
        assert_eq!(h.l1d.bytes, 32 << 10);
        assert_eq!(h.l1d.latency, 5);
        assert_eq!(h.l2.bytes, 1 << 20);
        assert_eq!(h.l2.latency, 15);
        assert_eq!(h.llc.bytes, 5632 << 10); // 5.5 MB
        assert_eq!(h.llc.ways, 11);
        assert_eq!(h.llc.latency, 40);
        assert_eq!(h.llc.sets().unwrap(), 8192);
    }

    #[test]
    fn without_l2_grows_llc() {
        let h = HierarchyConfig::skylake_server(1).without_l2(6656 << 10); // 6.5 MB
        assert_eq!(h.kind, HierarchyKind::TwoLevelNoL2);
        assert_eq!(h.llc.bytes, 6656 << 10);
        assert_eq!(h.llc.ways, 13);
        assert!(!h.has_l2());
        assert_eq!(h.per_core_private_bytes(), 64 << 10);
    }

    #[test]
    fn llc_latency_delta() {
        let h = HierarchyConfig::skylake_server(1).with_llc_latency_delta(6);
        assert_eq!(h.llc.latency, 46);
    }
}
