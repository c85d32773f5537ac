//! Multi-level, multi-core hierarchy controllers.

use crate::array::CacheArray;
use crate::config::{HierarchyConfig, HierarchyKind};
use crate::ledger::{FillOrigin, InFlight, InFlightLedger};
use crate::level::Level;
use crate::stats::{HierarchyStats, PrefetchTimeliness, TrafficStats};
use catch_obs::{Event, EventClass, EventKind, Obs, ObsLevel, OccupancyHist};
use catch_trace::LineAddr;
use std::fmt::Debug;

/// Nominal MSHR capacity used to bucket ledger-occupancy samples (the
/// ledger itself is unbounded; 32 matches contemporary L1D MSHR sizing).
const MSHR_OCC_CAP: u64 = 32;

/// The L1 observability level for a code/data access.
fn l1_obs_level(code: bool) -> ObsLevel {
    if code {
        ObsLevel::L1i
    } else {
        ObsLevel::L1d
    }
}

/// Timing model behind the LLC (DRAM, or a fixed latency for tests).
pub trait MemoryBackend: Debug + Send {
    /// Latency, in core cycles, of a memory access to `line` starting at
    /// `cycle`. `write` distinguishes writebacks from reads.
    fn access(&mut self, line: LineAddr, cycle: u64, write: bool) -> u64;

    /// Downcast hook so callers can recover concrete backend statistics
    /// (e.g. the DRAM model's row-buffer counters) after a run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Clears statistics at the end of a warm-up phase (state is kept).
    fn reset_stats(&mut self) {}
}

/// A backend with a constant access latency; useful for tests and for the
/// latency-oracle studies.
#[derive(Debug, Clone)]
pub struct FixedLatencyBackend {
    latency: u64,
}

impl FixedLatencyBackend {
    /// Creates a backend that answers every access after `latency` cycles.
    pub fn new(latency: u64) -> Self {
        FixedLatencyBackend { latency }
    }
}

impl MemoryBackend for FixedLatencyBackend {
    fn access(&mut self, _line: LineAddr, _cycle: u64, _write: bool) -> u64 {
        self.latency
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// What kind of request is entering the hierarchy.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Instruction fetch into the L1I.
    Code,
    /// Demand data load.
    Load,
    /// Demand data store (write-allocate).
    Store,
    /// TACT data prefetch targeting the L1D.
    TactPrefetch,
    /// Baseline L1 stride prefetch targeting the L1D.
    L1Prefetch,
    /// Baseline stream prefetch targeting the L2 (LLC when no L2 exists).
    L2Prefetch,
    /// TACT code-runahead prefetch targeting the L1I.
    CodePrefetch,
}

impl AccessKind {
    /// True for demand (non-prefetch) requests.
    pub fn is_demand(self) -> bool {
        matches!(
            self,
            AccessKind::Code | AccessKind::Load | AccessKind::Store
        )
    }

    /// True for requests that use the instruction L1.
    pub fn is_code(self) -> bool {
        matches!(self, AccessKind::Code | AccessKind::CodePrefetch)
    }
}

/// Result of a hierarchy access.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AccessOutcome {
    /// Observed load-to-use latency in cycles.
    pub latency: u64,
    /// Level whose copy satisfied the request. For a request merged with an
    /// in-flight fill, this is the level the fill was fetched from.
    pub hit_level: Level,
    /// True when the request was satisfied by (merged into) an in-flight
    /// fill rather than a resident copy.
    pub merged_in_flight: bool,
}

impl AccessOutcome {
    /// Cycle at which the data is available if the access started at
    /// `cycle`.
    pub fn ready_at(&self, cycle: u64) -> u64 {
        cycle + self.latency
    }
}

#[derive(Debug)]
struct CorePrivate {
    l1i: CacheArray,
    l1d: CacheArray,
    l2: Option<CacheArray>,
    ledger_i: InFlightLedger,
    ledger_d: InFlightLedger,
    /// In-flight fills into the private L2 (baseline stream prefetches),
    /// so mid-level prefetching pays honest memory latency.
    ledger_mid: InFlightLedger,
}

/// A multi-core cache hierarchy in one of the paper's three organisations.
///
/// All tag state is updated immediately; timing flows through the returned
/// [`AccessOutcome`]s and the per-core in-flight ledgers. The shared LLC
/// and the [`MemoryBackend`] are common to all cores.
#[derive(Debug)]
pub struct CacheHierarchy {
    kind: HierarchyKind,
    cores: Vec<CorePrivate>,
    llc: CacheArray,
    /// In-flight fills into the shared LLC (two-level stream prefetches).
    ledger_llc: InFlightLedger,
    backend: Box<dyn MemoryBackend>,
    traffic: TrafficStats,
    timeliness: PrefetchTimeliness,
    llc_hit_latency: u64,
    ring: Option<crate::config::RingConfig>,
    /// Always-on data-side MSHR (in-flight ledger) occupancy, sampled at
    /// every demand L1D miss.
    mshr_occ: OccupancyHist,
    obs: Obs,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by `config` over `backend`.
    pub fn new(config: &HierarchyConfig, backend: Box<dyn MemoryBackend>) -> Self {
        let cores = (0..config.cores)
            .map(|_| CorePrivate {
                l1i: CacheArray::new(&config.l1i),
                l1d: CacheArray::new(&config.l1d),
                l2: config.has_l2().then(|| CacheArray::new(&config.l2)),
                ledger_i: InFlightLedger::new(),
                ledger_d: InFlightLedger::new(),
                ledger_mid: InFlightLedger::new(),
            })
            .collect();
        CacheHierarchy {
            kind: config.kind,
            cores,
            llc: CacheArray::new(&config.llc),
            ledger_llc: InFlightLedger::new(),
            backend,
            traffic: TrafficStats::default(),
            timeliness: PrefetchTimeliness::default(),
            llc_hit_latency: config.llc.latency,
            ring: config.ring,
            mshr_occ: OccupancyHist::new(),
            obs: Obs::off(),
        }
    }

    /// Does nothing: the hierarchy posts no wake hints, because the
    /// core's own completion reservation for a demand access already
    /// covers the cycle its fill lands. Kept for existing callers.
    pub fn enable_wake_hints(&mut self) {}

    /// Attaches an observability handle; subsequent accesses emit
    /// cache-class events through it. Detached by default.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// LLC latency observed by `core` for `line`, including ring hops to
    /// the slice holding the line when the NUCA model is enabled.
    fn llc_latency_for(&self, core: usize, line: LineAddr) -> u64 {
        let base = self.llc.latency();
        match self.ring {
            None => base,
            Some(ring) => {
                let slices = ring.slices.max(1);
                let slice = (line.get() % slices as u64) as usize;
                let dist = core.abs_diff(slice) % slices;
                let hops = dist.min(slices - dist) as u64;
                base + hops * ring.hop_cycles
            }
        }
    }

    /// Organisation kind.
    pub fn kind(&self) -> HierarchyKind {
        self.kind
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Adds `extra` cycles to the hit latency of one level on every core
    /// (Figures 3 and 15).
    pub fn add_level_latency(&mut self, level: Level, extra: u64) {
        match level {
            Level::L1 => {
                for c in &mut self.cores {
                    c.l1i.add_latency(extra);
                    c.l1d.add_latency(extra);
                }
            }
            Level::L2 => {
                for c in &mut self.cores {
                    if let Some(l2) = c.l2.as_mut() {
                        l2.add_latency(extra);
                    }
                }
            }
            Level::Llc => {
                self.llc.add_latency(extra);
                self.llc_hit_latency += extra;
            }
            Level::Memory => {}
        }
    }

    /// Hit latency of a level as seen by `core` (memory returns the LLC
    /// latency plus a typical DRAM access is *not* folded in here; use the
    /// backend for that).
    pub fn level_latency(&self, core: usize, level: Level) -> u64 {
        match level {
            Level::L1 => self.cores[core].l1d.latency(),
            Level::L2 => self.cores[core]
                .l2
                .as_ref()
                .map(|l2| l2.latency())
                .unwrap_or_else(|| self.llc.latency()),
            Level::Llc | Level::Memory => self.llc.latency(),
        }
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.cores.iter().map(|c| *c.l1i.stats()).collect(),
            l1d: self.cores.iter().map(|c| *c.l1d.stats()).collect(),
            l2: self
                .cores
                .iter()
                .filter_map(|c| c.l2.as_ref().map(|l2| *l2.stats()))
                .collect(),
            llc: *self.llc.stats(),
            traffic: self.traffic,
            timeliness: self.timeliness,
            mshr_occ: self.mshr_occ,
        }
    }

    /// Resets all statistics (e.g. at the end of warm-up) while keeping
    /// cache contents.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.l1i.reset_stats();
            c.l1d.reset_stats();
            if let Some(l2) = c.l2.as_mut() {
                l2.reset_stats();
            }
        }
        self.llc.reset_stats();
        self.traffic = TrafficStats::default();
        self.timeliness = PrefetchTimeliness::default();
        self.mshr_occ = OccupancyHist::new();
        self.backend.reset_stats();
    }

    /// Probes where `line` would be found for `core` without disturbing any
    /// state. Used by the oracle studies.
    pub fn probe_level(&self, core: usize, code: bool, line: LineAddr) -> Level {
        let c = &self.cores[core];
        let l1 = if code { &c.l1i } else { &c.l1d };
        if l1.probe(line) {
            return Level::L1;
        }
        if let Some(l2) = c.l2.as_ref() {
            if l2.probe(line) {
                return Level::L2;
            }
        }
        if self.llc.probe(line) {
            return Level::Llc;
        }
        Level::Memory
    }

    /// Every level where `line` is simultaneously resident for `core`,
    /// innermost first (pure tag inspection; no state disturbed). Unlike
    /// [`CacheHierarchy::probe_level`], which stops at the innermost hit,
    /// this reports *all* copies — the invariant tests use it to check
    /// exclusivity (a line never duplicated between L2 and an exclusive
    /// LLC) and inclusion (upper copies always backed by the LLC).
    pub fn resident_levels(&self, core: usize, code: bool, line: LineAddr) -> Vec<Level> {
        let c = &self.cores[core];
        let mut levels = Vec::new();
        let l1 = if code { &c.l1i } else { &c.l1d };
        if l1.probe(line) {
            levels.push(Level::L1);
        }
        if c.l2.as_ref().is_some_and(|l2| l2.probe(line)) {
            levels.push(Level::L2);
        }
        if self.llc.probe(line) {
            levels.push(Level::Llc);
        }
        levels
    }

    /// True if a fill of `line` into core `core`'s L1 is still in flight.
    pub fn is_fill_pending(&self, core: usize, code: bool, line: LineAddr, now: u64) -> bool {
        let c = &self.cores[core];
        let ledger = if code { &c.ledger_i } else { &c.ledger_d };
        ledger.is_pending(line, now) || ledger.contains(line)
    }

    /// Read access to the backend (downcast via
    /// [`MemoryBackend::as_any`] for concrete statistics).
    pub fn backend(&self) -> &dyn MemoryBackend {
        self.backend.as_ref()
    }

    /// Performs an access for `core` of the given `kind` to `line` starting
    /// at `cycle`, returning the observed latency and source level.
    ///
    /// Prefetch kinds never stall the core: the returned latency is the
    /// fill latency, which the caller typically ignores (it is recorded in
    /// the ledger).
    pub fn access(
        &mut self,
        core: usize,
        kind: AccessKind,
        line: LineAddr,
        cycle: u64,
    ) -> AccessOutcome {
        assert!(core < self.cores.len(), "core index out of range");
        if kind.is_demand() {
            self.demand_access(core, kind, line, cycle)
        } else {
            self.prefetch_access(core, kind, line, cycle)
        }
    }

    /// Functional-warmup access for sampled simulation: updates tag,
    /// replacement, dirty and backend row-buffer state exactly as a
    /// demand access would — including outer-level walks, fills and
    /// victim handling — but records no in-flight fill, so the line is
    /// immediately usable when detailed simulation resumes. Counter
    /// changes made here land in the fast-forwarded (unmeasured) gaps
    /// between snapshots and never enter reconstructed statistics.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a demand kind or `core` is out of range.
    pub fn warm_access(&mut self, core: usize, kind: AccessKind, line: LineAddr, cycle: u64) {
        assert!(kind.is_demand(), "warm_access models demand accesses only");
        assert!(core < self.cores.len(), "core index out of range");
        let code = kind.is_code();
        let is_store = kind == AccessKind::Store;
        let l1_hit = {
            let c = &mut self.cores[core];
            let l1 = if code { &mut c.l1i } else { &mut c.l1d };
            let hit = l1.lookup(line);
            if hit && is_store {
                l1.mark_dirty(line);
            }
            hit
        };
        if l1_hit {
            // Drop any stale in-flight record; warm fills are instant.
            let c = &mut self.cores[core];
            let ledger = if code {
                &mut c.ledger_i
            } else {
                &mut c.ledger_d
            };
            let _ = ledger.consume(line);
            return;
        }
        let _ = self.outer_walk(core, code, line, cycle, false);
        self.fill_l1(core, code, line, is_store, false, cycle);
    }

    fn demand_access(
        &mut self,
        core: usize,
        kind: AccessKind,
        line: LineAddr,
        cycle: u64,
    ) -> AccessOutcome {
        let code = kind.is_code();
        let is_store = kind == AccessKind::Store;

        // 1. L1 lookup.
        let l1_hit = {
            let c = &mut self.cores[core];
            let l1 = if code { &mut c.l1i } else { &mut c.l1d };
            let hit = l1.lookup(line);
            if hit && is_store {
                l1.mark_dirty(line);
            }
            hit
        };
        let l1_latency = {
            let c = &self.cores[core];
            if code {
                c.l1i.latency()
            } else {
                c.l1d.latency()
            }
        };

        if l1_hit {
            self.obs.emit(EventClass::CACHE, || Event {
                cycle,
                core: core as u32,
                kind: EventKind::CacheHit {
                    level: l1_obs_level(code),
                    line: line.get(),
                },
            });
        } else {
            self.obs.emit(EventClass::CACHE, || Event {
                cycle,
                core: core as u32,
                kind: EventKind::CacheMiss {
                    level: l1_obs_level(code),
                    line: line.get(),
                },
            });
            if !code {
                // Always-on MSHR pressure sample at the demand miss.
                let used = self.cores[core].ledger_d.len() as u64;
                self.mshr_occ.record(used, MSHR_OCC_CAP);
                self.obs.emit(EventClass::OCCUPANCY, || Event {
                    cycle,
                    core: core as u32,
                    kind: EventKind::CacheMshrOccupancy { used: used as u32 },
                });
            }
        }

        if l1_hit {
            // Possibly an in-flight fill: pay the remaining latency.
            let c = &mut self.cores[core];
            let ledger = if code {
                &mut c.ledger_i
            } else {
                &mut c.ledger_d
            };
            if let Some(fill) = ledger.consume(line) {
                let remaining = fill.remaining(cycle);
                let latency = l1_latency.max(remaining);
                if let FillOrigin::Prefetch { source, tact } = fill.origin {
                    if tact {
                        self.record_timeliness(core, latency, source, cycle);
                    }
                    return AccessOutcome {
                        latency,
                        hit_level: source,
                        merged_in_flight: remaining > 0,
                    };
                }
                return AccessOutcome {
                    latency,
                    hit_level: Level::L1,
                    merged_in_flight: remaining > 0,
                };
            }
            return AccessOutcome {
                latency: l1_latency,
                hit_level: Level::L1,
                merged_in_flight: false,
            };
        }

        // 2. Walk the outer levels.
        let (source, total_latency) = self.outer_walk(core, code, line, cycle, false);

        // 3. Fill into L1 (write-allocate for stores).
        self.fill_l1(core, code, line, is_store, false, cycle);
        let c = &mut self.cores[core];
        let ledger = if code {
            &mut c.ledger_i
        } else {
            &mut c.ledger_d
        };
        ledger.insert(
            line,
            InFlight {
                ready: cycle + total_latency,
                origin: FillOrigin::Demand,
            },
        );

        AccessOutcome {
            latency: total_latency.max(l1_latency),
            hit_level: source,
            merged_in_flight: false,
        }
    }

    fn prefetch_access(
        &mut self,
        core: usize,
        kind: AccessKind,
        line: LineAddr,
        cycle: u64,
    ) -> AccessOutcome {
        let code = kind.is_code();
        let tact = matches!(kind, AccessKind::TactPrefetch | AccessKind::CodePrefetch);

        match kind {
            AccessKind::TactPrefetch | AccessKind::L1Prefetch | AccessKind::CodePrefetch => {
                // Already resident or in flight: nothing to do.
                {
                    let c = &self.cores[core];
                    let (l1, ledger) = if code {
                        (&c.l1i, &c.ledger_i)
                    } else {
                        (&c.l1d, &c.ledger_d)
                    };
                    if l1.probe(line) || ledger.is_pending(line, cycle) {
                        return AccessOutcome {
                            latency: 0,
                            hit_level: Level::L1,
                            merged_in_flight: false,
                        };
                    }
                }
                let (source, total_latency) = self.outer_walk(core, code, line, cycle, true);
                self.fill_l1(core, code, line, false, true, cycle);
                let c = &mut self.cores[core];
                let ledger = if code {
                    &mut c.ledger_i
                } else {
                    &mut c.ledger_d
                };
                ledger.insert(
                    line,
                    InFlight {
                        ready: cycle + total_latency,
                        origin: FillOrigin::Prefetch { source, tact },
                    },
                );
                if tact && !code {
                    self.timeliness.issued += 1;
                    match source {
                        Level::L2 => self.timeliness.from_l2 += 1,
                        Level::Llc => self.timeliness.from_llc += 1,
                        Level::Memory => self.timeliness.from_memory += 1,
                        Level::L1 => {}
                    }
                }
                AccessOutcome {
                    latency: total_latency,
                    hit_level: source,
                    merged_in_flight: false,
                }
            }
            AccessKind::L2Prefetch => self.mid_level_prefetch(core, line, cycle),
            _ => unreachable!("demand kinds handled by demand_access"),
        }
    }

    /// Baseline stream prefetch into the L2 (or the LLC when no L2 exists).
    fn mid_level_prefetch(&mut self, core: usize, line: LineAddr, cycle: u64) -> AccessOutcome {
        let has_l2 = self.cores[core].l2.is_some();
        if has_l2 {
            {
                let c = &self.cores[core];
                let l2 = c.l2.as_ref().expect("checked has_l2");
                if l2.probe(line) || c.ledger_mid.is_pending(line, cycle) {
                    return AccessOutcome {
                        latency: 0,
                        hit_level: Level::L2,
                        merged_in_flight: false,
                    };
                }
            }
            // Fetch from LLC or memory into the L2.
            self.traffic.llc_requests += 1;
            let llc_hit = self.llc.lookup(line);
            let (source, latency) = if llc_hit {
                if self.kind == HierarchyKind::ThreeLevelExclusive {
                    self.llc.invalidate(line);
                    self.obs.emit(EventClass::CACHE, || Event {
                        cycle,
                        core: core as u32,
                        kind: EventKind::ExclusiveMigrate { line: line.get() },
                    });
                }
                (Level::Llc, self.llc.latency())
            } else {
                let dram = self.backend.access(line, cycle, false);
                self.traffic.dram_reads += 1;
                if self.kind == HierarchyKind::ThreeLevelInclusive {
                    self.fill_llc_inclusive(line, false, true, cycle, core);
                }
                (Level::Memory, self.llc.latency() + dram)
            };
            self.traffic.llc_replies += 1;
            self.fill_l2(core, line, false, true, cycle);
            self.cores[core].ledger_mid.insert(
                line,
                InFlight {
                    ready: cycle + latency,
                    origin: FillOrigin::Prefetch {
                        source,
                        tact: false,
                    },
                },
            );
            AccessOutcome {
                latency,
                hit_level: source,
                merged_in_flight: false,
            }
        } else {
            // Two-level organisation: the stream prefetcher fills the LLC.
            if self.llc.probe(line) || self.ledger_llc.is_pending(line, cycle) {
                return AccessOutcome {
                    latency: 0,
                    hit_level: Level::Llc,
                    merged_in_flight: false,
                };
            }
            let dram = self.backend.access(line, cycle, false);
            self.traffic.dram_reads += 1;
            let victim = self.llc.fill(line, false, true);
            self.handle_llc_victim(victim, cycle);
            let latency = self.llc.latency() + dram;
            self.ledger_llc.insert(
                line,
                InFlight {
                    ready: cycle + latency,
                    origin: FillOrigin::Prefetch {
                        source: Level::Memory,
                        tact: false,
                    },
                },
            );
            AccessOutcome {
                latency,
                hit_level: Level::Memory,
                merged_in_flight: false,
            }
        }
    }

    /// Walks L2 → LLC → memory for a request that missed the L1, updating
    /// tag state and traffic counters, and returns `(source level, total
    /// round-trip latency)`.
    fn outer_walk(
        &mut self,
        core: usize,
        code: bool,
        line: LineAddr,
        cycle: u64,
        prefetched: bool,
    ) -> (Level, u64) {
        let _ = code;
        // L2, if present.
        if self.cores[core].l2.is_some() {
            let l2_hit = {
                let l2 = self.cores[core].l2.as_mut().expect("L2 present");
                l2.lookup(line)
            };
            let l2_latency = self.cores[core].l2.as_ref().expect("L2 present").latency();
            if l2_hit {
                self.obs.emit(EventClass::CACHE, || Event {
                    cycle,
                    core: core as u32,
                    kind: EventKind::CacheHit {
                        level: ObsLevel::L2,
                        line: line.get(),
                    },
                });
                // A line still being filled by a mid-level prefetch is
                // only as close as the fill's remaining latency.
                if let Some(fill) = self.cores[core].ledger_mid.consume(line) {
                    return (Level::L2, l2_latency.max(fill.remaining(cycle)));
                }
                return (Level::L2, l2_latency);
            }
            self.obs.emit(EventClass::CACHE, || Event {
                cycle,
                core: core as u32,
                kind: EventKind::CacheMiss {
                    level: ObsLevel::L2,
                    line: line.get(),
                },
            });
            // LLC.
            self.traffic.llc_requests += 1;
            let llc_hit = self.llc.lookup(line);
            if llc_hit {
                self.obs.emit(EventClass::CACHE, || Event {
                    cycle,
                    core: core as u32,
                    kind: EventKind::CacheHit {
                        level: ObsLevel::Llc,
                        line: line.get(),
                    },
                });
                if self.kind == HierarchyKind::ThreeLevelExclusive {
                    // Exclusive move: the line leaves the LLC for the L2.
                    self.llc.invalidate(line);
                    self.obs.emit(EventClass::CACHE, || Event {
                        cycle,
                        core: core as u32,
                        kind: EventKind::ExclusiveMigrate { line: line.get() },
                    });
                }
                self.traffic.llc_replies += 1;
                self.fill_l2(core, line, false, prefetched, cycle);
                return (Level::Llc, self.llc_latency_for(core, line));
            }
            self.obs.emit(EventClass::CACHE, || Event {
                cycle,
                core: core as u32,
                kind: EventKind::CacheMiss {
                    level: ObsLevel::Llc,
                    line: line.get(),
                },
            });
            // Another core may hold the only on-die copy (exclusive LLC
            // does not track private lines). Inclusive LLCs cannot miss
            // while a private copy exists, so the snoop is skipped there.
            if self.kind == HierarchyKind::ThreeLevelExclusive
                && self.snoop_other_cores(core, code, line)
            {
                self.traffic.llc_replies += 1;
                self.fill_l2(core, line, false, prefetched, cycle);
                return (Level::Llc, self.c2c_latency());
            }
            // Memory.
            let dram = self.backend.access(line, cycle, false);
            self.traffic.dram_reads += 1;
            self.traffic.llc_replies += 1;
            if self.kind == HierarchyKind::ThreeLevelInclusive {
                self.fill_llc_inclusive(line, false, prefetched, cycle, core);
            }
            self.fill_l2(core, line, false, prefetched, cycle);
            (Level::Memory, self.llc_latency_for(core, line) + dram)
        } else {
            // Two-level: straight to the LLC.
            self.traffic.llc_requests += 1;
            let llc_hit = self.llc.lookup(line);
            if llc_hit {
                self.obs.emit(EventClass::CACHE, || Event {
                    cycle,
                    core: core as u32,
                    kind: EventKind::CacheHit {
                        level: ObsLevel::Llc,
                        line: line.get(),
                    },
                });
                self.traffic.llc_replies += 1;
                let base = self.llc_latency_for(core, line);
                if let Some(fill) = self.ledger_llc.consume(line) {
                    return (Level::Llc, base.max(fill.remaining(cycle)));
                }
                return (Level::Llc, base);
            }
            self.obs.emit(EventClass::CACHE, || Event {
                cycle,
                core: core as u32,
                kind: EventKind::CacheMiss {
                    level: ObsLevel::Llc,
                    line: line.get(),
                },
            });
            if self.snoop_other_cores(core, code, line) {
                self.traffic.llc_replies += 1;
                let victim = self.llc.fill(line, false, prefetched);
                self.handle_llc_victim(victim, cycle);
                return (Level::Llc, self.c2c_latency());
            }
            let dram = self.backend.access(line, cycle, false);
            self.traffic.dram_reads += 1;
            self.traffic.llc_replies += 1;
            let victim = self.llc.fill(line, false, prefetched);
            self.handle_llc_victim(victim, cycle);
            (Level::Memory, self.llc_latency_for(core, line) + dram)
        }
    }

    /// Probes every *other* core's private caches for `line` (the
    /// coherence snoop an exclusive LLC needs, since private copies are
    /// not tracked in its tags). Returns true on a snoop hit; the owner's
    /// copy stays resident (shared data remains shared).
    fn snoop_other_cores(&mut self, requester: usize, code: bool, line: LineAddr) -> bool {
        let mut found = false;
        for (i, c) in self.cores.iter().enumerate() {
            if i == requester {
                continue;
            }
            let hit = if code {
                c.l1i.probe(line)
            } else {
                c.l1d.probe(line) || c.l2.as_ref().map(|l2| l2.probe(line)).unwrap_or(false)
            };
            if hit {
                found = true;
                break;
            }
        }
        if found {
            self.traffic.c2c_transfers += 1;
        }
        found
    }

    /// Latency of a cache-to-cache transfer (snoop + cross-core data
    /// movement over the interconnect).
    fn c2c_latency(&self) -> u64 {
        self.llc.latency() + self.llc.latency() / 2
    }

    /// Fills `line` into the chosen L1, handling the victim writeback.
    fn fill_l1(
        &mut self,
        core: usize,
        code: bool,
        line: LineAddr,
        dirty: bool,
        prefetched: bool,
        cycle: u64,
    ) {
        self.obs.emit(EventClass::CACHE, || Event {
            cycle,
            core: core as u32,
            kind: EventKind::CacheFill {
                level: l1_obs_level(code),
                line: line.get(),
            },
        });
        let victim = {
            let c = &mut self.cores[core];
            let l1 = if code { &mut c.l1i } else { &mut c.l1d };
            l1.fill(line, dirty, prefetched)
        };
        if let Some(v) = victim {
            {
                let c = &mut self.cores[core];
                let ledger = if code {
                    &mut c.ledger_i
                } else {
                    &mut c.ledger_d
                };
                ledger.evict(v.line);
            }
            if v.dirty {
                if self.cores[core].l2.is_some() {
                    // Dirty L1 victims merge into the L2. Under exclusion
                    // the line may have been L2-evicted into the LLC while
                    // still live in the L1; the newer dirty data supersedes
                    // that stale LLC copy, so drop it to restore the
                    // single-on-die-copy invariant.
                    if self.kind == HierarchyKind::ThreeLevelExclusive {
                        self.llc.invalidate(v.line);
                    }
                    self.fill_l2(core, v.line, true, false, cycle);
                } else {
                    // Two-level: dirty L1 victims write to the LLC.
                    self.traffic.llc_writebacks += 1;
                    if !self.llc.mark_dirty(v.line) {
                        let victim = self.llc.fill(v.line, true, false);
                        self.handle_llc_victim(victim, 0);
                    }
                }
            }
        }
    }

    /// Fills `line` into core `core`'s L2, handling the victim per policy.
    fn fill_l2(&mut self, core: usize, line: LineAddr, dirty: bool, prefetched: bool, cycle: u64) {
        self.obs.emit(EventClass::CACHE, || Event {
            cycle,
            core: core as u32,
            kind: EventKind::CacheFill {
                level: ObsLevel::L2,
                line: line.get(),
            },
        });
        let victim = {
            let l2 = self.cores[core]
                .l2
                .as_mut()
                .expect("fill_l2 requires an L2");
            l2.fill(line, dirty, prefetched)
        };
        let Some(v) = victim else { return };
        match self.kind {
            HierarchyKind::ThreeLevelExclusive => {
                // Exclusive LLC allocates every L2 victim (clean or dirty).
                self.traffic.llc_writebacks += 1;
                let llc_victim = self.llc.fill(v.line, v.dirty, false);
                self.handle_llc_victim(llc_victim, 0);
            }
            HierarchyKind::ThreeLevelInclusive => {
                // Inclusive LLC already has the line; only dirty data moves.
                if v.dirty {
                    self.traffic.llc_writebacks += 1;
                    if !self.llc.mark_dirty(v.line) {
                        // Raced with an LLC eviction; write through to DRAM.
                        self.backend.access(v.line, 0, true);
                        self.traffic.dram_writes += 1;
                    }
                }
            }
            HierarchyKind::TwoLevelNoL2 => unreachable!("no L2 in two-level mode"),
        }
    }

    /// Fills into an inclusive LLC, back-invalidating private copies of the
    /// victim in every core. `cycle`/`requester` only attribute events.
    fn fill_llc_inclusive(
        &mut self,
        line: LineAddr,
        dirty: bool,
        prefetched: bool,
        cycle: u64,
        requester: usize,
    ) {
        self.obs.emit(EventClass::CACHE, || Event {
            cycle,
            core: requester as u32,
            kind: EventKind::CacheFill {
                level: ObsLevel::Llc,
                line: line.get(),
            },
        });
        let victim = self.llc.fill(line, dirty, prefetched);
        if let Some(v) = victim {
            let mut any_dirty = v.dirty;
            for (i, c) in self.cores.iter_mut().enumerate() {
                self.traffic.back_invalidates += 1;
                if c.l1i.invalidate(v.line).is_some() {
                    c.ledger_i.evict(v.line);
                    self.obs.emit(EventClass::CACHE, || Event {
                        cycle,
                        core: i as u32,
                        kind: EventKind::BackInvalidate {
                            level: ObsLevel::L1i,
                            line: v.line.get(),
                        },
                    });
                }
                if let Some(d) = c.l1d.invalidate(v.line) {
                    any_dirty |= d;
                    c.ledger_d.evict(v.line);
                    self.obs.emit(EventClass::CACHE, || Event {
                        cycle,
                        core: i as u32,
                        kind: EventKind::BackInvalidate {
                            level: ObsLevel::L1d,
                            line: v.line.get(),
                        },
                    });
                }
                if let Some(l2) = c.l2.as_mut() {
                    if let Some(d) = l2.invalidate(v.line) {
                        any_dirty |= d;
                        self.obs.emit(EventClass::CACHE, || Event {
                            cycle,
                            core: i as u32,
                            kind: EventKind::BackInvalidate {
                                level: ObsLevel::L2,
                                line: v.line.get(),
                            },
                        });
                    }
                }
            }
            if any_dirty {
                self.backend.access(v.line, 0, true);
                self.traffic.dram_writes += 1;
            }
        }
    }

    fn handle_llc_victim(&mut self, victim: Option<crate::array::Victim>, cycle: u64) {
        if let Some(v) = victim {
            if self.kind == HierarchyKind::ThreeLevelInclusive {
                // Handled by fill_llc_inclusive; this path is for
                // exclusive / two-level organisations only.
            }
            if v.dirty {
                self.backend.access(v.line, cycle, true);
                self.traffic.dram_writes += 1;
            }
        }
    }

    /// Classifies how much of the LLC hit latency a consumed TACT
    /// prefetch hid (Figure 11), and reports it as a timeliness event.
    fn record_timeliness(&mut self, core: usize, observed: u64, source: Level, cycle: u64) {
        self.timeliness.used += 1;
        // Zero-denominator guard: an LLC ablated to (or configured with)
        // zero hit latency, or a run where the LLC was never timed, must
        // not turn the saved fraction into NaN — classify against a floor
        // of one cycle instead.
        let llc = self.llc_hit_latency.max(1);
        let saved = llc.saturating_sub(observed) as f64 / llc as f64;
        debug_assert!(
            saved.is_finite() && (0.0..=1.0).contains(&saved),
            "timeliness fraction out of range: {saved}"
        );
        if saved > 0.8 {
            self.timeliness.saved_over_80 += 1;
        } else if saved >= 0.1 {
            self.timeliness.saved_10_to_80 += 1;
        } else {
            self.timeliness.saved_under_10 += 1;
        }
        self.obs.emit(EventClass::TACT, || Event {
            cycle,
            core: core as u32,
            kind: EventKind::TactTimely {
                source: match source {
                    Level::L1 => ObsLevel::L1d,
                    Level::L2 => ObsLevel::L2,
                    Level::Llc => ObsLevel::Llc,
                    Level::Memory => ObsLevel::Memory,
                },
                saved_pct: (saved * 100.0).round() as u8,
            },
        });
    }

    /// Periodic ledger cleanup; call occasionally with the current cycle.
    pub fn maintain(&mut self, now: u64) {
        let horizon = now.saturating_sub(100_000);
        for c in &mut self.cores {
            c.ledger_i.retire_older_than(horizon);
            c.ledger_d.retire_older_than(horizon);
            c.ledger_mid.retire_older_than(horizon);
        }
        self.ledger_llc.retire_older_than(horizon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn exclusive() -> CacheHierarchy {
        CacheHierarchy::new(
            &HierarchyConfig::skylake_server(1),
            Box::new(FixedLatencyBackend::new(200)),
        )
    }

    fn inclusive() -> CacheHierarchy {
        CacheHierarchy::new(
            &HierarchyConfig::skylake_client(1),
            Box::new(FixedLatencyBackend::new(200)),
        )
    }

    fn two_level() -> CacheHierarchy {
        CacheHierarchy::new(
            &HierarchyConfig::skylake_server(1).without_l2(6656 << 10),
            Box::new(FixedLatencyBackend::new(200)),
        )
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn cold_miss_pays_memory_latency() {
        let mut h = exclusive();
        let out = h.access(0, AccessKind::Load, line(1), 0);
        assert_eq!(out.hit_level, Level::Memory);
        assert_eq!(out.latency, 40 + 200);
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = exclusive();
        let miss = h.access(0, AccessKind::Load, line(1), 0);
        let hit = h.access(0, AccessKind::Load, line(1), miss.ready_at(0));
        assert_eq!(hit.hit_level, Level::L1);
        assert_eq!(hit.latency, 5);
    }

    #[test]
    fn demand_merge_sees_remaining_latency() {
        let mut h = exclusive();
        let miss = h.access(0, AccessKind::Load, line(1), 0);
        assert_eq!(miss.latency, 240);
        // Second access 100 cycles in: 140 remaining.
        let merged = h.access(0, AccessKind::Load, line(1), 100);
        assert!(merged.merged_in_flight);
        assert_eq!(merged.latency, 140);
        // After data arrival: plain L1 hit.
        let hit = h.access(0, AccessKind::Load, line(1), 400);
        assert!(!hit.merged_in_flight);
        assert_eq!(hit.latency, 5);
    }

    #[test]
    fn warm_access_makes_line_immediately_resident() {
        let mut h = exclusive();
        h.warm_access(0, AccessKind::Load, line(9), 0);
        // No in-flight fill: a demand access on the very next cycle is a
        // plain L1 hit with no merged latency.
        let hit = h.access(0, AccessKind::Load, line(9), 1);
        assert_eq!(hit.hit_level, Level::L1);
        assert!(!hit.merged_in_flight);
        assert_eq!(hit.latency, 5);
    }

    #[test]
    fn warm_store_marks_line_dirty() {
        let mut h = exclusive();
        h.warm_access(0, AccessKind::Store, line(3), 0);
        // Evicting the dirty warmed line must count a dirty eviction:
        // conflict-fill the L1 set (64 sets in the L1D).
        let sets = 64;
        for i in 1..=16 {
            h.warm_access(0, AccessKind::Load, line(3 + i * sets), 0);
        }
        assert!(h.stats().l1d[0].dirty_evictions > 0);
    }

    #[test]
    #[should_panic(expected = "demand accesses only")]
    fn warm_access_rejects_prefetch_kinds() {
        let mut h = exclusive();
        h.warm_access(0, AccessKind::L1Prefetch, line(1), 0);
    }

    #[test]
    fn exclusive_llc_hit_moves_line_to_l2() {
        let mut h = exclusive();
        // Fill a line, then evict it from L1+L2 indirectly is hard; instead
        // prefetch into L2 via stream path, then check exclusive move.
        h.access(0, AccessKind::Load, line(1), 0);
        // Line is in L1 + L2 (fill path), not LLC (exclusive, from memory).
        assert!(!h.llc.probe(line(1)));
        // Evict from L2 by filling conflicting lines: L2 has 1024 sets; use
        // same-set lines (stride of set count).
        let sets = 1024;
        for i in 1..=16 {
            h.access(0, AccessKind::Load, line(1 + i * sets), 0);
        }
        // Line 1 should have been evicted from L2 into the LLC.
        assert!(h.llc.probe(line(1)));
        // L1 still holds it though (L1 has 64 sets; different conflicts).
    }

    #[test]
    fn inclusive_memory_fill_populates_all_levels() {
        let mut h = inclusive();
        h.access(0, AccessKind::Load, line(7), 0);
        assert!(h.llc.probe(line(7)));
        assert!(h.cores[0].l2.as_ref().unwrap().probe(line(7)));
        assert!(h.cores[0].l1d.probe(line(7)));
    }

    #[test]
    fn two_level_walks_l1_llc_memory() {
        let mut h = two_level();
        let out = h.access(0, AccessKind::Load, line(3), 0);
        assert_eq!(out.hit_level, Level::Memory);
        assert_eq!(out.latency, 240);
        assert!(h.llc.probe(line(3)));
        let hit = h.access(0, AccessKind::Load, line(3), 300);
        assert_eq!(hit.hit_level, Level::L1);
        // LLC hit from the other path:
        let sets = 64; // L1 sets
        for i in 1..=8 {
            h.access(0, AccessKind::Load, line(3 + i * sets), 300);
        }
        let llc_hit = h.access(0, AccessKind::Load, line(3), 1000);
        assert_eq!(llc_hit.hit_level, Level::Llc);
        assert_eq!(llc_hit.latency, 40);
    }

    #[test]
    fn tact_prefetch_hides_llc_latency() {
        let mut h = two_level();
        // Install in LLC.
        h.access(0, AccessKind::Load, line(5), 0);
        let sets = 64;
        for i in 1..=8 {
            h.access(0, AccessKind::Load, line(5 + i * sets), 0);
        }
        assert_eq!(h.probe_level(0, false, line(5)), Level::Llc);
        // TACT prefetch at cycle 1000; demand at 1050 (fully timely).
        let pf = h.access(0, AccessKind::TactPrefetch, line(5), 1000);
        assert_eq!(pf.hit_level, Level::Llc);
        let demand = h.access(0, AccessKind::Load, line(5), 1050);
        assert_eq!(demand.latency, 5);
        assert_eq!(demand.hit_level, Level::Llc); // source attribution
        let t = h.stats().timeliness;
        assert_eq!(t.issued, 1);
        assert_eq!(t.from_llc, 1);
        assert_eq!(t.used, 1);
        assert_eq!(t.saved_over_80, 1);
    }

    #[test]
    fn late_tact_prefetch_partially_saves() {
        let mut h = two_level();
        h.access(0, AccessKind::Load, line(5), 0);
        let sets = 64;
        for i in 1..=8 {
            h.access(0, AccessKind::Load, line(5 + i * sets), 0);
        }
        // Prefetch at 1000 (ready 1040); demand at 1010 → 30 remaining.
        h.access(0, AccessKind::TactPrefetch, line(5), 1000);
        let demand = h.access(0, AccessKind::Load, line(5), 1010);
        assert_eq!(demand.latency, 30);
        assert!(demand.merged_in_flight);
        let t = h.stats().timeliness;
        assert_eq!(t.saved_10_to_80, 1); // saved 10/40 = 25%
    }

    #[test]
    fn duplicate_prefetch_is_dropped() {
        let mut h = two_level();
        h.access(0, AccessKind::TactPrefetch, line(9), 0);
        let before = h.stats().timeliness.issued;
        h.access(0, AccessKind::TactPrefetch, line(9), 1);
        assert_eq!(h.stats().timeliness.issued, before);
    }

    #[test]
    fn store_marks_line_dirty_and_writes_back() {
        let mut h = two_level();
        h.access(0, AccessKind::Store, line(1), 0);
        // Evict from L1 via conflicting fills -> dirty writeback to LLC.
        let sets = 64;
        for i in 1..=8 {
            h.access(0, AccessKind::Load, line(1 + i * sets), 0);
        }
        assert!(h.stats().traffic.llc_writebacks >= 1);
    }

    #[test]
    fn code_accesses_use_l1i() {
        let mut h = exclusive();
        h.access(0, AccessKind::Code, line(100), 0);
        assert!(h.cores[0].l1i.probe(line(100)));
        assert!(!h.cores[0].l1d.probe(line(100)));
    }

    #[test]
    fn per_core_isolation_of_private_caches() {
        let mut h = CacheHierarchy::new(
            &HierarchyConfig::skylake_server(2),
            Box::new(FixedLatencyBackend::new(200)),
        );
        h.access(0, AccessKind::Load, line(1), 0);
        assert!(h.cores[0].l1d.probe(line(1)));
        assert!(!h.cores[1].l1d.probe(line(1)));
        // Core 1 misses its private caches; the exclusive LLC does not
        // hold the line either, but the snoop finds core 0's copy and a
        // cache-to-cache transfer serves it on-die.
        let out = h.access(1, AccessKind::Load, line(1), 0);
        assert_eq!(out.hit_level, Level::Llc);
        assert_eq!(out.latency, 60); // 40 + 40/2
        assert_eq!(h.stats().traffic.c2c_transfers, 1);
        // Both cores now hold private copies (shared data stays shared).
        assert!(h.cores[0].l1d.probe(line(1)));
        assert!(h.cores[1].l1d.probe(line(1)));
    }

    #[test]
    fn add_level_latency_applies_to_hits() {
        let mut h = exclusive();
        h.add_level_latency(Level::L1, 3);
        h.access(0, AccessKind::Load, line(1), 0);
        let hit = h.access(0, AccessKind::Load, line(1), 500);
        assert_eq!(hit.latency, 8);
    }

    #[test]
    fn stream_prefetch_fills_l2_when_present() {
        let mut h = exclusive();
        h.access(0, AccessKind::L2Prefetch, line(42), 0);
        assert!(h.cores[0].l2.as_ref().unwrap().probe(line(42)));
        assert!(!h.cores[0].l1d.probe(line(42)));
        // Demand then hits in L2.
        let out = h.access(0, AccessKind::Load, line(42), 500);
        assert_eq!(out.hit_level, Level::L2);
        assert_eq!(out.latency, 15);
    }

    #[test]
    fn stream_prefetch_fills_llc_without_l2() {
        let mut h = two_level();
        h.access(0, AccessKind::L2Prefetch, line(42), 0);
        assert!(h.llc.probe(line(42)));
        let out = h.access(0, AccessKind::Load, line(42), 500);
        assert_eq!(out.hit_level, Level::Llc);
    }

    #[test]
    fn ring_model_adds_hop_latency_per_slice() {
        let config = HierarchyConfig::skylake_server(4)
            .without_l2(6656 << 10)
            .with_ring(4);
        let mut h = CacheHierarchy::new(&config, Box::new(FixedLatencyBackend::new(200)));
        // Install lines 0..4 in the LLC by touching from core 3 and
        // evicting L1 copies is unnecessary: access LLC residency via a
        // first fill, then measure core 0's LLC hit latency per slice.
        for l in 0..4u64 {
            h.access(3, AccessKind::L2Prefetch, line(l), 0); // fills LLC
        }
        // Core 0: slice = line % 4; hop distance = min(|0-s|, 4-|0-s|).
        let expect = |slice: u64| 40 + [0u64, 1, 2, 1][slice as usize] * 4;
        for l in 0..4u64 {
            let out = h.access(0, AccessKind::Load, line(l), 10_000 + l);
            assert_eq!(out.hit_level, Level::Llc);
            assert_eq!(out.latency, expect(l), "slice {l}");
        }
    }

    #[test]
    fn idle_llc_yields_finite_derived_metrics() {
        // Regression: a run whose LLC never observes an access (or whose
        // LLC latency is ablated to zero) must not produce NaN anywhere
        // in the derived metrics.
        let h = exclusive();
        let s = h.stats();
        assert_eq!(s.llc.accesses, 0, "LLC idle by construction");
        assert!(s.llc.hit_rate().is_finite());
        assert!(s.timeliness.llc_fraction().is_finite());
        assert!(s.timeliness.over_80_fraction().is_finite());
        assert!(s.mshr_occ.mean().is_finite());
        assert!(s.mshr_occ.fraction_at_or_above(0).is_finite());
    }

    #[test]
    fn zero_latency_llc_timeliness_stays_finite() {
        // The satellite bug: `saved = … / llc as f64` with an LLC hit
        // latency of zero. Build such a hierarchy and drive the
        // timeliness path end-to-end.
        let mut config = HierarchyConfig::skylake_server(1).without_l2(6656 << 10);
        config.llc.latency = 0;
        let mut h = CacheHierarchy::new(&config, Box::new(FixedLatencyBackend::new(200)));
        // Install in LLC, then TACT-prefetch and consume it.
        h.access(0, AccessKind::Load, line(5), 0);
        let sets = 64;
        for i in 1..=8 {
            h.access(0, AccessKind::Load, line(5 + i * sets), 0);
        }
        h.access(0, AccessKind::TactPrefetch, line(5), 1000);
        h.access(0, AccessKind::Load, line(5), 2000);
        let t = h.stats().timeliness;
        assert_eq!(t.used, 1);
        assert_eq!(
            t.saved_over_80 + t.saved_10_to_80 + t.saved_under_10,
            t.used,
            "every used prefetch lands in exactly one timeliness bucket"
        );
    }

    #[test]
    fn attached_sink_observes_cache_events() {
        use catch_obs::{EventClass, EventKind, Obs, VecSink};
        use std::sync::{Arc, Mutex};
        let sink = Arc::new(Mutex::new(VecSink::new()));
        let mut h = exclusive();
        h.set_obs(Obs::attached(sink.clone(), EventClass::ALL));
        h.access(0, AccessKind::Load, line(1), 0); // cold miss → memory
        h.access(0, AccessKind::Load, line(1), 500); // L1 hit
        let events = sink.lock().unwrap().take();
        let names: Vec<&str> = events.iter().map(|e| e.name()).collect();
        assert!(names.contains(&"cache.miss"), "{names:?}");
        assert!(names.contains(&"cache.fill"), "{names:?}");
        assert!(names.contains(&"cache.hit"), "{names:?}");
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::CacheMshrOccupancy { .. })),
            "MSHR occupancy sampled at the demand miss"
        );
        assert!(events.iter().all(|e| e.core == 0));
        // The always-on histogram saw the same miss.
        assert_eq!(h.stats().mshr_occ.samples, 1);
    }

    #[test]
    fn detached_obs_emits_nothing_and_changes_nothing() {
        let mut traced = exclusive();
        let mut plain = exclusive();
        traced.set_obs(catch_obs::Obs::off());
        for i in 0..100u64 {
            let a = traced.access(0, AccessKind::Load, line(i % 10), i * 7);
            let b = plain.access(0, AccessKind::Load, line(i % 10), i * 7);
            assert_eq!(a, b);
        }
        assert_eq!(traced.stats(), plain.stats());
    }

    #[test]
    fn reset_stats_clears_counters_keeps_contents() {
        let mut h = exclusive();
        h.access(0, AccessKind::Load, line(1), 0);
        h.reset_stats();
        let s = h.stats();
        assert_eq!(s.l1d[0].accesses, 0);
        assert_eq!(s.traffic.dram_reads, 0);
        let hit = h.access(0, AccessKind::Load, line(1), 500);
        assert_eq!(hit.hit_level, Level::L1);
    }
}
