//! Split instruction/data cache systems, the multi-configuration bank, and
//! the cycle model.

use crate::compress;
use crate::{Cache, CacheGeometry, CacheStats};
use tamsim_trace::{Access, AccessKind, Hooks, TraceLog};

/// A split I/D cache pair, as in the paper ("in all cases, we specified
/// separate instruction and write-back data caches").
#[derive(Debug, Clone)]
pub struct CacheSystem {
    /// The instruction cache (receives fetches).
    pub icache: Cache,
    /// The data cache (receives reads and writes).
    pub dcache: Cache,
}

impl CacheSystem {
    /// Build a system with the same geometry for both caches (the paper
    /// quotes one size per configuration).
    pub fn symmetric(geometry: CacheGeometry) -> Self {
        CacheSystem {
            icache: Cache::new(geometry),
            dcache: Cache::new(geometry),
        }
    }

    /// Build a system with distinct I/D geometries.
    pub fn split(i: CacheGeometry, d: CacheGeometry) -> Self {
        CacheSystem {
            icache: Cache::new(i),
            dcache: Cache::new(d),
        }
    }

    /// Summarize both caches.
    pub fn summary(&self) -> CacheSummary {
        CacheSummary {
            i: self.icache.stats,
            d: self.dcache.stats,
        }
    }

    /// Reset both caches.
    pub fn reset(&mut self) {
        self.icache.reset();
        self.dcache.reset();
    }

    /// Replay a recorded access stream into this system.
    ///
    /// Identical to feeding the same events through [`Hooks::access`]
    /// one at a time, but with the routing match inlined over a dense
    /// packed log — the hot loop of the record/replay sweep.
    pub fn replay(&mut self, log: &TraceLog) {
        for access in log {
            match access.kind {
                AccessKind::Fetch => {
                    self.icache.access(access.addr, false);
                }
                AccessKind::Read => {
                    self.dcache.access(access.addr, false);
                }
                AccessKind::Write => {
                    self.dcache.access(access.addr, true);
                }
            }
        }
    }
}

// Cache behaviour depends only on the access stream; the granularity
// callbacks keep their no-op defaults.
impl Hooks for CacheSystem {
    #[inline]
    fn access(&mut self, access: Access) {
        match access.kind {
            AccessKind::Fetch => {
                self.icache.access(access.addr, false);
            }
            AccessKind::Read => {
                self.dcache.access(access.addr, false);
            }
            AccessKind::Write => {
                self.dcache.access(access.addr, true);
            }
        }
    }
}

/// Counters of one I/D pair after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSummary {
    /// Instruction-cache counters.
    pub i: CacheStats,
    /// Data-cache counters.
    pub d: CacheStats,
}

impl CacheSummary {
    /// Total misses across both caches.
    pub fn misses(&self) -> u64 {
        self.i.misses() + self.d.misses()
    }

    /// Total dirty-block evictions (data cache only; instruction blocks
    /// are never dirtied).
    pub fn writebacks(&self) -> u64 {
        self.d.writebacks
    }
}

// Summaries of disjoint cache systems add: a K-node mesh has one private
// I/D pair per node, and its sweep-level outcome is the per-node sum.
impl std::ops::AddAssign for CacheSummary {
    fn add_assign(&mut self, rhs: CacheSummary) {
        self.i += rhs.i;
        self.d += rhs.d;
    }
}

/// The cycle model.
///
/// Per the paper: "instructions were assumed to uniformly take one cycle,
/// not counting memory access time" and comparisons use "the number of
/// total cycles (including miss penalties)". Every instruction costs one
/// base cycle; every I- or D-cache miss adds `miss_penalty`. Charging
/// write-back traffic is off by default (the paper does not charge it); the
/// `writebacks` rows of `results/ablations.csv` turn it on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleModel {
    /// Added cycles per cache miss.
    pub miss_penalty: u64,
    /// Whether dirty evictions also cost `miss_penalty`.
    pub charge_writebacks: bool,
}

impl CycleModel {
    /// The paper's model at a given miss penalty.
    pub fn paper(miss_penalty: u64) -> Self {
        CycleModel {
            miss_penalty,
            charge_writebacks: false,
        }
    }

    /// Total cycles for a run with `base_cycles` (instructions executed)
    /// and the given cache outcome.
    pub fn total_cycles(&self, base_cycles: u64, summary: &CacheSummary) -> u64 {
        let mut t = base_cycles + self.miss_penalty * summary.misses();
        if self.charge_writebacks {
            t += self.miss_penalty * summary.writebacks();
        }
        t
    }
}

/// Many cache systems fed from one trace pass.
///
/// The machine simulation is far more expensive than a cache probe, so the
/// experiment driver runs the machine once and fans each access out to
/// every configuration in the sweep.
#[derive(Debug, Clone, Default)]
pub struct CacheBank {
    systems: Vec<(CacheGeometry, CacheSystem)>,
}

impl CacheBank {
    /// A bank with one symmetric system per geometry.
    pub fn symmetric(geometries: impl IntoIterator<Item = CacheGeometry>) -> Self {
        CacheBank {
            systems: geometries
                .into_iter()
                .map(|g| (g, CacheSystem::symmetric(g)))
                .collect(),
        }
    }

    /// Number of configurations in the bank.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// Geometry and summary for every configuration.
    pub fn summaries(&self) -> Vec<(CacheGeometry, CacheSummary)> {
        self.systems
            .iter()
            .map(|(g, s)| (*g, s.summary()))
            .collect()
    }

    /// The summary for one geometry, if present.
    pub fn summary_for(&self, geometry: CacheGeometry) -> Option<CacheSummary> {
        self.systems
            .iter()
            .find(|(g, _)| *g == geometry)
            .map(|(_, s)| s.summary())
    }

    /// Score every geometry against a recorded log, in parallel.
    ///
    /// The log is stripped once per distinct block size by a chain of
    /// direct-mapped filters (see the `compress` module): level `S` keeps
    /// only the references that can change an LRU cache with `S` sets.
    /// Building the chain simulates every direct-mapped geometry of the
    /// sweep, and the pass that reads level `S` to strip the next level
    /// also runs one LRU stack per set of `S`, which scores every
    /// set-associative geometry with `S` sets at once. The raw-log strips
    /// (one per block size, reading the log once for both streams) and
    /// then the level chains (one per block size and stream) fan out
    /// through [`tamsim_trace::par_map`].
    ///
    /// Results are in `geometries` order and bit-identical to streaming
    /// the same events through a [`CacheBank`].
    pub fn replay_parallel(
        geometries: &[CacheGeometry],
        log: &TraceLog,
    ) -> Vec<(CacheGeometry, CacheSummary)> {
        compress::replay(geometries, log)
    }

    /// Score every geometry against several recorded logs — one *private*
    /// system per (geometry, log), summaries summed per geometry.
    ///
    /// This is the mesh cache model: each node owns an I/D pair, a
    /// recorded mesh run yields one log per node, and the sweep-level
    /// outcome for a geometry is the sum over all nodes' private caches.
    /// Results are in `geometries` order; each log replays through
    /// [`CacheBank::replay_parallel`], so the sweep still fans out across
    /// the worker pool.
    pub fn replay_parallel_many(
        geometries: &[CacheGeometry],
        logs: &[TraceLog],
    ) -> Vec<(CacheGeometry, CacheSummary)> {
        let mut acc: Vec<(CacheGeometry, CacheSummary)> = geometries
            .iter()
            .map(|g| (*g, CacheSummary::default()))
            .collect();
        for log in logs {
            for (slot, (g, s)) in acc.iter_mut().zip(Self::replay_parallel(geometries, log)) {
                debug_assert_eq!(slot.0, g);
                slot.1 += s;
            }
        }
        acc
    }
}

// See `CacheSystem`: marks carry no cache-visible traffic.
impl Hooks for CacheBank {
    #[inline]
    fn access(&mut self, access: Access) {
        for (_, system) in &mut self.systems {
            system.access(access);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(64, 2, 8)
    }

    #[test]
    fn routing_fetch_vs_data() {
        let mut s = CacheSystem::symmetric(geom());
        s.access(Access::fetch(0));
        s.access(Access::read(0));
        s.access(Access::write(8));
        let sum = s.summary();
        assert_eq!(sum.i.reads, 1);
        assert_eq!(sum.d.reads, 1);
        assert_eq!(sum.d.writes, 1);
        assert_eq!(sum.i.writes, 0);
    }

    #[test]
    fn icache_and_dcache_do_not_interfere() {
        let mut s = CacheSystem::symmetric(geom());
        s.access(Access::fetch(0));
        s.access(Access::read(0));
        // Both were compulsory misses despite identical addresses.
        assert_eq!(s.summary().i.read_misses, 1);
        assert_eq!(s.summary().d.read_misses, 1);
    }

    #[test]
    fn cycle_model_totals() {
        let m = CycleModel::paper(12);
        let mut sum = CacheSummary::default();
        sum.i.read_misses = 3;
        sum.d.write_misses = 2;
        sum.d.writebacks = 5;
        assert_eq!(m.total_cycles(100, &sum), 100 + 12 * 5);
        let charged = CycleModel {
            miss_penalty: 12,
            charge_writebacks: true,
        };
        assert_eq!(charged.total_cycles(100, &sum), 100 + 12 * 5 + 12 * 5);
    }

    #[test]
    fn bank_matches_individual_systems() {
        let geoms = [CacheGeometry::new(32, 1, 8), CacheGeometry::new(64, 2, 8)];
        let mut bank = CacheBank::symmetric(geoms);
        let mut solo: Vec<CacheSystem> = geoms.iter().map(|g| CacheSystem::symmetric(*g)).collect();
        let trace = [
            Access::fetch(0),
            Access::read(16),
            Access::write(16),
            Access::fetch(4),
            Access::read(48),
            Access::read(16),
        ];
        for a in trace {
            bank.access(a);
            for s in &mut solo {
                s.access(a);
            }
        }
        for (i, (g, sum)) in bank.summaries().into_iter().enumerate() {
            assert_eq!(g, geoms[i]);
            assert_eq!(sum, solo[i].summary());
        }
    }

    #[test]
    fn replay_parallel_matches_streaming_bank() {
        let geoms = [
            CacheGeometry::new(32, 1, 8),
            CacheGeometry::new(64, 2, 8),
            CacheGeometry::new(128, 4, 16),
        ];
        let mut log = TraceLog::new();
        let mut bank = CacheBank::symmetric(geoms);
        // A pseudo-random-ish stream with collisions across all geometries.
        let mut addr = 4u32;
        for i in 0..5000u32 {
            addr = (addr.wrapping_mul(1664525).wrapping_add(1013904223)) & 0x3FC;
            let a = match i % 3 {
                0 => Access::fetch(addr),
                1 => Access::read(addr),
                _ => Access::write(addr),
            };
            log.access(a);
            bank.access(a);
        }
        let parallel = CacheBank::replay_parallel(&geoms, &log);
        assert_eq!(parallel, bank.summaries());
    }

    #[test]
    fn replay_parallel_empty_geometries() {
        let log = TraceLog::new();
        assert!(CacheBank::replay_parallel(&[], &log).is_empty());
    }

    #[test]
    fn summary_for_finds_geometry() {
        let g = geom();
        let bank = CacheBank::symmetric([g]);
        assert!(bank.summary_for(g).is_some());
        assert!(bank.summary_for(CacheGeometry::new(128, 2, 8)).is_none());
        assert_eq!(bank.len(), 1);
        assert!(!bank.is_empty());
    }
}
