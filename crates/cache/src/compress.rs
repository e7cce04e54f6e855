//! Trace stripping: a chain of direct-mapped filters over a recorded trace.
//!
//! A reference that hits in a direct-mapped cache with `S` sets hits the
//! most-recently-used line of every LRU cache with at least `S` sets, of
//! any associativity, at the same block size (Puzak's trace stripping;
//! Wang & Baer showed it exact). The set index is the block number's low
//! bits, so a set of the larger cache holds a subset of the blocks that
//! share a set of the smaller one. A direct-mapped hit means no other
//! block of that set class was touched since the block's last use, so in
//! the larger cache the block is still resident and still MRU: the hit
//! changes nothing but, for a write, the dirty bit. Stripping such a
//! reference is therefore exact once its write is carried back to the
//! kept reference that last touched the block. That reference is the
//! resident line's, and the block cannot be evicted between the two, so
//! dirtying it earlier changes no writeback.
//!
//! A [`FilterChain`] applies this once per block size, with one level per
//! set count in the sweep. The first level is the raw log minus its hits
//! in a direct-mapped cache with that many sets (with one set, that folds
//! runs of same-block references); each later level `S` is the level
//! before it minus its hits in a direct-mapped cache with `S` sets. Since
//! every level's set count is at least the last one's, each level is
//! exact for its own geometries. I and D are independent caches, so each
//! level keeps the two streams apart. A level's build pass *is* the
//! direct-mapped simulation at its set count, so 1-way geometries read
//! their misses and writebacks straight off the chain; a geometry with
//! `S` sets and `k > 1` ways probes only level `S`. Access totals come
//! from the raw log, once. Scores are bit-for-bit those of streaming the
//! raw events.

use crate::{CacheGeometry, CacheStats, CacheSummary, CacheSystem};
use tamsim_trace::{AccessKind, TraceLog};

/// Reference flag: the reference's first access is a write (a miss is a
/// write miss and allocates dirty).
const D_FIRST_WRITE: u32 = 1;
/// Reference flag: a later access folded or stripped into this reference
/// is a write, so the block must be dirtied after the probe.
const D_LATER_WRITE: u32 = 2;
/// Either write flag: the reference dirties its block.
const D_WRITES: u32 = D_FIRST_WRITE | D_LATER_WRITE;
/// Marks an empty line (blocks are `addr >> shift` with `shift >= 2`, so
/// a real block never reaches it).
const NO_BLOCK: u32 = u32::MAX;

/// One direct-mapped cache simulated over a reference stream, keeping the
/// references that miss. A reference is one `u32`, `block << 2 | flags`.
struct Filter {
    /// Per set: the resident block and the index in `kept` of the
    /// reference that allocated it. Later hits fold their write flags into
    /// that reference, so its flags also tell whether the line is dirty.
    lines: Vec<(u32, usize)>,
    /// The references that missed, in order.
    kept: Vec<u32>,
    /// The cache's misses and writebacks (the access totals stay zero).
    misses: CacheStats,
}

impl Filter {
    fn new(sets: u32) -> Filter {
        Filter {
            lines: vec![(NO_BLOCK, 0); sets as usize],
            kept: Vec::new(),
            misses: CacheStats::default(),
        }
    }

    /// The next level: `refs` stripped through `sets` sets.
    fn over(refs: &[u32], sets: u32) -> Filter {
        let mut filter = Filter::new(sets);
        for &word in refs {
            filter.push(word);
        }
        filter
    }

    #[inline]
    fn push(&mut self, word: u32) {
        let block = word >> 2;
        let mask = self.lines.len() - 1;
        let (resident, at) = &mut self.lines[block as usize & mask];
        if *resident == block {
            let head = &mut self.kept[*at];
            if word & D_WRITES != 0 && *head & D_FIRST_WRITE == 0 {
                *head |= D_LATER_WRITE;
            }
            return;
        }
        if *resident != NO_BLOCK && self.kept[*at] & D_WRITES != 0 {
            self.misses.writebacks += 1;
        }
        if word & D_FIRST_WRITE != 0 {
            self.misses.write_misses += 1;
        } else {
            self.misses.read_misses += 1;
        }
        *resident = block;
        *at = self.kept.len();
        self.kept.push(word);
    }
}

/// A recorded trace stripped at one block size, at every set count a
/// sweep asks for. Build once per distinct block size and score every
/// geometry sharing it.
pub(crate) struct FilterChain {
    block_bytes: u32,
    /// Fetches, data reads and data writes in the log.
    totals: [u64; 3],
    /// Set count and I/D filters of each level, fewest sets first. A
    /// level's references are kept only if a set-associative geometry
    /// replays it.
    levels: Vec<(u32, [Filter; 2])>,
}

impl FilterChain {
    /// Strip `log` at `block_bytes` for the geometries of `sweep` that
    /// use that block size.
    pub(crate) fn build(log: &TraceLog, block_bytes: u32, sweep: &[CacheGeometry]) -> FilterChain {
        let ours = || sweep.iter().filter(|g| g.block_bytes == block_bytes);
        let mut set_counts: Vec<u32> = ours().map(|g| g.n_sets()).collect();
        set_counts.sort_unstable();
        set_counts.dedup();
        // Only levels a set-associative geometry replays keep references.
        let drop_unreplayed = |(sets, level): &mut (u32, [Filter; 2])| {
            if !ours().any(|g| g.assoc > 1 && g.n_sets() == *sets) {
                level.iter_mut().for_each(|f| f.kept = Vec::new());
            }
        };

        let mut totals = [0u64; 3];
        let mut levels: Vec<(u32, [Filter; 2])> = Vec::new();
        for sets in set_counts {
            let level = match levels.last_mut() {
                Some(prev) => {
                    let next = prev.1.each_ref().map(|f| Filter::over(&f.kept, sets));
                    drop_unreplayed(prev);
                    next
                }
                None => Self::strip_log(log, block_bytes, sets, &mut totals),
            };
            levels.push((sets, level));
        }
        if let Some(last) = levels.last_mut() {
            drop_unreplayed(last);
        }
        FilterChain {
            block_bytes,
            totals,
            levels,
        }
    }

    /// The first level, stripped from the raw log, and the log's access
    /// totals.
    fn strip_log(
        log: &TraceLog,
        block_bytes: u32,
        sets: u32,
        totals: &mut [u64; 3],
    ) -> [Filter; 2] {
        let shift = block_bytes.trailing_zeros();
        let [mut i, mut d] = [Filter::new(sets), Filter::new(sets)];
        for access in log {
            let word = access.addr >> shift << 2;
            totals[access.kind.index()] += 1;
            match access.kind {
                AccessKind::Fetch => i.push(word),
                AccessKind::Read => d.push(word),
                AccessKind::Write => d.push(word | D_FIRST_WRITE),
            }
        }
        [i, d]
    }

    /// The block size this chain was stripped at.
    pub(crate) fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// The counters streaming the raw log through `geometry` would give.
    ///
    /// # Panics
    /// Panics if `geometry` uses another block size or a set count the
    /// chain was not built for.
    pub(crate) fn score(&self, geometry: CacheGeometry) -> CacheSummary {
        assert_eq!(
            geometry.block_bytes,
            self.block_bytes,
            "chain stripped at {} B cannot replay {}",
            self.block_bytes,
            geometry.label()
        );
        let (_, [i, d]) = self
            .levels
            .iter()
            .find(|(sets, _)| *sets == geometry.n_sets())
            .expect("chain built for every set count of the sweep");
        let [fetches, reads, writes] = self.totals;
        if geometry.assoc == 1 {
            return CacheSummary {
                i: CacheStats {
                    reads: fetches,
                    ..i.misses
                },
                d: CacheStats {
                    reads,
                    writes,
                    ..d.misses
                },
            };
        }
        let mut system = CacheSystem::symmetric(geometry);
        let icache = &mut system.icache;
        icache.stats.reads = fetches;
        for &word in &i.kept {
            icache.probe_block(word >> 2, false);
        }
        let dcache = &mut system.dcache;
        dcache.stats.reads = reads;
        dcache.stats.writes = writes;
        for &word in &d.kept {
            dcache.probe_block(word >> 2, word & D_FIRST_WRITE != 0);
            // A stripped later write hit the just-probed, now-MRU block.
            if word & D_LATER_WRITE != 0 {
                dcache.dirty_mru(word >> 2);
            }
        }
        system.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamsim_trace::{Access, TraceSink};

    /// A stream exercising every run shape: sequential fetch runs,
    /// read-then-write runs, write-first runs, conflicts, and evictions
    /// of dirty blocks.
    fn exercise_log() -> TraceLog {
        let mut log = TraceLog::new();
        for i in 0..64u32 {
            log.access(Access::fetch(i * 4)); // long sequential fetch runs
        }
        for i in 0..8u32 {
            log.access(Access::read(i * 8));
            log.access(Access::write(i * 8)); // read-then-write same block
            log.access(Access::fetch(i * 128)); // fetch run breaks
            log.access(Access::write(i * 8 + 4)); // write run continues
        }
        for i in (0..512u32).step_by(4) {
            log.access(Access::write(i)); // dirty a large footprint
            log.access(Access::read(4096 - i)); // conflict traffic
        }
        log
    }

    #[test]
    fn folded_replay_matches_raw_replay() {
        let log = exercise_log();
        for geometry in [
            CacheGeometry::new(64, 1, 8),
            CacheGeometry::new(128, 2, 16),
            CacheGeometry::new(256, 4, 32),
            CacheGeometry::new(1024, 2, 64),
            CacheGeometry::new(1024, 1, 64),
        ] {
            let mut raw = CacheSystem::symmetric(geometry);
            raw.replay(&log);
            let chain = FilterChain::build(&log, geometry.block_bytes, &[geometry]);
            assert_eq!(chain.score(geometry), raw.summary(), "{geometry:?}");
        }
    }

    #[test]
    fn fetch_runs_fold_hard() {
        let mut log = TraceLog::new();
        for i in 0..160u32 {
            log.access(Access::fetch(i * 4));
        }
        // 160 sequential fetches over 64-byte blocks = 10 runs of 16.
        let chain = FilterChain::build(&log, 64, &[CacheGeometry::new(128, 2, 64)]);
        assert_eq!(chain.levels[0].1[0].kept.len(), 10);
    }

    #[test]
    fn levels_follow_the_sweep_and_only_replayed_ones_keep_references() {
        let log = exercise_log();
        let sweep = [
            CacheGeometry::new(2048, 1, 8),
            CacheGeometry::new(1024, 2, 8),
            CacheGeometry::new(64, 1, 8),
            CacheGeometry::new(1024, 2, 16),
        ];
        let chain = FilterChain::build(&log, 8, &sweep);
        let sets: Vec<u32> = chain.levels.iter().map(|(s, _)| *s).collect();
        assert_eq!(sets, [8, 64, 256]);
        let refs = |(_, [i, d]): &(u32, [Filter; 2])| i.misses.misses() + d.misses.misses();
        assert!(chain.levels.windows(2).all(|w| refs(&w[1]) <= refs(&w[0])));
        for (sets, [i, d]) in &chain.levels {
            assert_eq!(i.kept.is_empty() && d.kept.is_empty(), *sets != 64);
        }
    }

    #[test]
    #[should_panic(expected = "cannot replay")]
    fn block_size_mismatch_panics() {
        let chain = FilterChain::build(&TraceLog::new(), 8, &[]);
        chain.score(CacheGeometry::new(1024, 2, 64));
    }
}
