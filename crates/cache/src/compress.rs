//! Stack scoring over stripped traces: a chain of direct-mapped filters,
//! from a recorded first level and read once per level, scores a whole
//! sweep.
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
//! A sweep is stripped once per block size, with one level per set count
//! in the sweep. The first level is the raw stream minus its hits in a
//! direct-mapped cache with the fewest sets the sweep uses at that block
//! size (with one set, that folds runs of same-block references); a
//! [`StrippedLog`] records it online, while the machine runs, so the raw
//! stream is never stored. (A recording made for a sweep with fewer sets
//! at that block size serves too: its level comes first, with no
//! geometries of its own.) Each later level `S` is the level before it
//! minus its hits in a direct-mapped cache with `S` sets. Since every
//! level's set count is at least the last one's, each level is exact for
//! its own geometries. I and D are independent caches, so each level
//! keeps the two streams apart. A level's build pass *is* the
//! direct-mapped simulation at its set count, so 1-way geometries read
//! their misses and writebacks straight off the chain.
//!
//! The pass that reads level `S` to strip it into the next level also
//! feeds each reference into a per-set LRU stack with `S` sets, as deep
//! as the largest associativity the sweep asks for at `S`. LRU has the
//! inclusion property (Mattson et al., 1970): a `k`-way set holds the top
//! `k` entries of its stack, so a reference found at depth `d` hits in
//! every cache with more than `d` ways and misses in the rest, and one
//! stack scores every associativity at its set count. Each entry carries
//! one dirty bit per associativity scored. When a miss in the `k`-way
//! cache pushes the entry at depth `k - 1` out of that cache, a set bit
//! counts one `k`-way writeback and is cleared, so a block that comes
//! back is clean there until written again. The recorded level is read
//! in place; each level built from it is dropped as soon as the pass that
//! reads it ends, so a stream never holds more than two levels beside the
//! recording, and scoring a geometry afterwards is a lookup. Access
//! totals come from the recording. Scores are bit-for-bit those of
//! streaming the raw events.

use crate::stripped::{Filter, StrippedLog, D_FIRST_WRITE, D_WRITES, NO_BLOCK};
use crate::{CacheGeometry, CacheStats, CacheSummary};
use tamsim_trace::par_map;

/// Per-set LRU stacks at one set count: every associativity the sweep
/// asks for there, scored in one pass over a level.
///
/// Associativities are powers of two, so the stacks are `2^bits` deep
/// and the `2^b`-way cache is followed at index `b`, for `b` in
/// `1..=bits`: its misses always, its dirty bits and writebacks if the
/// sweep asks for it.
struct Stacks {
    bits: u32,
    set_mask: usize,
    /// Bit `b` set for every associativity `2^b` the sweep asks for: the
    /// dirty bits a write sets.
    wanted: u64,
    /// `2^bits` entries per set, most recent first. An entry holds its
    /// block in the high word and, in bit `b` of the low word, whether the
    /// block is dirty in the `2^b`-way cache. Empty entries hold
    /// `NO_BLOCK` and no dirty bits.
    entries: Vec<u64>,
    /// Read misses, then write misses, of each associativity.
    misses: [[u64; 32]; 2],
    /// Writebacks of each associativity.
    writebacks: [u64; 32],
}

impl Stacks {
    fn new(sets: u32, assocs: &[u32]) -> Stacks {
        let depth = *assocs.last().expect("an associativity to score");
        Stacks {
            bits: depth.trailing_zeros(),
            set_mask: sets as usize - 1,
            wanted: assocs.iter().fold(0, |m, k| m | 1 << k.trailing_zeros()),
            entries: vec![u64::from(NO_BLOCK) << 32; (sets * depth) as usize],
            misses: [[0; 32]; 2],
            writebacks: [0; 32],
        }
    }

    /// Push `refs` through the stacks and, if given, through `next`.
    fn feed(&mut self, refs: &[u32], next: Option<&mut Filter>) {
        match self.bits {
            1 => self.feed_at::<1>(refs, next),
            2 => self.feed_at::<2>(refs, next),
            3 => self.feed_at::<3>(refs, next),
            _ => self.feed_at::<0>(refs, next),
        }
    }

    /// [`Stacks::feed`] with `bits` a constant `BITS` (0: read it from
    /// the field), so the common depths unroll.
    fn feed_at<const BITS: u32>(&mut self, refs: &[u32], next: Option<&mut Filter>) {
        match next {
            Some(next) => {
                for &word in refs {
                    next.push(word);
                    self.push::<BITS>(word);
                }
            }
            None => refs.iter().for_each(|&word| self.push::<BITS>(word)),
        }
    }

    #[inline(always)]
    fn push<const BITS: u32>(&mut self, word: u32) {
        let bits = if BITS == 0 { self.bits } else { BITS };
        let depth = 1 << bits;
        let block = word >> 2;
        let set = block as usize & self.set_mask;
        let stack = &mut self.entries[set * depth..][..depth];
        // The depth a block is found at is unpredictable, so the loops run
        // their full length with selects instead of branches.
        let mut d = depth;
        for (i, &e) in stack.iter().enumerate().rev() {
            d = if (e >> 32) as u32 == block { i } else { d };
        }
        let first_write = (word & D_FIRST_WRITE) as usize;
        for b in 1..=bits as usize {
            // The `2^b`-way cache misses if `d >= 2^b`, and evicts its LRU
            // line: the entry at depth `2^b - 1`, never the referenced one.
            let miss = d >> b != 0;
            self.misses[first_write][b] += u64::from(miss);
            let victim = &mut stack[(1 << b) - 1];
            let dirty = *victim & u64::from(miss) << b;
            self.writebacks[b] += dirty >> b;
            *victim ^= dirty;
        }
        // The block keeps its dirty bits where it hit (where it missed they
        // were cleared as it left), and either write dirties it everywhere.
        let found = stack[d.min(depth - 1)];
        let mut entry = if d < depth {
            found
        } else {
            u64::from(block) << 32
        };
        if word & D_WRITES != 0 {
            entry |= self.wanted;
        }
        for i in (1..depth).rev() {
            stack[i] = if i <= d { stack[i - 1] } else { stack[i] };
        }
        stack[0] = entry;
    }

    /// Misses and writebacks of the `assoc`-way cache.
    fn stats(&self, assoc: u32) -> CacheStats {
        let b = assoc.trailing_zeros() as usize;
        CacheStats {
            read_misses: self.misses[0][b],
            write_misses: self.misses[1][b],
            writebacks: self.writebacks[b],
            ..CacheStats::default()
        }
    }
}

/// What a sweep asks for at one block size: each set count, fewest sets
/// first, with the associativities wanted there, ascending.
struct Plan {
    block_bytes: u32,
    levels: Vec<(u32, Vec<u32>)>,
}

impl Plan {
    /// The sweep's levels at `block_bytes`, read from a first level
    /// recorded with `recorded` sets. When the sweep's fewest sets there
    /// are more than that, the recorded level comes first as a level with
    /// no geometries of its own.
    ///
    /// # Panics
    /// Panics, naming the geometry, if the sweep has one at `block_bytes`
    /// with fewer sets than `recorded`: the recording dropped references
    /// that geometry can miss.
    fn new(block_bytes: u32, sweep: &[CacheGeometry], recorded: u32) -> Plan {
        let mut wanted: Vec<(u32, u32)> = sweep
            .iter()
            .filter(|g| g.block_bytes == block_bytes)
            .map(|g| (g.n_sets(), g.assoc))
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        if let Some(g) = sweep
            .iter()
            .find(|g| g.block_bytes == block_bytes && g.n_sets() < recorded)
        {
            panic!(
                "a recording stripped at {recorded} sets cannot replay {}",
                g.label()
            );
        }
        let mut levels: Vec<(u32, Vec<u32>)> = vec![(recorded, Vec::new())];
        for (sets, assoc) in wanted {
            match levels.last_mut() {
                Some((at, assocs)) if *at == sets => assocs.push(assoc),
                _ => levels.push((sets, vec![assoc])),
            }
        }
        Plan {
            block_bytes,
            levels,
        }
    }

    /// One stream's misses and writebacks for every (set count,
    /// associativity) of the plan, in plan order, from its recorded first
    /// level: one pass per level, the first read in place.
    fn walk(&self, first: &Filter) -> Vec<CacheStats> {
        let mut scores = Vec::new();
        let mut next = self.pass(0, first, &mut scores);
        for n in 1..self.levels.len() {
            let level = next.expect("a level per set count");
            next = self.pass(n, &level, &mut scores);
        }
        scores
    }

    /// Read level `n` once: strip it into level `n + 1`, if the plan has
    /// one, and append the scores of level `n`'s geometries. A level the
    /// walk built is dropped when the pass after it returns.
    fn pass(&self, n: usize, level: &Filter, scores: &mut Vec<CacheStats>) -> Option<Filter> {
        let (sets, assocs) = &self.levels[n];
        let mut next = self.levels.get(n + 1).map(|(sets, _)| Filter::new(*sets));
        let stacks = match assocs.strip_prefix(&[1]).unwrap_or(assocs) {
            [] => {
                if let Some(next) = &mut next {
                    level.kept.iter().for_each(|&word| next.push(word));
                }
                None
            }
            stacked => {
                let mut stacks = Stacks::new(*sets, stacked);
                stacks.feed(&level.kept, next.as_mut());
                Some(stacks)
            }
        };
        scores.extend(assocs.iter().map(|&k| match &stacks {
            Some(stacks) if k > 1 => stacks.stats(k),
            _ => level.misses,
        }));
        next
    }

    /// The chain's scores, from the recording's totals and both streams'
    /// walks.
    fn chain(&self, totals: [u64; 3], [i, d]: [Vec<CacheStats>; 2]) -> FilterChain {
        let geometries = self
            .levels
            .iter()
            .flat_map(|(sets, assocs)| assocs.iter().map(move |&assoc| (*sets, assoc)));
        FilterChain {
            block_bytes: self.block_bytes,
            totals,
            scores: geometries
                .zip(i.into_iter().zip(d))
                .map(|((sets, assoc), (i, d))| (sets, assoc, [i, d]))
                .collect(),
        }
    }
}

/// A recording scored at one block size, for every geometry a sweep asks
/// for there.
struct FilterChain {
    block_bytes: u32,
    /// Fetches, data reads and data writes recorded.
    totals: [u64; 3],
    /// Set count, associativity, and I and D misses and writebacks of each
    /// geometry.
    scores: Vec<(u32, u32, [CacheStats; 2])>,
}

impl FilterChain {
    /// The counters streaming the raw events through `geometry` would
    /// give.
    ///
    /// # Panics
    /// Panics if the chain was not built for `geometry`.
    fn score(&self, geometry: CacheGeometry) -> CacheSummary {
        let [i, d] = self
            .scores
            .iter()
            .find(|(sets, assoc, _)| *sets == geometry.n_sets() && *assoc == geometry.assoc)
            .map(|(_, _, scores)| *scores)
            .expect("chain built for every geometry of the sweep");
        let [fetches, reads, writes] = self.totals;
        CacheSummary {
            i: CacheStats {
                reads: fetches,
                ..i
            },
            d: CacheStats { reads, writes, ..d },
        }
    }
}

/// Score every geometry against `log`, in `geometries` order: one walk
/// per block size and stream, from the recorded first level, fanned out
/// through [`par_map`].
///
/// # Panics
/// Panics, naming the geometry, if `log` does not cover one of
/// `geometries`: its block size was not recorded, or it has fewer sets
/// than the level recorded at that block size.
pub(crate) fn replay(
    geometries: &[CacheGeometry],
    log: &StrippedLog,
) -> Vec<(CacheGeometry, CacheSummary)> {
    let mut block_sizes: Vec<u32> = geometries.iter().map(|g| g.block_bytes).collect();
    block_sizes.sort_unstable();
    block_sizes.dedup();
    let plans: Vec<(Plan, [&Filter; 2])> = block_sizes
        .into_iter()
        .map(|b| {
            let Some(strip) = log.strip(b) else {
                let g = geometries.iter().find(|g| g.block_bytes == b);
                panic!(
                    "the recording keeps no {b} B blocks: cannot replay {}",
                    g.expect("a geometry per block size").label()
                );
            };
            (
                Plan::new(b, geometries, strip.i.sets()),
                [&strip.i, &strip.d],
            )
        })
        .collect();
    let streams: Vec<(&Plan, &Filter)> = plans
        .iter()
        .flat_map(|(plan, firsts)| firsts.map(|first| (plan, first)))
        .collect();
    let mut walks = par_map(streams, |(plan, first)| plan.walk(first)).into_iter();
    let chains: Vec<FilterChain> = plans
        .iter()
        .map(|(plan, _)| {
            let streams = [(); 2].map(|_| walks.next().expect("a walk per stream"));
            plan.chain(log.totals, streams)
        })
        .collect();
    geometries
        .iter()
        .map(|&g| {
            let chain = chains
                .iter()
                .find(|c| c.block_bytes == g.block_bytes)
                .expect("chain built for every block size in the sweep");
            (g, chain.score(g))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheSystem;
    use tamsim_trace::{Access, Hooks, TraceLog};

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

    fn stripped(log: &TraceLog, sweep: &[CacheGeometry]) -> StrippedLog {
        let mut stripped = StrippedLog::for_sweep(sweep);
        stripped.feed(log);
        stripped
    }

    fn raw(geometry: CacheGeometry, log: &TraceLog) -> CacheSummary {
        let mut raw = CacheSystem::symmetric(geometry);
        raw.replay(log);
        raw.summary()
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
            let replayed = replay(&[geometry], &stripped(&log, &[geometry]));
            assert_eq!(replayed, [(geometry, raw(geometry, &log))], "{geometry:?}");
        }
    }

    #[test]
    fn fetch_runs_fold_hard() {
        let mut log = TraceLog::new();
        for i in 0..160u32 {
            log.access(Access::fetch(i * 4));
        }
        // 160 sequential fetches over 64-byte blocks = 10 runs of 16.
        let recorded = stripped(&log, &[CacheGeometry::new(128, 2, 64)]);
        assert_eq!(recorded.totals, [160, 0, 0]);
        assert_eq!(
            recorded.strip(64).expect("a 64-byte level").i.kept.len(),
            10
        );
        assert_eq!(recorded.packed_bytes(), 40);
    }

    #[test]
    fn levels_follow_the_sweep_and_each_is_dropped_by_its_pass() {
        let log = exercise_log();
        let sweep = [
            CacheGeometry::new(2048, 1, 8),
            CacheGeometry::new(1024, 2, 8),
            CacheGeometry::new(64, 1, 8),
            CacheGeometry::new(2048, 4, 8),
            CacheGeometry::new(1024, 2, 16),
        ];
        let plan = Plan::new(8, &sweep, 8);
        assert_eq!(
            plan.levels,
            [(8, vec![1]), (64, vec![2, 4]), (256, vec![1])]
        );
        // Each pass reads the level before it and hands on the next one,
        // never more references than the level before, so a stream holds
        // at most two levels at once; the recorded level is read in place.
        let recorded = stripped(&log, &sweep);
        let d = &recorded.strip(8).expect("an 8-byte level").d;
        let mut scores = Vec::new();
        let mut level = plan.pass(0, d, &mut scores).expect("a next level");
        let mut sizes = vec![d.kept.len(), level.kept.len()];
        for n in 1..plan.levels.len() - 1 {
            level = plan.pass(n, &level, &mut scores).expect("a next level");
            assert_eq!(level.sets(), plan.levels[n + 1].0);
            sizes.push(level.kept.len());
        }
        assert!(plan
            .pass(plan.levels.len() - 1, &level, &mut scores)
            .is_none());
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "{sizes:?}");
        assert_eq!(scores.len(), 4);
        // The chain keeps only the scores, and they are the raw ones.
        for (g, summary) in replay(&sweep, &recorded) {
            assert_eq!(summary, raw(g, &log), "{}", g.label());
        }
    }

    #[test]
    fn a_level_recorded_below_the_sweep_has_no_geometries_of_its_own() {
        let log = exercise_log();
        let recorded = stripped(&log, &[CacheGeometry::new(32, 1, 8)]);
        let sweep = [CacheGeometry::new(256, 2, 8), CacheGeometry::new(512, 1, 8)];
        let plan = Plan::new(8, &sweep, 4);
        assert_eq!(plan.levels, [(4, vec![]), (16, vec![2]), (64, vec![1])]);
        for (g, summary) in replay(&sweep, &recorded) {
            assert_eq!(summary, raw(g, &log), "{}", g.label());
        }
    }

    #[test]
    #[should_panic(expected = "keeps no 64 B blocks: cannot replay 1K/2way/64B")]
    fn block_size_mismatch_panics() {
        let recorded = StrippedLog::for_sweep(&[CacheGeometry::new(64, 1, 8)]);
        replay(&[CacheGeometry::new(1024, 2, 64)], &recorded);
    }
}
