//! Trace stripping and stack scoring: a chain of direct-mapped filters
//! over a recorded trace, read once per level, scores a whole sweep.
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
//! in the sweep. The first level is the raw log minus its hits in a
//! direct-mapped cache with that many sets (with one set, that folds runs
//! of same-block references); each later level `S` is the level before
//! it minus its hits in a direct-mapped cache with `S` sets. Since every
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
//! back is clean there until written again. A level is dropped as soon
//! as its pass ends, so a stream never holds more than two levels, and
//! scoring a geometry afterwards is a lookup. Access totals come from the
//! raw log, once. Scores are bit-for-bit those of streaming the raw
//! events.

use crate::{CacheGeometry, CacheStats, CacheSummary};
use tamsim_trace::{par_map, TraceLog};

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
    /// Per set: the resident block, and `at << 1 | dirty`, where `at` is
    /// the index in `kept` of the reference that allocated the line. A
    /// write that hits a clean line dirties it and folds its flag into
    /// that reference.
    lines: Vec<(u32, u32)>,
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

    #[inline]
    fn push(&mut self, word: u32) {
        let block = word >> 2;
        let mask = self.lines.len() - 1;
        let (resident, at) = &mut self.lines[block as usize & mask];
        let writes = u32::from(word & D_WRITES != 0);
        if *resident == block {
            if writes > *at & 1 {
                self.kept[(*at >> 1) as usize] |= D_LATER_WRITE;
                *at |= 1;
            }
            return;
        }
        self.misses.writebacks += u64::from(*at & 1);
        if word & D_FIRST_WRITE != 0 {
            self.misses.write_misses += 1;
        } else {
            self.misses.read_misses += 1;
        }
        *resident = block;
        *at = u32::try_from(self.kept.len() << 1).expect("a level holds under 2^31 references")
            | writes;
        self.kept.push(word);
    }
}

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
    fn new(block_bytes: u32, sweep: &[CacheGeometry]) -> Plan {
        let mut wanted: Vec<(u32, u32)> = sweep
            .iter()
            .filter(|g| g.block_bytes == block_bytes)
            .map(|g| (g.n_sets(), g.assoc))
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut levels: Vec<(u32, Vec<u32>)> = Vec::new();
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

    /// The first level of both streams, stripped from the raw log in one
    /// read of it, and the log's fetch, read and write totals.
    ///
    /// A fetch or read of the block its stream touched last is counted
    /// but not filtered: that block is resident, so the reference is a
    /// hit that changes no flag. Writes always go through the filter,
    /// which carries their flag back.
    fn strip(&self, log: &TraceLog) -> ([u64; 3], [Filter; 2]) {
        let sets = self.levels.first().map_or(1, |(sets, _)| *sets);
        let shift = self.block_bytes.trailing_zeros();
        let [mut i, mut d] = [Filter::new(sets), Filter::new(sets)];
        let [mut fetches, mut reads, mut writes] = [0u64; 3];
        let [mut last_i, mut last_d] = [NO_BLOCK; 2];
        for chunk in log.packed_chunks() {
            for &word in chunk {
                // `addr | kind`, and `shift >= 2` drops the kind.
                let block = word >> shift;
                match word & 3 {
                    0 => {
                        fetches += 1;
                        if block != last_i {
                            last_i = block;
                            i.push(block << 2);
                        }
                    }
                    1 => {
                        reads += 1;
                        if block != last_d {
                            last_d = block;
                            d.push(block << 2);
                        }
                    }
                    _ => {
                        writes += 1;
                        last_d = block;
                        d.push(block << 2 | D_FIRST_WRITE);
                    }
                }
            }
        }
        ([fetches, reads, writes], [i, d])
    }

    /// One stream's misses and writebacks for every (set count,
    /// associativity) of the plan, in plan order, from its first level:
    /// one pass per level.
    fn walk(&self, first: Filter) -> Vec<CacheStats> {
        let mut scores = Vec::new();
        let mut level = Some(first);
        for n in 0..self.levels.len() {
            level = self.pass(n, level.expect("a level per set count"), &mut scores);
        }
        scores
    }

    /// Read level `n` once: strip it into level `n + 1`, if the plan has
    /// one, and append the scores of level `n`'s geometries. Level `n` is
    /// dropped when its pass returns.
    fn pass(&self, n: usize, level: Filter, scores: &mut Vec<CacheStats>) -> Option<Filter> {
        let (sets, assocs) = &self.levels[n];
        let mut next = self.levels.get(n + 1).map(|(sets, _)| Filter::new(*sets));
        let stacked = assocs.strip_prefix(&[1]).unwrap_or(assocs);
        if stacked.is_empty() {
            if let Some(next) = &mut next {
                level.kept.iter().for_each(|&word| next.push(word));
            }
            scores.push(level.misses);
        } else {
            let mut stacks = Stacks::new(*sets, stacked);
            stacks.feed(&level.kept, next.as_mut());
            scores.extend(assocs.iter().map(|&k| match k {
                1 => level.misses,
                _ => stacks.stats(k),
            }));
        }
        next
    }

    /// The chain's scores, from the log's totals and both streams' walks.
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

/// A recorded trace scored at one block size, for every geometry a sweep
/// asks for there.
struct FilterChain {
    block_bytes: u32,
    /// Fetches, data reads and data writes in the log.
    totals: [u64; 3],
    /// Set count, associativity, and I and D misses and writebacks of each
    /// geometry.
    scores: Vec<(u32, u32, [CacheStats; 2])>,
}

impl FilterChain {
    /// Strip and score `log` at `block_bytes` for the geometries of
    /// `sweep` that use that block size, on the calling thread.
    #[cfg(test)]
    fn build(log: &TraceLog, block_bytes: u32, sweep: &[CacheGeometry]) -> FilterChain {
        let plan = Plan::new(block_bytes, sweep);
        let (totals, [i, d]) = plan.strip(log);
        plan.chain(totals, [plan.walk(i), plan.walk(d)])
    }

    /// The counters streaming the raw log through `geometry` would give.
    ///
    /// # Panics
    /// Panics if `geometry` uses another block size or is not one the
    /// chain was built for.
    fn score(&self, geometry: CacheGeometry) -> CacheSummary {
        assert_eq!(
            geometry.block_bytes,
            self.block_bytes,
            "chain stripped at {} B cannot replay {}",
            self.block_bytes,
            geometry.label()
        );
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

/// Score every geometry against `log`, in `geometries` order.
///
/// Work goes through [`par_map`] in two rounds: one raw-log strip per
/// block size, then one walk per block size and stream.
pub(crate) fn replay(
    geometries: &[CacheGeometry],
    log: &TraceLog,
) -> Vec<(CacheGeometry, CacheSummary)> {
    let mut block_sizes: Vec<u32> = geometries.iter().map(|g| g.block_bytes).collect();
    block_sizes.sort_unstable();
    block_sizes.dedup();
    let plans: Vec<Plan> = block_sizes
        .into_iter()
        .map(|b| Plan::new(b, geometries))
        .collect();
    let (totals, firsts): (Vec<[u64; 3]>, Vec<[Filter; 2]>) =
        par_map(plans.iter().collect(), |plan: &Plan| plan.strip(log))
            .into_iter()
            .unzip();
    let streams: Vec<(&Plan, Filter)> = plans
        .iter()
        .zip(firsts)
        .flat_map(|(plan, firsts)| firsts.map(|first| (plan, first)))
        .collect();
    let mut walks = par_map(streams, |(plan, first)| plan.walk(first)).into_iter();
    let chains: Vec<FilterChain> = plans
        .iter()
        .zip(totals)
        .map(|(plan, totals)| {
            let streams = [(); 2].map(|_| walks.next().expect("a walk per stream"));
            plan.chain(totals, streams)
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
        let plan = Plan::new(64, &[CacheGeometry::new(128, 2, 64)]);
        let (totals, [i, _]) = plan.strip(&log);
        assert_eq!(totals, [160, 0, 0]);
        assert_eq!(i.kept.len(), 10);
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
        let plan = Plan::new(8, &sweep);
        assert_eq!(
            plan.levels,
            [(8, vec![1]), (64, vec![2, 4]), (256, vec![1])]
        );
        // Each pass consumes the level it reads and hands on the next
        // one, never more references than the level before, so a stream
        // holds at most two levels at once.
        let (_, [_, d]) = plan.strip(&log);
        let mut scores = Vec::new();
        let mut level = d;
        let mut sizes = vec![level.kept.len()];
        for n in 0..plan.levels.len() - 1 {
            level = plan.pass(n, level, &mut scores).expect("a next level");
            assert_eq!(level.lines.len() as u32, plan.levels[n + 1].0);
            sizes.push(level.kept.len());
        }
        assert!(plan
            .pass(plan.levels.len() - 1, level, &mut scores)
            .is_none());
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "{sizes:?}");
        assert_eq!(scores.len(), 4);
        // The chain keeps only the scores, and they are the raw ones.
        let chain = FilterChain::build(&log, 8, &sweep);
        for g in sweep.into_iter().filter(|g| g.block_bytes == 8) {
            let mut raw = CacheSystem::symmetric(g);
            raw.replay(&log);
            assert_eq!(chain.score(g), raw.summary(), "{}", g.label());
        }
    }

    #[test]
    #[should_panic(expected = "cannot replay")]
    fn block_size_mismatch_panics() {
        let chain = FilterChain::build(&TraceLog::new(), 8, &[]);
        chain.score(CacheGeometry::new(1024, 2, 64));
    }
}
