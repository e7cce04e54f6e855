//! Recording a run already stripped: the first level of the filter chain,
//! built online while the machine runs.
//!
//! [`CacheBank::replay_parallel`] scores a sweep from a chain of
//! direct-mapped filters per block size (see the `compress` module). Its
//! first level is the raw access stream minus its hits in a direct-mapped
//! cache with the fewest sets the sweep uses at that block size, which
//! drops most of a program's accesses. [`StrippedLog`] runs those first
//! filters as the events arrive, so a recorded run holds only the
//! references that survive them, their 1-way misses and the access
//! totals, never the raw stream. A raw [`TraceLog`] is replayed by
//! feeding it through the same recorder, so there is one strip.
//!
//! [`CacheBank::replay_parallel`]: crate::CacheBank::replay_parallel

use std::borrow::Cow;

use crate::{CacheGeometry, CacheStats};
use tamsim_trace::{Access, AccessKind, Hooks, Priority, TraceLog};

/// Reference flag: the reference's first access is a write (a miss is a
/// write miss and allocates dirty).
pub(crate) const D_FIRST_WRITE: u32 = 1;
/// Reference flag: a later access folded or stripped into this reference
/// is a write, so the block must be dirtied after the probe.
pub(crate) const D_LATER_WRITE: u32 = 2;
/// Either write flag: the reference dirties its block.
pub(crate) const D_WRITES: u32 = D_FIRST_WRITE | D_LATER_WRITE;
/// Marks an empty line (blocks are `addr >> shift` with `shift >= 2`, so
/// a real block never reaches it).
pub(crate) const NO_BLOCK: u32 = u32::MAX;

/// One direct-mapped cache simulated over a reference stream, keeping the
/// references that miss. A reference is one `u32`, `block << 2 | flags`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Filter {
    /// Per set: the resident block, and `at << 1 | dirty`, where `at` is
    /// the index in `kept` of the reference that allocated the line. A
    /// write that hits a clean line dirties it and folds its flag into
    /// that reference.
    lines: Vec<(u32, u32)>,
    /// The references that missed, in order.
    pub(crate) kept: Vec<u32>,
    /// The cache's misses and writebacks (the access totals stay zero).
    pub(crate) misses: CacheStats,
}

impl Filter {
    pub(crate) fn new(sets: u32) -> Filter {
        Filter {
            lines: vec![(NO_BLOCK, 0); sets as usize],
            kept: Vec::new(),
            misses: CacheStats::default(),
        }
    }

    /// The cache's set count.
    pub(crate) fn sets(&self) -> u32 {
        self.lines.len() as u32
    }

    #[inline]
    pub(crate) fn push(&mut self, word: u32) {
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

/// The first level of both streams at one block size.
///
/// A fetch or read of the block its stream touched last is counted but
/// not filtered: that block is resident, so the reference is a hit that
/// changes no flag. Writes always go through the filter, which carries
/// their flag back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Strip {
    /// log2 of the block size.
    shift: u32,
    /// The block the I stream touched last.
    last_i: u32,
    /// The block the D stream touched last.
    last_d: u32,
    /// The I stream's filter.
    pub(crate) i: Filter,
    /// The D stream's filter.
    pub(crate) d: Filter,
}

impl Strip {
    fn new(block_bytes: u32, sets: u32) -> Strip {
        Strip {
            shift: block_bytes.trailing_zeros(),
            last_i: NO_BLOCK,
            last_d: NO_BLOCK,
            i: Filter::new(sets),
            d: Filter::new(sets),
        }
    }

    pub(crate) fn block_bytes(&self) -> u32 {
        1 << self.shift
    }

    /// One access: `kind` is its [`AccessKind::index`].
    #[inline]
    fn push(&mut self, kind: usize, addr: u32) {
        let block = addr >> self.shift;
        match kind {
            0 => {
                if block != self.last_i {
                    self.last_i = block;
                    self.i.push(block << 2);
                }
            }
            1 => {
                if block != self.last_d {
                    self.last_d = block;
                    self.d.push(block << 2);
                }
            }
            _ => {
                self.last_d = block;
                self.d.push(block << 2 | D_FIRST_WRITE);
            }
        }
    }

    /// Fetches from `start` up to `end`, inclusive, one block at a time:
    /// only the first block can be the one fetched last.
    #[inline]
    fn fetch_run(&mut self, start: u32, end: u32) {
        let (first, last) = (start >> self.shift, end >> self.shift);
        if first != self.last_i {
            self.i.push(first << 2);
        }
        for block in first + 1..last + 1 {
            self.i.push(block << 2);
        }
        self.last_i = last;
    }
}

/// A run's access stream, recorded as the first filter level of a sweep.
///
/// [`StrippedLog::for_sweep`] sets up, for each block size the sweep
/// uses, one direct-mapped filter per stream (I and D) at the fewest sets
/// the sweep uses at that block size. As a [`Hooks`] observer it keeps
/// only the references those filters miss, their misses and writebacks
/// (the sweep's 1-way scores at that set count), and the fetch, read and
/// write totals. [`crate::CacheBank::replay_parallel`] scores any
/// geometry at a recorded block size with at least the recorded set
/// count from it, bit-identically to streaming the raw events.
///
/// Its granularity callbacks are the default no-ops, and
/// [`Hooks::fetch_run`] walks a straight-line run block by block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedLog {
    /// Fetches, data reads and data writes recorded.
    pub(crate) totals: [u64; 3],
    /// One first level per block size, ascending.
    pub(crate) strips: Vec<Strip>,
}

impl StrippedLog {
    /// An empty recording that keeps the first filter level of every
    /// block size `sweep` uses.
    pub fn for_sweep(sweep: &[CacheGeometry]) -> StrippedLog {
        let mut firsts: Vec<(u32, u32)> =
            sweep.iter().map(|g| (g.block_bytes, g.n_sets())).collect();
        firsts.sort_unstable();
        firsts.dedup_by_key(|(block_bytes, _)| *block_bytes);
        StrippedLog {
            totals: [0; 3],
            strips: firsts
                .into_iter()
                .map(|(block_bytes, sets)| Strip::new(block_bytes, sets))
                .collect(),
        }
    }

    /// Number of accesses recorded.
    pub fn len(&self) -> usize {
        self.totals.iter().sum::<u64>() as usize
    }

    /// Whether no access has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of kept references held, 4 per reference.
    pub fn packed_bytes(&self) -> usize {
        4 * self
            .strips
            .iter()
            .map(|s| s.i.kept.len() + s.d.kept.len())
            .sum::<usize>()
    }

    /// Record every access of `log`, in order, from its packed words:
    /// the offline form of recording the run online.
    pub fn feed(&mut self, log: &TraceLog) {
        for chunk in log.packed_chunks() {
            for &word in chunk {
                // `addr | kind`, with the kind's index in the low bits.
                self.push((word & 3) as usize, word & !3);
            }
        }
    }

    /// One access: `kind` is its [`AccessKind::index`].
    #[inline]
    fn push(&mut self, kind: usize, addr: u32) {
        self.totals[kind] += 1;
        // One block size is the common case (the paper's sweep): no loop.
        match self.strips.as_mut_slice() {
            [strip] => strip.push(kind, addr),
            strips => strips.iter_mut().for_each(|s| s.push(kind, addr)),
        }
    }

    /// The first level recorded at `block_bytes`, if any.
    pub(crate) fn strip(&self, block_bytes: u32) -> Option<&Strip> {
        self.strips.iter().find(|s| s.block_bytes() == block_bytes)
    }
}

impl Hooks for StrippedLog {
    #[inline]
    fn access(&mut self, access: Access) {
        self.push(access.kind.index(), access.addr);
    }

    #[inline]
    fn fetch_run(&mut self, _pri: Priority, start_pc: u32, n: u32) {
        let Some(last) = n.checked_sub(1) else {
            return;
        };
        self.totals[AccessKind::Fetch.index()] += u64::from(n);
        let end = start_pc + last * 4;
        match self.strips.as_mut_slice() {
            [strip] => strip.fetch_run(start_pc, end),
            strips => strips.iter_mut().for_each(|s| s.fetch_run(start_pc, end)),
        }
    }
}

/// A recording [`crate::CacheBank::replay_parallel`] can score: a
/// [`StrippedLog`], or a raw [`TraceLog`], which is stripped for the sweep
/// on the way in.
pub trait Recording {
    /// The recording as the first filter level of `sweep`, borrowed when
    /// it already is one.
    fn stripped(&self, sweep: &[CacheGeometry]) -> Cow<'_, StrippedLog>;
}

impl Recording for StrippedLog {
    fn stripped(&self, _sweep: &[CacheGeometry]) -> Cow<'_, StrippedLog> {
        Cow::Borrowed(self)
    }
}

impl Recording for TraceLog {
    fn stripped(&self, sweep: &[CacheGeometry]) -> Cow<'_, StrippedLog> {
        let mut stripped = StrippedLog::for_sweep(sweep);
        stripped.feed(self);
        Cow::Owned(stripped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetches(sweep: &[CacheGeometry], start: u32, n: u32) -> (StrippedLog, StrippedLog) {
        let mut run = StrippedLog::for_sweep(sweep);
        let mut single = run.clone();
        // A prefix that leaves the I stream's last block set.
        for log in [&mut run, &mut single] {
            log.access(Access::fetch(0x1000));
            log.access(Access::write(0x2000));
        }
        run.fetch_run(Priority::Low, start, n);
        for k in 0..n {
            single.access(Access::fetch(start + 4 * k));
        }
        (run, single)
    }

    #[test]
    fn fetch_run_equals_single_fetches() {
        let sweep = [
            CacheGeometry::new(64, 1, 8),
            CacheGeometry::new(1024, 4, 64),
            CacheGeometry::new(256, 2, 16),
        ];
        for (start, n) in [
            (0x1000, 0),  // nothing at all
            (0x1000, 1),  // the block touched last
            (0x103c, 1),  // the last word of a 64-byte block
            (0x1038, 7),  // from inside the last 64-byte block onwards
            (0x1004, 40), // several blocks at every size
            (0x2000, 3),  // a block the D stream touched last
        ] {
            let (run, single) = fetches(&sweep, start, n);
            assert_eq!(run, single, "fetch_run({start:#x}, {n})");
        }
        let (run, _) = fetches(&sweep, 0x1004, 40);
        assert_eq!(run.totals, [41, 0, 1]);
        assert_eq!(run.len(), 42);
    }

    #[test]
    fn keeps_one_level_per_block_size_at_its_fewest_sets() {
        let log = StrippedLog::for_sweep(&[
            CacheGeometry::new(2048, 1, 8),
            CacheGeometry::new(1024, 2, 8),
            CacheGeometry::new(4096, 4, 64),
            CacheGeometry::new(1024, 4, 64),
        ]);
        let levels: Vec<(u32, u32, u32)> = log
            .strips
            .iter()
            .map(|s| (s.block_bytes(), s.i.sets(), s.d.sets()))
            .collect();
        assert_eq!(levels, [(8, 64, 64), (64, 4, 4)]);
        assert!(log.is_empty());
        assert_eq!(log.packed_bytes(), 0);
    }

    #[test]
    fn feeding_a_raw_log_equals_recording_it() {
        let sweep = [CacheGeometry::new(256, 2, 16), CacheGeometry::new(64, 1, 8)];
        let mut raw = TraceLog::new();
        let mut online = StrippedLog::for_sweep(&sweep);
        for (k, access) in (0..300u32)
            .map(|k| match k % 5 {
                0 | 1 => Access::fetch(k * 4),
                2 | 3 => Access::read((k * 40) & 0x3fc),
                _ => Access::write((k * 24) & 0x3fc),
            })
            .enumerate()
        {
            raw.access(access);
            online.access(access);
            assert_eq!(online.len(), k + 1);
        }
        let mut offline = StrippedLog::for_sweep(&sweep);
        offline.feed(&raw);
        assert_eq!(offline, online);
        assert_eq!(*raw.stripped(&sweep), online);
    }
}
