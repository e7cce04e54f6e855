//! One set-associative, write-back, write-allocate, true-LRU cache.
//!
//! Matches the paper's simulator: "separate instruction and write-back
//! data caches with replacement of the least-recently-used element",
//! 1/2/4-way set associativity, block sizes 8–64 bytes.

use crate::CacheGeometry;

/// Per-cache access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read (or fetch) accesses.
    pub reads: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write accesses.
    pub writes: u64,
    /// Write misses (write-allocate: the block is fetched).
    pub write_misses: u64,
    /// Dirty blocks evicted (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate (0 when there were no accesses).
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }
}

// Counters from disjoint caches add meaningfully (per-node caches on a
// mesh are aggregated this way).
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.reads += rhs.reads;
        self.read_misses += rhs.read_misses;
        self.writes += rhs.writes;
        self.write_misses += rhs.write_misses;
        self.writebacks += rhs.writebacks;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
}

/// A single cache.
///
/// Lines within a set are kept in recency order (index 0 = most recently
/// used), which makes true LRU trivial for the small associativities the
/// paper studies.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `n_sets × assoc` lines; set `s` occupies
    /// `lines[s*assoc .. (s+1)*assoc]` in recency order.
    lines: Vec<Line>,
    block_shift: u32,
    set_mask: u32,
    /// Bits to shift a block number right to obtain its tag
    /// (`set_mask.trailing_ones()`, precomputed off the access path).
    tag_shift: u32,
    assoc: usize,
    /// Accumulated counters.
    pub stats: CacheStats,
}

impl Cache {
    /// An empty (all-invalid) cache of the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let n_sets = geometry.n_sets();
        Cache {
            lines: vec![Line::default(); (n_sets * geometry.assoc) as usize],
            block_shift: geometry.block_bytes.trailing_zeros(),
            set_mask: n_sets - 1,
            tag_shift: n_sets.trailing_zeros(),
            assoc: geometry.assoc as usize,
            stats: CacheStats::default(),
            geometry,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Perform one access; returns `true` on hit.
    ///
    /// Write misses allocate (fetch the block, then dirty it); evicting a
    /// dirty block counts a write-back.
    #[inline]
    pub fn access(&mut self, addr: u32, is_write: bool) -> bool {
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let block = addr >> self.block_shift;
        let set = (block & self.set_mask) as usize;
        let tag = block >> self.tag_shift;

        // Direct-mapped fast path: no recency order to maintain, so a
        // single compare decides the access (a third of the paper's sweep
        // is 1-way).
        if self.assoc == 1 {
            let line = &mut self.lines[set];
            if line.valid && line.tag == tag {
                line.dirty |= is_write;
                return true;
            }
            if is_write {
                self.stats.write_misses += 1;
            } else {
                self.stats.read_misses += 1;
            }
            if line.valid && line.dirty {
                self.stats.writebacks += 1;
            }
            *line = Line {
                tag,
                valid: true,
                dirty: is_write,
            };
            return false;
        }

        let base = set * self.assoc;
        let ways = &mut self.lines[base..base + self.assoc];

        // Search for the tag.
        if let Some(pos) = ways.iter().position(|l| l.valid && l.tag == tag) {
            // Hit: move to front (most recently used).
            ways[..=pos].rotate_right(1);
            if is_write {
                ways[0].dirty = true;
            }
            return true;
        }

        // Miss: evict LRU (last way), allocate at front.
        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let victim = ways[self.assoc - 1];
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        ways.rotate_right(1);
        ways[0] = Line {
            tag,
            valid: true,
            dirty: is_write,
        };
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 8-byte blocks = 32 bytes.
        Cache::new(CacheGeometry::new(32, 2, 8))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(4, false), "same block");
        assert_eq!(c.stats.reads, 3);
        assert_eq!(c.stats.read_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds blocks with even block numbers (block = addr/8,
        // set = block & 1). Blocks 0, 2, 4 all map to set 0.
        assert!(!c.access(0, false)); // block 0
        assert!(!c.access(16, false)); // block 2
        assert!(c.access(0, false)); // touch block 0 → block 2 is LRU
        assert!(!c.access(32, false)); // block 4 evicts block 2
        assert!(c.access(0, false), "block 0 retained");
        assert!(!c.access(16, false), "block 2 was evicted");
    }

    #[test]
    fn write_allocate_and_writeback() {
        let mut c = tiny();
        assert!(!c.access(0, true)); // write miss, allocates dirty
        assert_eq!(c.stats.write_misses, 1);
        assert!(!c.access(16, false)); // set 0 way 2
        assert!(!c.access(32, false)); // evicts dirty block 0 → writeback
        assert_eq!(c.stats.writebacks, 1);
        // Clean eviction doesn't count.
        assert!(!c.access(0, false)); // evicts block 2 (clean)
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheGeometry::new(16, 1, 8));
        // 2 sets; blocks 0 and 2 both map to set 0.
        assert!(!c.access(0, false));
        assert!(!c.access(16, false));
        assert!(!c.access(0, false), "conflict evicted block 0");
        assert_eq!(c.stats.read_misses, 3);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(CacheGeometry::new(16, 1, 8));
        assert!(!c.access(0, false)); // set 0
        assert!(!c.access(8, false)); // set 1
        assert!(c.access(0, false));
        assert!(c.access(8, false));
    }

    #[test]
    fn miss_rate_math() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.stats.miss_rate(), 0.5);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn large_cache_holds_working_set() {
        let mut c = Cache::new(CacheGeometry::new(131072, 4, 64));
        // Touch 1000 distinct blocks twice: only compulsory misses.
        for pass in 0..2 {
            for i in 0..1000u32 {
                let hit = c.access(i * 64, false);
                assert_eq!(hit, pass == 1);
            }
        }
        assert_eq!(c.stats.read_misses, 1000);
    }
}
