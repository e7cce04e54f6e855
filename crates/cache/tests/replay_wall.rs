//! Differential wall for the stripped-trace replay: `CacheBank::replay_parallel`
//! must give exactly the counters of streaming the raw log through
//! `CacheSystem::replay`, for every block size, set count and
//! associativity, in any mix within one call.

use tamsim_cache::{CacheBank, CacheGeometry, CacheSummary, CacheSystem};
use tamsim_trace::{Access, Hooks, TraceLog};

/// SplitMix64: a seeded, dependency-free stream of pseudo-random words.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A word-aligned address below `bytes` (a power of two).
    fn addr(&mut self, bytes: u32) -> u32 {
        self.next() as u32 & (bytes - 1) & !3
    }
}

/// Block sizes 8–64 B × set counts 1–4096 × associativity 1/2/4/8.
fn grid() -> Vec<CacheGeometry> {
    let mut grid = Vec::new();
    for block in [8, 16, 32, 64] {
        for sets in (0..=12).map(|k| 1u32 << k) {
            for assoc in [1, 2, 4, 8] {
                grid.push(CacheGeometry::new(sets * assoc * block, assoc, block));
            }
        }
    }
    grid
}

/// A program-like stream: mostly sequential fetch with jumps, and data
/// traffic that mixes reuse of recent addresses, a small hot region and
/// conflicts spread over 1 MB. `write_only` turns every data access into
/// a write and drops the fetches.
fn stream(seed: u64, len: usize, write_only: bool) -> TraceLog {
    let mut rng = Rng(seed);
    let mut log = TraceLog::new();
    let mut pc = 0u32;
    let mut recent = [0u32; 16];
    for n in 0..len {
        let r = rng.next() % 100;
        if !write_only && r < 50 {
            pc = if r < 45 { pc + 4 } else { rng.addr(1 << 16) };
            log.access(Access::fetch(pc));
            continue;
        }
        let pick = rng.next() % 10;
        let addr = match pick {
            0..=5 => recent[rng.next() as usize % 16] ^ (rng.addr(32)),
            6..=8 => rng.addr(1 << 14),
            _ => rng.addr(1 << 20),
        };
        recent[n % 16] = addr;
        let write = write_only || rng.next().is_multiple_of(3);
        log.access(if write {
            Access::write(addr)
        } else {
            Access::read(addr)
        });
    }
    log
}

fn raw(geometry: CacheGeometry, log: &TraceLog) -> CacheSummary {
    let mut system = CacheSystem::symmetric(geometry);
    system.replay(log);
    system.summary()
}

fn assert_matches_raw(geometries: &[CacheGeometry], log: &TraceLog) {
    let replayed = CacheBank::replay_parallel(geometries, log);
    assert_eq!(replayed.len(), geometries.len());
    for (&g, (rg, summary)) in geometries.iter().zip(replayed) {
        assert_eq!(rg, g, "output order");
        assert_eq!(summary, raw(g, log), "{}", g.label());
    }
}

#[test]
fn every_geometry_in_one_call_matches_raw_replay() {
    // Duplicates and an interleaved order: several block sizes share one
    // call, and equal geometries must score equally.
    let mut geometries = grid();
    let dups: Vec<CacheGeometry> = geometries.iter().step_by(7).copied().collect();
    geometries.extend(dups);
    let mut rng = Rng(99);
    for i in (1..geometries.len()).rev() {
        geometries.swap(i, rng.next() as usize % (i + 1));
    }
    for seed in 1..=4 {
        assert_matches_raw(&geometries, &stream(seed, 6000, false));
    }
}

#[test]
fn write_only_stream_matches_raw_replay() {
    let log = stream(7, 4000, true);
    let summary = raw(CacheGeometry::new(256, 2, 16), &log);
    assert!(summary.d.writebacks > 0 && summary.i.reads == 0);
    assert_matches_raw(&grid(), &log);
}

#[test]
fn empty_log_scores_zero() {
    let log = TraceLog::new();
    assert_matches_raw(&grid(), &log);
    let replayed = CacheBank::replay_parallel(&grid(), &log);
    assert!(replayed.iter().all(|(_, s)| *s == CacheSummary::default()));
}

#[test]
fn stripped_write_dirties_a_reference_several_levels_back() {
    // 8-byte blocks: A = block 0. The write to A is stripped at 4 sets,
    // where its flag lands on the second read of A; that read is stripped
    // in turn at 8 sets, so the flag must travel on to the first read.
    // Evicting A then must write it back in every cache with >= 8 sets.
    let mut log = TraceLog::new();
    for access in [
        Access::read(0),  // A
        Access::read(32), // block 4: set 0 below 8 sets
        Access::read(0),  // A again
        Access::read(16), // block 2: set 0 below 4 sets
        Access::write(0), // A dirtied
    ] {
        log.access(access);
    }
    for k in 1..=8 {
        log.access(Access::read(k << 15)); // set 0 up to 4096 sets
    }
    let geometries: Vec<CacheGeometry> = grid()
        .into_iter()
        .filter(|g| g.block_bytes == 8 && g.n_sets() >= 8)
        .collect();
    for &g in &geometries {
        assert_eq!(raw(g, &log).d.writebacks, 1, "{}", g.label());
    }
    assert_matches_raw(&geometries, &log);
}

#[test]
fn each_associativity_keeps_its_own_dirty_bit() {
    // 8-byte blocks over 4 sets: blocks 0, 4, 8, ... all map to set 0,
    // and block `n` of that set sits at byte address `32 n`.
    let at = |n: u32| n * 32;
    let geometries = [2, 4, 8].map(|k| CacheGeometry::new(4 * k * 8, k, 8));
    let mut log = TraceLog::new();
    // 1. Write A.
    log.access(Access::write(at(0)));
    // 2. Two other blocks push A out of the 2-way cache, which writes it
    //    back; the 4- and 8-way caches still hold A dirty.
    log.access(Access::read(at(1)));
    log.access(Access::read(at(2)));
    // 3. The 2-way cache misses and re-allocates A clean; the 4- and
    //    8-way caches hit A, still dirty.
    log.access(Access::read(at(0)));
    // 4. Eight new blocks evict A everywhere: the 4- and 8-way caches
    //    write it back, the 2-way cache must not write it back again.
    for n in 3..11 {
        log.access(Access::read(at(n)));
    }
    let replayed = CacheBank::replay_parallel(&geometries, &log);
    let pinned: Vec<(u64, u64)> = replayed
        .iter()
        .map(|(_, s)| (s.d.misses(), s.d.writebacks))
        .collect();
    assert_eq!(pinned, [(12, 1), (11, 1), (11, 1)]);
    assert_matches_raw(&geometries, &log);
}
