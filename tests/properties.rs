//! Property tests on the core data structures and on whole-simulation
//! invariants. Inputs come from the in-repo [`SplitMix64`] with fixed
//! seeds, so every run checks the same cases; small input spaces are
//! swept exhaustively.

use std::collections::VecDeque;

use tamsim::cache::{Cache, CacheGeometry};
use tamsim::check::SplitMix64;
use tamsim::core::{Experiment, Implementation};
use tamsim::mdp::MessageQueue;
use tamsim::metrics::geomean;
use tamsim::programs;
use tamsim::trace::{Access, AccessCounts, AccessKind, MemoryMap, Region};

/// Seeded draws per data-structure property.
const DRAWS: u64 = 64;

/// A uniform `f64` in `[lo, hi)`.
fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// A vector of `lo_len..hi_len` draws of `item`.
fn vec_of<T>(
    rng: &mut SplitMix64,
    lo_len: u64,
    hi_len: u64,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let len = rng.range(lo_len, hi_len - 1);
    (0..len).map(|_| item(rng)).collect()
}

// ---------------------------------------------------------------------
// Cache: the fast implementation must agree with an oracle that models a
// set-associative LRU write-back cache with explicit recency lists.
// ---------------------------------------------------------------------

struct OracleCache {
    sets: Vec<VecDeque<(u32, bool)>>, // (tag, dirty), front = MRU
    assoc: usize,
    block_shift: u32,
    n_sets: u32,
    misses: u64,
    writebacks: u64,
}

impl OracleCache {
    fn new(g: CacheGeometry) -> Self {
        OracleCache {
            sets: vec![VecDeque::new(); g.n_sets() as usize],
            assoc: g.assoc as usize,
            block_shift: g.block_bytes.trailing_zeros(),
            n_sets: g.n_sets(),
            misses: 0,
            writebacks: 0,
        }
    }

    fn access(&mut self, addr: u32, write: bool) -> bool {
        let block = addr >> self.block_shift;
        let set = (block % self.n_sets) as usize;
        let tag = block / self.n_sets;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|(t, _)| *t == tag) {
            let (t, dirty) = s.remove(pos).unwrap();
            s.push_front((t, dirty || write));
            true
        } else {
            self.misses += 1;
            if s.len() == self.assoc {
                let (_, dirty) = s.pop_back().unwrap();
                if dirty {
                    self.writebacks += 1;
                }
            }
            s.push_front((tag, write));
            false
        }
    }
}

/// 256 B to 2 KB, 1/2/4-way, 8 to 64 B blocks.
fn draw_geometry(rng: &mut SplitMix64) -> CacheGeometry {
    let size = 256 << rng.below(4);
    let assoc = 1 << rng.below(3);
    let block = 8 << rng.below(4);
    CacheGeometry::new(size.max(assoc * block), assoc, block)
}

#[test]
fn cache_matches_lru_oracle() {
    let mut rng = SplitMix64::new(0xCAC4E);
    for case in 0..DRAWS {
        let geometry = draw_geometry(&mut rng);
        let ops = vec_of(&mut rng, 1, 400, |r| (r.below(4096) as u32, r.one_in(2)));
        let mut cache = Cache::new(geometry);
        let mut oracle = OracleCache::new(geometry);
        for (addr, write) in ops {
            let addr = addr & !3; // word aligned
            let hit = cache.access(addr, write);
            let oracle_hit = oracle.access(addr, write);
            assert_eq!(hit, oracle_hit, "case {case}: divergence at {addr:#x}");
        }
        assert_eq!(cache.stats.misses(), oracle.misses, "case {case}");
        assert_eq!(cache.stats.writebacks, oracle.writebacks, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Message queue: FIFO order, ring addressing stays in range, and
// used-word accounting balances.
// ---------------------------------------------------------------------

fn check_queue_fifo_and_bounded(lens: &[u32]) {
    let cap = 32u32;
    let base = 0x0020_0000u32;
    let mut q = MessageQueue::new(base, cap);
    let mut model: VecDeque<u32> = VecDeque::new();
    for (i, &len) in lens.iter().enumerate() {
        while q.used_words() + len > cap {
            // Drain messages, FIFO, until the new one fits.
            let front = q.front().unwrap();
            assert_eq!(front.len, *model.front().unwrap());
            q.retire(front);
            model.pop_front();
        }
        let m = q.begin_enqueue(len).unwrap();
        model.push_back(len);
        // Every word address lies inside the ring.
        for w in 0..len {
            let a = q.addr_of(m.start, w);
            assert!(a >= base && a < base + cap * 4);
            assert_eq!(a % 4, 0);
        }
        assert_eq!(q.len(), model.len(), "iteration {i}");
    }
    while let Some(front) = q.front() {
        assert_eq!(front.len, *model.front().unwrap());
        q.retire(front);
        model.pop_front();
    }
    assert_eq!(q.used_words(), 0);
}

#[test]
fn queue_is_fifo_and_bounded() {
    // A case an earlier randomized run shrank to: it wraps the ring
    // with mixed lengths.
    check_queue_fifo_and_bounded(&[1, 4, 1, 5, 4, 1, 4, 4, 4, 1, 3, 2]);
    let mut rng = SplitMix64::new(0xF1F0);
    for _ in 0..DRAWS {
        let lens = vec_of(&mut rng, 1, 200, |r| r.range(1, 5) as u32);
        check_queue_fifo_and_bounded(&lens);
    }
}

// ---------------------------------------------------------------------
// Geometric mean: bounded by min/max, scale-equivariant.
// ---------------------------------------------------------------------

#[test]
fn geomean_properties() {
    let mut rng = SplitMix64::new(0x6E0);
    for case in 0..DRAWS {
        let values = vec_of(&mut rng, 1, 20, |r| uniform(r, 0.01, 100.0));
        let k = uniform(&mut rng, 0.1, 10.0);
        let g = geomean(values.iter().copied());
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            g >= lo * 0.999 && g <= hi * 1.001,
            "case {case}: {lo} <= {g} <= {hi}"
        );
        let scaled = geomean(values.iter().map(|v| v * k));
        assert!((scaled / g - k).abs() < 1e-9 * k, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Access counts: region classification is total and merge is a sum.
// ---------------------------------------------------------------------

#[test]
fn access_counts_merge_is_sum() {
    // Addresses span the whole modeled memory, every region included.
    let map = MemoryMap::default();
    let mut rng = SplitMix64::new(0xACC);
    for case in 0..DRAWS {
        let addrs_a = vec_of(&mut rng, 0, 100, |r| r.below(map.top as u64) as u32);
        let addrs_b = vec_of(&mut rng, 0, 100, |r| r.below(map.top as u64) as u32);
        let mut a = AccessCounts::new();
        let mut b = AccessCounts::new();
        let mut joint = AccessCounts::new();
        for (i, addr) in addrs_a.iter().enumerate() {
            let kind = AccessKind::ALL[i % 3];
            let acc = Access {
                kind,
                addr: addr & !3,
            };
            a.record(acc, &map);
            joint.record(acc, &map);
        }
        for (i, addr) in addrs_b.iter().enumerate() {
            let kind = AccessKind::ALL[(i + 1) % 3];
            let acc = Access {
                kind,
                addr: addr & !3,
            };
            b.record(acc, &map);
            joint.record(acc, &map);
        }
        a.merge(&b);
        for r in Region::ALL {
            for k in AccessKind::ALL {
                assert_eq!(a.get(r, k), joint.get(r, k), "case {case}");
            }
        }
        assert_eq!(
            a.total(),
            (addrs_a.len() + addrs_b.len()) as u64,
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------
// Whole-simulation properties.
// ---------------------------------------------------------------------

/// Selection sort computes the closed-form checksum for every n, under
/// both implementations, and the machine is deterministic.
#[test]
fn ss_is_correct_for_arbitrary_sizes() {
    for n in 1u32..24 {
        for impl_ in [Implementation::Md, Implementation::Am] {
            let p = programs::ss(n);
            let out1 = Experiment::new(impl_).run(&p);
            let out2 = Experiment::new(impl_).run(&p);
            assert_eq!(out1.result[0].as_i64(), programs::ss_expected(n), "n {n}");
            assert_eq!(
                out1.instructions, out2.instructions,
                "n {n}: nondeterministic run"
            );
            assert_eq!(out1.counts, out2.counts, "n {n}");
        }
    }
}

/// Quicksort sorts seeded inputs of every size identically under both
/// implementations.
#[test]
fn quicksort_sorts_arbitrary_inputs() {
    let mut rng = SplitMix64::new(0x9507);
    for _ in 0..48 {
        let n = rng.range(1, 23) as usize;
        let seed = rng.next_u64();
        let p = programs::quicksort(n, seed);
        let want = programs::quicksort_expected(n, seed);
        for impl_ in [Implementation::Md, Implementation::Am] {
            let out = Experiment::new(impl_).run(&p);
            assert_eq!(out.result[0].as_i64(), want, "n {n}, seed {seed:#x}");
        }
    }
}

/// Fibonacci: the MD implementation never executes more instructions
/// than the AM implementation on call-dominated workloads.
#[test]
fn md_beats_am_on_fib() {
    for n in 3u32..14 {
        let p = programs::fib(n);
        let md = Experiment::new(Implementation::Md).run(&p);
        let am = Experiment::new(Implementation::Am).run(&p);
        assert_eq!(md.result[0].as_i64(), programs::fib_expected(n), "n {n}");
        assert_eq!(am.result[0].as_i64(), programs::fib_expected(n), "n {n}");
        assert!(md.instructions < am.instructions, "n {n}");
    }
}

/// Wavefront matches its reference for every shape.
#[test]
fn wavefront_matches_reference() {
    for n in 2usize..10 {
        for gens in 1usize..4 {
            let p = programs::wavefront(n, gens);
            let want = programs::wavefront_expected(n, gens);
            for impl_ in [Implementation::Md, Implementation::Am] {
                let out = Experiment::new(impl_).run(&p);
                assert_eq!(out.result[0].as_f64(), want, "n {n}, gens {gens}");
            }
        }
    }
}
