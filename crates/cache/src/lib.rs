//! Trace-driven cache simulation.
//!
//! Reimplements the cache side of the paper's methodology: separate
//! instruction and write-back data caches with true-LRU replacement,
//! 1/2/4-way set associativity, 8–64-byte blocks, and capacities of
//! 1 KB–128 KB, evaluated at miss penalties of 12/24/48 cycles. The
//! [`CacheBank`] evaluates every configuration of a sweep in a single
//! trace pass, live or from a [`StrippedLog`]: a run recorded as the
//! sweep's first filter level.

pub mod cache;
mod compress;
pub mod config;
mod stripped;
pub mod system;

pub use cache::{Cache, CacheStats};
pub use config::{
    paper_sweep, table2_geometry, CacheGeometry, PAPER_ASSOCS, PAPER_BLOCK_BYTES,
    PAPER_BLOCK_SWEEP, PAPER_CACHE_SIZES, PAPER_MISS_COSTS,
};
pub use stripped::{Recording, StrippedLog};
pub use system::{CacheBank, CacheSummary, CacheSystem, CycleModel};
