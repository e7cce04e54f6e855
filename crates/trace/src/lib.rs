//! Memory-access events, address-space regions, counters, and the observer
//! trait every consumer of a machine run implements.
//!
//! This crate is the narrow waist of the simulator: the MDP machine model
//! (`tamsim-mdp`) produces one stream of [`Access`] events, instruction
//! ticks and granularity [`Mark`]s, and every consumer — the cache
//! simulator, the granularity statistics, the per-region access counters
//! of Section 3.1 of the paper, the profiler, the invariant checker —
//! implements the one observer trait, [`Hooks`], which also states the
//! order the events arrive in.
//!
//! The paper (Spertus & Dally, PPOPP 1995, Section 3) feeds "instructions
//! and traces generated by the instruction simulator into a cache
//! simulator"; this crate is the pipe between the two. [`TraceLog`] makes
//! the pipe storable: it records a run's access stream once, compactly, so
//! the cache sweep can replay it into every configuration in parallel
//! instead of re-simulating the machine.

pub mod access;
pub mod counts;
pub mod event;
pub mod hooks;
pub mod log;
pub mod par;
pub mod region;
pub mod sink;

pub use access::{Access, AccessKind};
pub use counts::AccessCounts;
pub use event::{Mark, MarkLog, MarkRecord, Priority};
pub use hooks::{Hooks, NoHooks};
pub use log::TraceLog;
pub use par::{par_map, resolve_jobs};
pub use region::{MemoryMap, Region};
pub use sink::{CountingSink, Tee, VecSink};

/// Number of bytes in a machine word.
///
/// The real MDP used 36-bit words; for cache-simulation purposes the paper's
/// analysis only needs a consistent word size, and we use 4 bytes so that
/// 8–64-byte cache blocks hold 2–16 words.
pub const WORD_BYTES: u32 = 4;
