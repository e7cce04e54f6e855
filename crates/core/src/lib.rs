//! The paper's contribution: two TAM runtime implementations for a
//! J-Machine-class node, and the experiment driver that measures them.
//!
//! * [`Implementation::Am`] — the Active Messages back-end (§2.1): high
//!   priority inlets, per-frame ready lists, a background frame scheduler.
//! * [`Implementation::AmEnabled`] — the §2.4 variant with interrupts
//!   enabled except during CV access.
//! * [`Implementation::Md`] — the Message-Driven back-end (§2.2): the
//!   hardware queue is the task queue; inlets branch directly to threads,
//!   with the §2.3 peephole optimizations as toggleable passes.
//!
//! [`Experiment`] links a `tamsim-tam` [`tamsim_tam::Program`] for either
//! back-end, runs it on the `tamsim-mdp` machine, and reports instruction
//! counts, Section 3.1 access counts, and Table 2 granularity statistics.
//! Every entry point — [`Experiment::run`], [`Experiment::run_with_sink`],
//! [`Experiment::run_recorded`] and [`Experiment::run_profiled`] — shares
//! one attempt loop that simulates the machine once when the queues fit.
//! [`Experiment::run_recorded`] captures the access trace during that run;
//! `tamsim_cache::CacheBank::replay_parallel` then scores every cache
//! configuration from the recording. [`Experiment::run_with_sink`] feeds
//! any other observer (a live [`tamsim_cache::CacheBank`], say) instead.

pub mod asm;
pub mod experiment;
pub mod granularity;
pub mod layout;
pub mod lower;
pub mod opts;
pub mod sys;

pub use experiment::{link, Experiment, Linked, NetInfo, ProfiledRun, RecordedRun, RunResult};
pub use granularity::Granularity;
pub use layout::{FrameLayout, GlobalsMap};
pub use opts::{Implementation, LoweringOptions};
pub use sys::SysAddrs;
