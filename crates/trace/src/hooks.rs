//! The observer trait: what a consumer of a machine run sees, in what
//! order, and the no-op observer.

use crate::{Access, Mark, Priority};

/// A consumer of the event stream of one machine run.
///
/// # Contract
///
/// For every executed instruction the machine delivers, in order, one
/// [`Hooks::access`] with the instruction fetch, one [`Hooks::instruction`]
/// tick, and then any data-access events the instruction performs. Marks
/// are zero-cost pseudo-ops: they emit **no** fetch and **no** instruction
/// tick, only one [`Hooks::queue_sample`] (queue occupancy in words per
/// priority) immediately followed by one [`Hooks::mark`]. Implementations
/// that forward the stream (tees, drivers) must forward *every* callback:
/// dropping `instruction`/`mark` silently destroys the granularity data
/// the paper's analysis is built on.
///
/// Everything but `access` defaults to a no-op (or, for
/// [`Hooks::fetch_run`], to the per-instruction expansion), so an
/// access-only consumer — the cache simulator, the access counters, the
/// trace log — needs only `access`. Observers are driven
/// single-threaded per machine run; parallelism in the harness is across
/// independent runs.
pub trait Hooks {
    /// One memory access (instruction fetch or data read/write).
    fn access(&mut self, access: Access);

    /// One instruction executed at `pri` with program counter `pc`.
    #[inline]
    fn instruction(&mut self, _pri: Priority, _pc: u32) {}

    /// `n` consecutive instructions fetched and executed at `pri`,
    /// starting at `start_pc` and walking up in 4-byte steps.
    ///
    /// The executor emits straight-line runs through this hook instead of
    /// one `access` + `instruction` pair per op. The default expansion
    /// reproduces the per-instruction contract exactly — one fetch then
    /// one tick per op, in address order — so any implementation that
    /// leaves it alone observes the per-instruction stream.
    /// Implementations may override it to process the run in bulk (the
    /// [`crate::TraceLog`] recorder, [`crate::CountingSink`], [`crate::MarkLog`]),
    /// but only if their observable output stays equal to the default
    /// expansion's.
    #[inline]
    fn fetch_run(&mut self, pri: Priority, start_pc: u32, n: u32) {
        for k in 0..n {
            let pc = start_pc + k * 4;
            self.access(Access::fetch(pc));
            self.instruction(pri, pc);
        }
    }

    /// Queue occupancy in words per priority, sampled immediately before
    /// each mark.
    #[inline]
    fn queue_sample(&mut self, _used_words: [u32; 2]) {}

    /// A granularity marker, with the sampled frame pointer and the
    /// priority level it executed at.
    #[inline]
    fn mark(&mut self, _mark: Mark, _frame: u32, _pri: Priority) {}
}

/// Hooks that observe nothing (pure functional runs / result checks).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl Hooks for NoHooks {
    #[inline]
    fn access(&mut self, _access: Access) {}

    #[inline]
    fn fetch_run(&mut self, _pri: Priority, _start_pc: u32, _n: u32) {}
}

impl<H: Hooks + ?Sized> Hooks for &mut H {
    #[inline]
    fn access(&mut self, access: Access) {
        (**self).access(access)
    }

    #[inline]
    fn instruction(&mut self, pri: Priority, pc: u32) {
        (**self).instruction(pri, pc)
    }

    #[inline]
    fn fetch_run(&mut self, pri: Priority, start_pc: u32, n: u32) {
        (**self).fetch_run(pri, start_pc, n)
    }

    #[inline]
    fn queue_sample(&mut self, used_words: [u32; 2]) {
        (**self).queue_sample(used_words)
    }

    #[inline]
    fn mark(&mut self, mark: Mark, frame: u32, pri: Priority) {
        (**self).mark(mark, frame, pri)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hooks_is_inert() {
        let mut h = NoHooks;
        h.access(Access::fetch(0));
        h.instruction(Priority::High, 4);
        h.fetch_run(Priority::Low, 8, 2);
        h.queue_sample([0, 0]);
        h.mark(Mark::SysEnd, 0, Priority::High);
    }
}
