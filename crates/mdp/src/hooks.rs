//! Observation hooks: how consumers watch a machine run.

use crate::{Mark, Priority};
use tamsim_trace::{Access, MarkSink, TraceSink};

/// Callbacks invoked by the machine during execution.
///
/// # Contract
///
/// For every executed instruction the machine delivers, in order, one
/// [`Hooks::access`] with the instruction fetch, one [`Hooks::instruction`]
/// tick, and then any data-access events the instruction performs. Marks
/// are zero-cost pseudo-ops: they emit **no** fetch and **no** instruction
/// tick, only one [`Hooks::queue_sample`] (queue occupancy in words per
/// priority) immediately followed by one [`Hooks::mark`]. Implementations
/// that forward the stream (adapters, tees, drivers) must forward *all
/// four* callbacks — dropping `instruction`/`mark` silently destroys the
/// granularity data the paper's analysis is built on, which is exactly the
/// bug [`SinkHooks`] used to have.
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
    /// Implementations may override it to process the run in bulk, but
    /// only if their observable output stays equal to the default
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

/// Adapt any [`TraceSink`] + [`MarkSink`] into [`Hooks`], forwarding the
/// complete event stream: accesses, instruction ticks, queue samples, and
/// marks.
///
/// Access-only sinks (a [`tamsim_trace::TraceLog`], a cache bank) opt
/// out of the granularity stream by relying on the default no-op
/// [`MarkSink`] methods; nothing is dropped silently by the adapter
/// itself, so a sink that keeps marks (a [`tamsim_trace::MarkLog`]) sees
/// every one.
#[derive(Debug, Default, Clone)]
pub struct SinkHooks<S>(pub S);

impl<S: TraceSink + MarkSink> Hooks for SinkHooks<S> {
    #[inline]
    fn access(&mut self, access: Access) {
        self.0.access(access);
    }

    #[inline]
    fn instruction(&mut self, pri: Priority, pc: u32) {
        self.0.instruction(pri, pc);
    }

    #[inline]
    fn queue_sample(&mut self, used_words: [u32; 2]) {
        self.0.queue_sample(used_words);
    }

    #[inline]
    fn mark(&mut self, mark: Mark, frame: u32, pri: Priority) {
        self.0.mark(mark, frame, pri);
    }
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
    use tamsim_trace::{MarkLog, Tee, VecSink};

    #[test]
    fn sink_hooks_forwards_accesses() {
        let mut h = SinkHooks(VecSink::new());
        h.access(Access::read(8));
        h.instruction(Priority::Low, 0);
        h.mark(Mark::ThreadEnd, 0, Priority::Low);
        assert_eq!(h.0.events, vec![Access::read(8)]);
    }

    #[test]
    fn sink_hooks_forwards_the_granularity_stream() {
        // A Tee of an access recorder and a mark recorder sees both halves
        // of the stream through one adapter.
        let mut h = SinkHooks(Tee::new(VecSink::new(), MarkLog::new()));
        h.access(Access::fetch(0));
        h.instruction(Priority::Low, 0);
        h.queue_sample([7, 0]);
        h.mark(Mark::ThreadEnd, 0x40, Priority::Low);
        assert_eq!(h.0.a.events.len(), 1);
        assert_eq!(h.0.b.records.len(), 1);
        assert_eq!(h.0.b.records[0].queue_words, [7, 0]);
        assert_eq!(h.0.b.cycles, [1, 0]);
    }

    #[test]
    fn no_hooks_is_inert() {
        let mut h = NoHooks;
        h.access(Access::fetch(0));
        h.instruction(Priority::High, 4);
        h.queue_sample([0, 0]);
    }
}
