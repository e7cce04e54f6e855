//! Granularity events: priorities, zero-cost marks, and the sinks that
//! retain them.
//!
//! These types originate in the machine model (`tamsim-mdp` lowers
//! [`Mark`]s into the code stream and executes them in zero cycles) but
//! live here, in the narrow-waist crate, so that *every* trace consumer —
//! the granularity statistics, the profiler in `tamsim-obs`, and the
//! executor-vs-oracle checks in `tamsim-check` — can speak about them
//! without depending on the machine model itself.

/// The two hardware priority levels of the MDP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Background computation (TAM threads; MD inlets).
    Low = 0,
    /// Message handlers / system calls (AM inlets; system routines).
    High = 1,
}

impl Priority {
    /// Index (0 = low, 1 = high).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Both priorities, low first.
    pub const ALL: [Priority; 2] = [Priority::Low, Priority::High];
}

/// Zero-cost markers lowered into the code stream for statistics.
///
/// Marks execute in zero cycles, emit no instruction fetch, and exist purely
/// so observers can segment execution into inlets, threads, and quanta
/// exactly as the paper's instruction simulator did. Marks that identify a
/// frame read the conventional frame-pointer register at runtime and report
/// its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// A TAM thread body begins (frame pointer sampled from the FP register).
    ThreadStart {
        /// Codeblock id for attribution.
        codeblock: u16,
        /// Thread id within the codeblock.
        thread: u16,
    },
    /// A TAM thread body ends.
    ThreadEnd,
    /// A TAM inlet body begins (frame pointer sampled from the FP register).
    InletStart {
        /// Codeblock id for attribution.
        codeblock: u16,
        /// Inlet id within the codeblock.
        inlet: u16,
    },
    /// A TAM inlet body ends.
    InletEnd,
    /// The AM scheduler activated a frame (start of an AM quantum).
    FrameActivated,
    /// A system routine begins (frame attribution not meaningful).
    SysStart,
    /// A system routine ends.
    SysEnd,
}

/// Extension of [`crate::TraceSink`] for consumers that also want the
/// granularity stream: instruction ticks, marks, and the queue-occupancy
/// samples the machine takes at each mark.
///
/// All methods default to no-ops so that access-only sinks (the cache
/// simulator, counters) opt out for free. The machine driver delivers the
/// callbacks in this order around each mark: any number of
/// [`MarkSink::instruction`] ticks, then one [`MarkSink::queue_sample`],
/// then the [`MarkSink::mark`] itself.
pub trait MarkSink {
    /// One instruction executed at `pri` with program counter `pc`.
    #[inline]
    fn instruction(&mut self, _pri: Priority, _pc: u32) {}

    /// A run of `n` consecutive instructions at `pri`, program counters
    /// `start_pc`, `start_pc + 4`, ... — the batched form emitted by the
    /// decoded-dispatch executor. The default expansion delivers exactly
    /// the per-instruction ticks, so non-overriding sinks observe an
    /// identical stream; counters (e.g. [`MarkLog`]) override it with a
    /// bulk add.
    #[inline]
    fn instruction_run(&mut self, pri: Priority, start_pc: u32, n: u32) {
        for k in 0..n {
            self.instruction(pri, start_pc + k * 4);
        }
    }

    /// Queue occupancy in words per priority, sampled immediately before
    /// each mark.
    #[inline]
    fn queue_sample(&mut self, _used_words: [u32; 2]) {}

    /// A granularity marker with the sampled frame pointer and the
    /// priority level it executed at.
    #[inline]
    fn mark(&mut self, _mark: Mark, _frame: u32, _pri: Priority) {}
}

impl<S: MarkSink + ?Sized> MarkSink for &mut S {
    #[inline]
    fn instruction(&mut self, pri: Priority, pc: u32) {
        (**self).instruction(pri, pc)
    }

    #[inline]
    fn instruction_run(&mut self, pri: Priority, start_pc: u32, n: u32) {
        (**self).instruction_run(pri, start_pc, n)
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

/// One retained mark with enough context to rebuild timelines and
/// granularity statistics offline.
///
/// `cycles` snapshots the per-priority instruction counters *before* the
/// mark fires; because marks are zero-cost, the global timestamp of the
/// mark is exactly `cycles[0] + cycles[1]`. The deltas between consecutive
/// records attribute every executed instruction to a segment, which is all
/// the granularity analysis needs — no per-instruction log required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkRecord {
    /// Instructions executed at each priority before this mark.
    pub cycles: [u64; 2],
    /// The mark itself.
    pub mark: Mark,
    /// Frame pointer sampled at the mark.
    pub frame: u32,
    /// Priority level the mark executed at.
    pub pri: Priority,
    /// Message-queue occupancy in words per priority, sampled at the mark.
    pub queue_words: [u32; 2],
}

impl MarkRecord {
    /// Global timestamp of this mark in cycles (instructions executed so
    /// far at either priority).
    #[inline]
    pub fn at(&self) -> u64 {
        self.cycles[0] + self.cycles[1]
    }
}

/// A reusable accumulator that turns the [`MarkSink`] callback stream into
/// a vector of [`MarkRecord`]s plus per-priority cycle totals.
///
/// Embedded by the profiler's capture hooks, and teed beside a
/// [`crate::TraceLog`] by the executor-vs-oracle checks, which compare
/// every record.
#[derive(Debug, Default, Clone)]
pub struct MarkLog {
    /// The retained marks, in execution order.
    pub records: Vec<MarkRecord>,
    /// Instructions executed per priority over the whole run.
    pub cycles: [u64; 2],
    pending_queue: [u32; 2],
}

impl MarkLog {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total instructions observed (the global cycle counter).
    #[inline]
    pub fn total_cycles(&self) -> u64 {
        self.cycles[0] + self.cycles[1]
    }

    /// Discard everything (overflow-retry re-records from scratch).
    pub fn clear(&mut self) {
        self.records.clear();
        self.cycles = [0, 0];
        self.pending_queue = [0, 0];
    }
}

/// A pure mark recorder: accesses flow past it untouched, so it composes
/// into a [`crate::Tee`] chain next to any access sink.
impl crate::TraceSink for MarkLog {
    #[inline]
    fn access(&mut self, _access: crate::Access) {}
}

impl MarkSink for MarkLog {
    #[inline]
    fn instruction(&mut self, pri: Priority, _pc: u32) {
        self.cycles[pri.index()] += 1;
    }

    #[inline]
    fn instruction_run(&mut self, pri: Priority, _start_pc: u32, n: u32) {
        self.cycles[pri.index()] += n as u64;
    }

    #[inline]
    fn queue_sample(&mut self, used_words: [u32; 2]) {
        self.pending_queue = used_words;
    }

    #[inline]
    fn mark(&mut self, mark: Mark, frame: u32, pri: Priority) {
        self.records.push(MarkRecord {
            cycles: self.cycles,
            mark,
            frame,
            pri,
            queue_words: self.pending_queue,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_are_ordered() {
        assert!(Priority::Low < Priority::High);
        assert_eq!(Priority::Low.index(), 0);
        assert_eq!(Priority::High.index(), 1);
    }

    #[test]
    fn mark_log_snapshots_cycles_and_queue() {
        let mut log = MarkLog::new();
        log.instruction(Priority::Low, 0);
        log.instruction(Priority::Low, 4);
        log.instruction(Priority::High, 8);
        log.queue_sample([3, 1]);
        log.mark(Mark::ThreadEnd, 0x40, Priority::Low);
        assert_eq!(log.records.len(), 1);
        let r = log.records[0];
        assert_eq!(r.cycles, [2, 1]);
        assert_eq!(r.at(), 3);
        assert_eq!(r.queue_words, [3, 1]);
        assert_eq!(r.frame, 0x40);
        assert_eq!(log.total_cycles(), 3);
    }

    #[test]
    fn mark_log_clear_resets_everything() {
        let mut log = MarkLog::new();
        log.instruction(Priority::High, 0);
        log.queue_sample([9, 9]);
        log.mark(Mark::SysStart, 0, Priority::High);
        log.clear();
        assert!(log.records.is_empty());
        assert_eq!(log.total_cycles(), 0);
        log.mark(Mark::SysEnd, 0, Priority::High);
        assert_eq!(log.records[0].queue_words, [0, 0]);
    }

    #[test]
    fn default_mark_sink_methods_are_inert() {
        struct Inert;
        impl MarkSink for Inert {}
        let mut s = Inert;
        s.instruction(Priority::Low, 0);
        s.queue_sample([1, 2]);
        s.mark(Mark::FrameActivated, 0, Priority::Low);
    }
}
