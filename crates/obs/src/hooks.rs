//! Capture side of the profiler: a sink that rides along a machine run.
//!
//! [`ProfileHooks`] implements the trace-level observer trait
//! ([`Hooks`]) and nothing machine-specific, so the experiment driver can
//! feed it through exactly the same path as any other sink. A profiled
//! run therefore *is* an ordinary run with an observer attached — cycle
//! counts and results are identical by construction, which the
//! differential tests assert.

use std::collections::HashMap;

use tamsim_trace::{Access, AccessKind, Hooks, Mark, MarkLog, MarkRecord, Priority};

/// A sink that captures everything the profiler needs from one run: the
/// granularity stream (marks + per-priority cycle counters + queue
/// samples) and a fetch histogram keyed by program counter for hotspot
/// attribution.
#[derive(Debug, Default, Clone)]
pub struct ProfileHooks {
    marks: MarkLog,
    fetch_counts: HashMap<u32, u64>,
    accesses: u64,
}

impl ProfileHooks {
    /// A fresh capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the capture into an immutable [`RawProfile`].
    pub fn finish(self) -> RawProfile {
        RawProfile {
            records: self.marks.records,
            cycles: self.marks.cycles,
            fetch_counts: self.fetch_counts,
            accesses: self.accesses,
        }
    }
}

impl Hooks for ProfileHooks {
    #[inline]
    fn access(&mut self, access: Access) {
        self.accesses += 1;
        if access.kind == AccessKind::Fetch {
            *self.fetch_counts.entry(access.addr).or_insert(0) += 1;
        }
    }

    #[inline]
    fn instruction(&mut self, pri: Priority, pc: u32) {
        self.marks.instruction(pri, pc);
    }

    #[inline]
    fn queue_sample(&mut self, used_words: [u32; 2]) {
        self.marks.queue_sample(used_words);
    }

    #[inline]
    fn mark(&mut self, mark: Mark, frame: u32, pri: Priority) {
        self.marks.mark(mark, frame, pri);
    }
}

/// The raw capture from one run, before any analysis.
#[derive(Debug, Clone)]
pub struct RawProfile {
    /// Granularity marks in execution order.
    pub records: Vec<MarkRecord>,
    /// Instructions executed per priority over the whole run.
    pub cycles: [u64; 2],
    /// Instruction-fetch count per program counter.
    pub fetch_counts: HashMap<u32, u64>,
    /// Total memory accesses observed (fetches + data).
    pub accesses: u64,
}

impl RawProfile {
    /// Total instructions executed (the run's global cycle count).
    #[inline]
    pub fn total_cycles(&self) -> u64 {
        self.cycles[0] + self.cycles[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_splits_fetches_from_data_accesses() {
        let mut h = ProfileHooks::new();
        h.access(Access::fetch(0x100));
        h.access(Access::fetch(0x100));
        h.access(Access::fetch(0x104));
        h.access(Access::read(0x2000));
        h.instruction(Priority::Low, 0x100);
        h.instruction(Priority::Low, 0x104);
        h.queue_sample([2, 0]);
        h.mark(Mark::ThreadEnd, 0x40, Priority::Low);
        let raw = h.finish();
        assert_eq!(raw.accesses, 4);
        assert_eq!(raw.fetch_counts[&0x100], 2);
        assert_eq!(raw.fetch_counts[&0x104], 1);
        assert!(!raw.fetch_counts.contains_key(&0x2000));
        assert_eq!(raw.total_cycles(), 2);
        assert_eq!(raw.records.len(), 1);
        assert_eq!(raw.records[0].queue_words, [2, 0]);
    }
}
