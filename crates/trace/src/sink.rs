//! Stock observers of the machine model's event stream, each an
//! implementation of [`Hooks`].

use crate::{Access, AccessCounts, Hooks, Mark, MemoryMap, Priority};

/// A sink that records every access; for tests and small traces only.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// The recorded events, in program order.
    pub events: Vec<Access>,
}

impl VecSink {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hooks for VecSink {
    #[inline]
    fn access(&mut self, access: Access) {
        self.events.push(access);
    }
}

/// A sink that counts accesses per region and kind.
#[derive(Debug, Clone)]
pub struct CountingSink {
    /// The counters being accumulated.
    pub counts: AccessCounts,
    map: MemoryMap,
}

impl CountingSink {
    /// A zeroed counter over `map`.
    pub fn new(map: MemoryMap) -> Self {
        CountingSink {
            counts: AccessCounts::new(),
            map,
        }
    }
}

impl Hooks for CountingSink {
    #[inline]
    fn access(&mut self, access: Access) {
        // Checked classification: an address above the modeled top of
        // memory is a machine-model bug and must not be folded into a
        // region bucket, in release builds included.
        let Some(region) = self.map.try_classify(access.addr) else {
            panic!(
                "access at {:#x} lies above the modeled top of memory \
                 ({:#x}); machine-model bug",
                access.addr, self.map.top
            );
        };
        self.counts.record_in(region, access.kind);
    }

    #[inline]
    fn fetch_run(&mut self, _pri: Priority, start: u32, n: u32) {
        if n == 0 {
            return;
        }
        // A fetch run never crosses a region boundary (the decoder places a
        // guard slot at each region end), so one classification covers the
        // whole batch. Check the last address too so the whole run is
        // validated exactly as per-event delivery would have.
        let last = start + (n - 1) * 4;
        let (Some(region), Some(_)) = (self.map.try_classify(start), self.map.try_classify(last))
        else {
            panic!(
                "access at {:#x} lies above the modeled top of memory \
                 ({:#x}); machine-model bug",
                last, self.map.top
            );
        };
        self.counts
            .record_many(region, crate::AccessKind::Fetch, n as u64);
    }
}

/// Fan one event stream out to two observers.
///
/// Compose `Tee`s to feed any number of consumers in a single machine
/// run. Every callback, [`Hooks::fetch_run`] batches included, reaches
/// both sides whole, so each side's own bulk path (or its default
/// expansion) handles the batch.
#[derive(Debug, Default, Clone)]
pub struct Tee<A, B> {
    /// First downstream observer.
    pub a: A,
    /// Second downstream observer.
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// Combine two observers.
    pub fn new(a: A, b: B) -> Self {
        Tee { a, b }
    }
}

impl<A: Hooks, B: Hooks> Hooks for Tee<A, B> {
    #[inline]
    fn access(&mut self, access: Access) {
        self.a.access(access);
        self.b.access(access);
    }

    #[inline]
    fn instruction(&mut self, pri: Priority, pc: u32) {
        self.a.instruction(pri, pc);
        self.b.instruction(pri, pc);
    }

    #[inline]
    fn fetch_run(&mut self, pri: Priority, start_pc: u32, n: u32) {
        self.a.fetch_run(pri, start_pc, n);
        self.b.fetch_run(pri, start_pc, n);
    }

    #[inline]
    fn queue_sample(&mut self, used_words: [u32; 2]) {
        self.a.queue_sample(used_words);
        self.b.queue_sample(used_words);
    }

    #[inline]
    fn mark(&mut self, mark: Mark, frame: u32, pri: Priority) {
        self.a.mark(mark, frame, pri);
        self.b.mark(mark, frame, pri);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessKind;

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        s.access(Access::fetch(0));
        s.access(Access::read(4));
        s.access(Access::write(8));
        assert_eq!(
            s.events,
            vec![Access::fetch(0), Access::read(4), Access::write(8)]
        );
    }

    #[test]
    fn tee_duplicates_stream() {
        let mut t = Tee::new(VecSink::new(), VecSink::new());
        t.access(Access::read(12));
        assert_eq!(t.a.events, t.b.events);
        assert_eq!(t.a.events.len(), 1);
    }

    #[test]
    fn counting_sink_counts() {
        let map = MemoryMap::default();
        let mut c = CountingSink::new(map);
        c.access(Access::fetch(map.user_code_base));
        c.access(Access::fetch(map.user_code_base + 4));
        c.access(Access::write(map.frame_base));
        assert_eq!(c.counts.fetches(), 2);
        assert_eq!(c.counts.writes(), 1);
        assert_eq!(c.counts.kind_total(AccessKind::Read), 0);
    }

    #[test]
    #[should_panic(expected = "above the modeled top of memory")]
    fn counting_sink_rejects_out_of_range_addresses_in_release_too() {
        let mut c = CountingSink::new(MemoryMap::default());
        c.access(Access::read(0x7fff_fffc));
    }

    #[test]
    fn tee_forwards_marks_to_both_sinks() {
        let side = || Tee::new(VecSink::new(), crate::MarkLog::new());
        let mut t = Tee::new(side(), side());
        t.instruction(Priority::Low, 0);
        t.fetch_run(Priority::High, 0x100, 3);
        t.queue_sample([2, 0]);
        t.mark(Mark::ThreadEnd, 0x10, Priority::Low);
        let fetches: Vec<Access> = (0..3).map(|k| Access::fetch(0x100 + 4 * k)).collect();
        for side in [&t.a, &t.b] {
            assert_eq!(side.a.events, fetches);
            assert_eq!(side.b.cycles, [1, 3]);
            assert_eq!(side.b.records.len(), 1);
            assert_eq!(side.b.records[0].cycles, [1, 3]);
            assert_eq!(side.b.records[0].queue_words, [2, 0]);
        }
    }

    #[test]
    fn mut_ref_is_a_sink() {
        let mut v = VecSink::new();
        {
            let r: &mut VecSink = &mut v;
            r.access(Access::fetch(0));
        }
        assert_eq!(v.events.len(), 1);
    }
}
