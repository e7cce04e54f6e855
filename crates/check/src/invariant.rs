//! Machine-level invariant checking, as a trace-sink layer over the
//! access/mark stream of a `tamsim-mdp` run.
//!
//! The checker validates every event the machine emits, with no knowledge
//! of *which* program is running:
//!
//! * **Region discipline** — every access classifies under
//!   [`MemoryMap::try_classify`] (no access above the modeled top of
//!   memory), every address is word-aligned, instruction fetches come only
//!   from code regions, and data reads/writes never target code regions
//!   (the lowerings keep code immutable; descriptors and inlet tables live
//!   in system data).
//! * **Frame initialization** — a word-granularity written-bitmap over the
//!   frame region flags any read of a frame word that was never written
//!   during the run. Load-time memory seeding touches only code,
//!   descriptors, globals, and heap arrays, and boot-message injection
//!   only queue memory, so a frame word's first event must be a write: the
//!   frame allocator initializes every header word (link, RCV, parent,
//!   reply, entry counts) before any code reads it, and generated programs
//!   store every user slot before loading it.
//! * **Queue occupancy conservation** — every queue-occupancy sample (the
//!   machine samples both queues at each mark) stays within the configured
//!   capacity, per priority.
//!
//! Violations accumulate as human-readable strings (capped — a broken run
//! can emit millions) rather than panicking, so the differential runner
//! can report them per implementation and the shrinker can use "still
//! violates" as its failure signature.

use tamsim_mdp::MachineConfig;
use tamsim_trace::{Access, AccessKind, Hooks, MemoryMap};

/// Cap on retained violation messages (the total count keeps counting).
const MAX_RETAINED: usize = 16;

/// A [`Hooks`] layer that validates the event stream of one machine run.
/// Pass it to the run directly, or teed with a trace recorder.
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    map: MemoryMap,
    queue_caps: [u32; 2],
    /// One bit per frame-region word: set once written.
    frame_written: Vec<u64>,
    check_uninit_reads: bool,
    /// Retained violation messages, up to a cap (`total_violations` keeps
    /// counting past it).
    pub violations: Vec<String>,
    /// Total violations observed, including ones past the retention cap.
    pub total_violations: u64,
}

impl InvariantChecker {
    /// A checker for runs under `cfg` (the map bounds the regions, the
    /// queue capacities bound the occupancy samples).
    pub fn new(cfg: &MachineConfig) -> Self {
        let frame_words = ((cfg.map.heap_base - cfg.map.frame_base) / 4) as usize;
        InvariantChecker {
            map: cfg.map,
            queue_caps: cfg.queue_words,
            frame_written: vec![0u64; frame_words.div_ceil(64)],
            check_uninit_reads: true,
            violations: Vec::new(),
            total_violations: 0,
        }
    }

    /// Disable the never-written-frame-word rule.
    ///
    /// Hand-written programs may legitimately read zero-defaulted frame
    /// slots — the wavefront benchmark's boundary handling loads
    /// `frame[base + i]` unconditionally and multiplies by a bounds
    /// predicate, relying on out-of-range slots reading as zero. Generated
    /// programs always store before loading, so the fuzzer keeps the rule
    /// on.
    pub fn without_uninit_read_check(mut self) -> Self {
        self.check_uninit_reads = false;
        self
    }

    /// Whether the run stayed clean.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    fn violate(&mut self, msg: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RETAINED {
            self.violations.push(msg);
        }
    }

    /// Bit index of a frame-region byte address, if it is one.
    fn frame_bit(&self, addr: u32) -> Option<usize> {
        (self.map.frame_base..self.map.heap_base)
            .contains(&addr)
            .then(|| ((addr - self.map.frame_base) / 4) as usize)
    }
}

impl Hooks for InvariantChecker {
    fn access(&mut self, access: Access) {
        let Some(region) = self.map.try_classify(access.addr) else {
            self.violate(format!(
                "{} at {:#x}: above the modeled top of memory",
                access.kind.name(),
                access.addr
            ));
            return;
        };
        if !access.addr.is_multiple_of(4) {
            self.violate(format!(
                "{} at {:#x}: unaligned address",
                access.kind.name(),
                access.addr
            ));
            return;
        }
        match access.kind {
            AccessKind::Fetch => {
                if !region.is_code() {
                    self.violate(format!(
                        "fetch at {:#x}: from {} (not a code region)",
                        access.addr,
                        region.name()
                    ));
                }
            }
            AccessKind::Read | AccessKind::Write => {
                if region.is_code() {
                    self.violate(format!(
                        "{} at {:#x}: data access in {}",
                        access.kind.name(),
                        access.addr,
                        region.name()
                    ));
                    return;
                }
                if let Some(bit) = self.frame_bit(access.addr) {
                    if access.kind == AccessKind::Write {
                        self.frame_written[bit / 64] |= 1 << (bit % 64);
                    } else if self.check_uninit_reads
                        && self.frame_written[bit / 64] & (1 << (bit % 64)) == 0
                    {
                        self.violate(format!(
                            "read at {:#x}: frame word never written this run",
                            access.addr
                        ));
                    }
                }
            }
        }
    }

    fn queue_sample(&mut self, used_words: [u32; 2]) {
        let caps = self.queue_caps;
        for (i, (&used, &cap)) in used_words.iter().zip(&caps).enumerate() {
            if used > cap {
                self.violate(format!(
                    "queue occupancy sample {used} words exceeds capacity {cap} (priority {i})",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> InvariantChecker {
        InvariantChecker::new(&MachineConfig::default())
    }

    #[test]
    fn clean_stream_stays_clean() {
        let map = MemoryMap::default();
        let mut c = checker();
        c.access(Access::fetch(map.system_code_base + 8));
        c.access(Access::fetch(map.user_code_base));
        c.access(Access::read(map.system_data_base + 4));
        c.access(Access::write(map.frame_base + 16));
        c.access(Access::read(map.frame_base + 16));
        c.access(Access::read(map.heap_base)); // empty-cell state reads are legal
        c.queue_sample([4, 0]);
        assert!(c.is_clean(), "{:?}", c.violations);
    }

    #[test]
    fn flags_out_of_range_and_unaligned() {
        let mut c = checker();
        c.access(Access::read(MemoryMap::default().top));
        c.access(Access::write(MemoryMap::default().frame_base + 2));
        assert_eq!(c.total_violations, 2);
        assert!(c.violations[0].contains("top of memory"));
        assert!(c.violations[1].contains("unaligned"));
    }

    #[test]
    fn flags_region_discipline_breaches() {
        let map = MemoryMap::default();
        let mut c = checker();
        c.access(Access::fetch(map.frame_base)); // fetch from data
        c.access(Access::write(map.user_code_base + 4)); // write to code
        c.access(Access::read(map.system_code_base)); // read from code
        assert_eq!(c.total_violations, 3);
    }

    #[test]
    fn flags_read_of_never_written_frame_word() {
        let map = MemoryMap::default();
        let mut c = checker();
        c.access(Access::read(map.frame_base + 64));
        assert_eq!(c.total_violations, 1);
        assert!(c.violations[0].contains("never written"));
        // Writing first makes the same read legal.
        c.access(Access::write(map.frame_base + 68));
        c.access(Access::read(map.frame_base + 68));
        assert_eq!(c.total_violations, 1);
    }

    #[test]
    fn uninit_read_rule_can_be_disabled() {
        let map = MemoryMap::default();
        let mut c = checker().without_uninit_read_check();
        c.access(Access::read(map.frame_base + 64));
        assert!(c.is_clean());
        // The other rules stay armed.
        c.access(Access::fetch(map.frame_base));
        assert_eq!(c.total_violations, 1);
    }

    #[test]
    fn flags_queue_overflow_samples() {
        let mut c = checker();
        let cap = MachineConfig::default().queue_words;
        c.queue_sample(cap);
        assert!(c.is_clean());
        c.queue_sample([cap[0] + 1, 0]);
        assert_eq!(c.total_violations, 1);
    }

    #[test]
    fn retention_is_capped_but_counting_is_not() {
        let mut c = checker();
        for i in 0..100 {
            c.access(Access::fetch(MemoryMap::default().frame_base + i * 4));
        }
        assert_eq!(c.total_violations, 100);
        assert_eq!(c.violations.len(), MAX_RETAINED);
    }
}
