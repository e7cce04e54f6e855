//! Folding the mark stream into typed spans, tracks, and quantum
//! statistics.
//!
//! The machine emits zero-cost marks at every thread, inlet, and system
//! boundary, each carrying a snapshot of the per-priority instruction
//! counters. Because marks cost nothing, `cycles[0] + cycles[1]` at a mark
//! is the exact global timestamp of that boundary — the builder here only
//! has to pair up start/end marks to recover a full scheduling timeline,
//! no per-instruction log required.
//!
//! # Track model
//!
//! Spans are laid out so that spans on the *same track* never overlap:
//!
//! * one track per activation **frame**, carrying that frame's thread
//!   spans (threads execute sequentially at low priority, and a frame
//!   runs one thread at a time);
//! * one **inlet** track per priority (inlets at one priority are
//!   serviced one at a time);
//! * one **system** track per priority (nested `SysStart`/`SysEnd` pairs
//!   are depth-counted and reported as the outermost span);
//! * one **scheduler** track per priority holding "glue" spans — cycles
//!   executed between marks with no thread, inlet, or system routine
//!   open, i.e. dispatch/scheduling overhead — plus `FrameActivated`
//!   instants.
//!
//! Spans on different tracks routinely overlap (a high-priority inlet
//! interrupting a low-priority thread is the paper's central scenario).

use std::collections::HashMap;

use tamsim_trace::{Mark, MarkRecord, Priority};

/// What kind of execution a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A TAM thread body.
    Thread,
    /// A TAM inlet body.
    Inlet,
    /// A system routine (scheduler, frame allocator, post library, ...).
    Sys,
    /// Cycles between marks with nothing open: dispatch/scheduling glue.
    Other,
}

impl SpanKind {
    /// Category label used by the exporters.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Thread => "thread",
            SpanKind::Inlet => "inlet",
            SpanKind::Sys => "sys",
            SpanKind::Other => "other",
        }
    }
}

/// One closed interval of execution on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Timeline::tracks`].
    pub track: usize,
    /// Display name ("fib.t2", "sys", "glue", ...).
    pub name: String,
    /// Span category.
    pub kind: SpanKind,
    /// Priority level the span executed at.
    pub pri: Priority,
    /// Frame pointer associated with the span (0 where not meaningful).
    pub frame: u32,
    /// Global start timestamp in cycles.
    pub start: u64,
    /// Global end timestamp in cycles (`end >= start`).
    pub end: u64,
    /// Instructions executed *at this span's own priority* inside it.
    ///
    /// For spans interrupted by the other priority this is smaller than
    /// `end - start`; the difference is exactly the interruption time.
    pub instructions: u64,
}

/// A named horizontal track of non-overlapping spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Display name.
    pub name: String,
}

/// A zero-duration event on a track (scheduler frame activations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instant {
    /// Index into [`Timeline::tracks`].
    pub track: usize,
    /// Global timestamp in cycles.
    pub at: u64,
    /// Display name.
    pub name: &'static str,
}

/// Message-queue occupancy sampled at a mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSample {
    /// Global timestamp in cycles.
    pub at: u64,
    /// Occupied queue words per priority (`[low, high]`).
    pub queue_words: [u32; 2],
}

/// One scheduling quantum: a maximal run of consecutive threads on the
/// same frame (the paper's unit of locality, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantum {
    /// The frame the quantum executed on.
    pub frame: u32,
    /// Global start (first thread's start).
    pub start: u64,
    /// Global end (last thread's end).
    pub end: u64,
    /// Threads executed in the quantum.
    pub threads: u32,
    /// Instructions executed inside the quantum's threads (thread
    /// priority only — excludes interrupting inlets).
    pub cycles: u64,
    /// Inlet activations that began while one of this quantum's threads
    /// was executing (preemptions of the quantum).
    pub interruptions: u32,
}

/// Aggregate quantum statistics for one run.
#[derive(Debug, Default, Clone)]
pub struct QuantumStats {
    /// All quanta in execution order.
    pub quanta: Vec<Quantum>,
    /// Total threads executed.
    pub threads: u64,
    /// Total inlet activations.
    pub inlets: u64,
    /// Instructions executed inside thread bodies.
    pub thread_cycles: u64,
    /// Instructions executed inside inlet bodies.
    pub inlet_cycles: u64,
    /// Scheduling events observed: AM scheduler frame activations
    /// (`FrameActivated` marks) plus thread-priority message dispatches
    /// (`InletStart` at low priority — how the MD implementation enters
    /// user code).
    ///
    /// This is finer than the paper's frame-run quantum: consecutive
    /// events on the same frame stay one *quantum* but remain separate
    /// scheduling events, which is what separates the two implementations
    /// on programs whose messages often revisit the current frame — one
    /// AM activation drains a frame's whole RCV where MD takes a
    /// scheduling event per message.
    pub activations: u64,
}

impl QuantumStats {
    /// Number of quanta.
    pub fn count(&self) -> usize {
        self.quanta.len()
    }

    /// Mean threads per quantum (the paper's headline locality metric).
    pub fn threads_per_quantum(&self) -> f64 {
        ratio(self.threads, self.quanta.len() as u64)
    }

    /// Mean threads per scheduling event (see
    /// [`QuantumStats::activations`]); 0 when no events were observed.
    pub fn threads_per_activation(&self) -> f64 {
        ratio(self.threads, self.activations)
    }

    /// Mean instructions per thread body.
    pub fn instructions_per_thread(&self) -> f64 {
        ratio(self.thread_cycles, self.threads)
    }

    /// Mean inlet interruptions per thread.
    pub fn interruptions_per_thread(&self) -> f64 {
        let total: u64 = self.quanta.iter().map(|q| q.interruptions as u64).sum();
        ratio(total, self.threads)
    }

    /// Mean quantum length in cycles.
    pub fn mean_cycles(&self) -> f64 {
        let total: u64 = self.quanta.iter().map(|q| q.cycles).sum();
        ratio(total, self.quanta.len() as u64)
    }

    /// A percentile (0.0–1.0) of quantum length in cycles; 0 when empty.
    pub fn percentile_cycles(&self, p: f64) -> u64 {
        if self.quanta.is_empty() {
            return 0;
        }
        let mut lens: Vec<u64> = self.quanta.iter().map(|q| q.cycles).collect();
        lens.sort_unstable();
        let idx = ((lens.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        lens[idx]
    }

    /// Median quantum length in cycles.
    pub fn median_cycles(&self) -> u64 {
        self.percentile_cycles(0.5)
    }

    /// Longest quantum in cycles.
    pub fn max_cycles(&self) -> u64 {
        self.quanta.iter().map(|q| q.cycles).max().unwrap_or(0)
    }

    /// Histogram of threads-per-quantum: `(threads, quanta)` pairs, dense
    /// from 1 to the maximum observed.
    pub fn threads_histogram(&self) -> Vec<(u32, u64)> {
        let max = self.quanta.iter().map(|q| q.threads).max().unwrap_or(0);
        let mut counts = vec![0u64; max as usize + 1];
        for q in &self.quanta {
            counts[q.threads as usize] += 1;
        }
        (1..=max).map(|t| (t, counts[t as usize])).collect()
    }

    /// Power-of-two histogram of quantum length: `(lo, hi, quanta)` with
    /// half-open buckets `[lo, hi)`.
    pub fn length_histogram(&self) -> Vec<(u64, u64, u64)> {
        if self.quanta.is_empty() {
            return Vec::new();
        }
        let max = self.max_cycles();
        let buckets = 64 - max.leading_zeros() as usize + 1;
        let mut counts = vec![0u64; buckets];
        for q in &self.quanta {
            // Bucket k holds lengths in [2^(k-1), 2^k), bucket 0 holds 0.
            let k = (64 - q.cycles.leading_zeros()) as usize;
            counts[k] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(k, &c)| {
                let lo = if k == 0 { 0 } else { 1u64 << (k - 1) };
                let hi = 1u64 << k;
                (lo, hi, c)
            })
            .collect()
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The complete scheduling timeline of one run.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    /// Tracks, in creation order (frames first by appearance, then the
    /// per-priority inlet/system/scheduler tracks as they are needed).
    pub tracks: Vec<Track>,
    /// All spans; spans sharing a `track` never overlap.
    pub spans: Vec<Span>,
    /// Zero-duration scheduler events.
    pub instants: Vec<Instant>,
    /// Queue-occupancy samples in time order (deduplicated runs).
    pub counters: Vec<CounterSample>,
    /// Quantum statistics derived from the thread spans.
    pub quanta: QuantumStats,
    /// Final per-priority instruction counters.
    pub cycles: [u64; 2],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TrackKey {
    Frame(u32),
    Inlet(Priority),
    Sys(Priority),
    Sched(Priority),
}

struct OpenSpan {
    name: String,
    frame: u32,
    track: usize,
    start: u64,
    start_at_pri: u64,
}

struct Builder<'a> {
    codeblock_names: &'a [&'a str],
    tracks: Vec<Track>,
    track_ids: HashMap<TrackKey, usize>,
    spans: Vec<Span>,
    instants: Vec<Instant>,
    counters: Vec<CounterSample>,
    open_thread: [Option<OpenSpan>; 2],
    open_inlet: [Option<OpenSpan>; 2],
    sys_depth: [u32; 2],
    sys_open: [Option<(u64, u64)>; 2],
    prev_cycles: [u64; 2],
    prev_global: u64,
    // (frame, start, end, instructions) per thread, in start order.
    threads: Vec<(u32, u64, u64, u64)>,
    inlet_starts: Vec<u64>,
    // Scheduling boundaries: FrameActivated / thread-priority InletStart.
    boundaries: Vec<u64>,
}

impl Builder<'_> {
    fn track(&mut self, key: TrackKey) -> usize {
        if let Some(&id) = self.track_ids.get(&key) {
            return id;
        }
        let name = match key {
            TrackKey::Frame(fp) => format!("frame {fp:#010x}"),
            TrackKey::Inlet(p) => format!("inlets ({})", pri_name(p)),
            TrackKey::Sys(p) => format!("system ({})", pri_name(p)),
            TrackKey::Sched(p) => format!("scheduler ({})", pri_name(p)),
        };
        let id = self.tracks.len();
        self.tracks.push(Track { name });
        self.track_ids.insert(key, id);
        id
    }

    fn codeblock_name(&self, cb: u16) -> String {
        match self.codeblock_names.get(cb as usize) {
            Some(name) => (*name).to_string(),
            None => format!("cb{cb}"),
        }
    }

    /// Attribute cycles since the previous mark: any priority that
    /// advanced with no thread, inlet, or system routine open was running
    /// scheduler/dispatch glue.
    fn flush_glue(&mut self, cycles: [u64; 2], global: u64) {
        for p in Priority::ALL {
            let i = p.index();
            let delta = cycles[i] - self.prev_cycles[i];
            let open = self.open_thread[i].is_some()
                || self.open_inlet[i].is_some()
                || self.sys_depth[i] > 0;
            if delta > 0 && !open {
                let track = self.track(TrackKey::Sched(p));
                self.spans.push(Span {
                    track,
                    name: "glue".to_string(),
                    kind: SpanKind::Other,
                    pri: p,
                    frame: 0,
                    start: self.prev_global,
                    end: global,
                    instructions: delta,
                });
            }
        }
    }

    fn close_thread(&mut self, pri: Priority, cycles: [u64; 2], global: u64) {
        if let Some(open) = self.open_thread[pri.index()].take() {
            let instructions = cycles[pri.index()] - open.start_at_pri;
            self.threads
                .push((open.frame, open.start, global, instructions));
            self.spans.push(Span {
                track: open.track,
                name: open.name,
                kind: SpanKind::Thread,
                pri,
                frame: open.frame,
                start: open.start,
                end: global,
                instructions,
            });
        }
    }

    fn close_inlet(&mut self, pri: Priority, cycles: [u64; 2], global: u64) {
        if let Some(open) = self.open_inlet[pri.index()].take() {
            self.spans.push(Span {
                track: open.track,
                name: open.name,
                kind: SpanKind::Inlet,
                pri,
                frame: open.frame,
                start: open.start,
                end: global,
                instructions: cycles[pri.index()] - open.start_at_pri,
            });
        }
    }

    fn close_sys(&mut self, pri: Priority, cycles: [u64; 2], global: u64) {
        if let Some((start, start_at_pri)) = self.sys_open[pri.index()].take() {
            let track = self.track(TrackKey::Sys(pri));
            self.spans.push(Span {
                track,
                name: "sys".to_string(),
                kind: SpanKind::Sys,
                pri,
                frame: 0,
                start,
                end: global,
                instructions: cycles[pri.index()] - start_at_pri,
            });
        }
    }

    fn apply(&mut self, r: &MarkRecord) {
        let global = r.at();
        let i = r.pri.index();
        match r.mark {
            Mark::ThreadStart { codeblock, thread } => {
                // Defensive: a missing ThreadEnd truncates at the next start.
                self.close_thread(r.pri, r.cycles, global);
                let name = format!("{}.t{}", self.codeblock_name(codeblock), thread);
                let track = self.track(TrackKey::Frame(r.frame));
                self.open_thread[i] = Some(OpenSpan {
                    name,
                    frame: r.frame,
                    track,
                    start: global,
                    start_at_pri: r.cycles[i],
                });
            }
            Mark::ThreadEnd => self.close_thread(r.pri, r.cycles, global),
            Mark::InletStart { codeblock, inlet } => {
                self.close_inlet(r.pri, r.cycles, global);
                let name = format!("{}.in{}", self.codeblock_name(codeblock), inlet);
                let track = self.track(TrackKey::Inlet(r.pri));
                self.inlet_starts.push(global);
                if r.pri == Priority::Low {
                    // An MD message dispatch at thread priority.
                    self.boundaries.push(global);
                }
                self.open_inlet[i] = Some(OpenSpan {
                    name,
                    frame: r.frame,
                    track,
                    start: global,
                    start_at_pri: r.cycles[i],
                });
            }
            Mark::InletEnd => self.close_inlet(r.pri, r.cycles, global),
            Mark::SysStart => {
                self.sys_depth[i] += 1;
                if self.sys_depth[i] == 1 {
                    self.sys_open[i] = Some((global, r.cycles[i]));
                }
            }
            Mark::SysEnd => {
                if self.sys_depth[i] > 0 {
                    self.sys_depth[i] -= 1;
                    if self.sys_depth[i] == 0 {
                        self.close_sys(r.pri, r.cycles, global);
                    }
                }
            }
            Mark::FrameActivated => {
                let track = self.track(TrackKey::Sched(r.pri));
                self.boundaries.push(global);
                self.instants.push(Instant {
                    track,
                    at: global,
                    name: "frame activated",
                });
            }
        }
    }

    fn sample_counters(&mut self, r: &MarkRecord) {
        let at = r.at();
        match self.counters.last_mut() {
            Some(last) if last.at == at => last.queue_words = r.queue_words,
            Some(last) if last.queue_words == r.queue_words => {}
            _ => self.counters.push(CounterSample {
                at,
                queue_words: r.queue_words,
            }),
        }
    }

    /// Group the chronological thread list into quanta (a new quantum
    /// starts whenever the frame changes — the same rule the granularity
    /// statistics use) and count inlet interruptions per quantum.
    fn quanta(&self) -> Vec<Quantum> {
        let mut quanta: Vec<Quantum> = Vec::new();
        let mut thread_quantum = Vec::with_capacity(self.threads.len());
        for &(frame, start, end, cycles) in &self.threads {
            match quanta.last_mut() {
                Some(q) if q.frame == frame => {
                    q.end = end;
                    q.threads += 1;
                    q.cycles += cycles;
                }
                _ => quanta.push(Quantum {
                    frame,
                    start,
                    end,
                    threads: 1,
                    cycles,
                    interruptions: 0,
                }),
            }
            thread_quantum.push(quanta.len() - 1);
        }
        // Threads are sequential and both lists are in start order, so a
        // two-pointer sweep attributes each inlet start to the (unique)
        // thread window containing it, if any.
        let mut t = 0usize;
        for &at in &self.inlet_starts {
            while t < self.threads.len() && self.threads[t].2 <= at {
                t += 1;
            }
            if t < self.threads.len() && self.threads[t].1 <= at {
                quanta[thread_quantum[t]].interruptions += 1;
            }
        }
        quanta
    }

    fn finish(mut self, final_cycles: [u64; 2]) -> Timeline {
        let final_global = final_cycles[0] + final_cycles[1];
        self.flush_glue(final_cycles, final_global);
        // Defensive: close anything still open at the end of the run.
        for p in Priority::ALL {
            self.close_thread(p, final_cycles, final_global);
            self.close_inlet(p, final_cycles, final_global);
            self.sys_depth[p.index()] = 0;
            self.close_sys(p, final_cycles, final_global);
        }
        let quanta = self.quanta();
        let stats = QuantumStats {
            activations: self.boundaries.len() as u64,
            threads: self.threads.len() as u64,
            inlets: self.inlet_starts.len() as u64,
            thread_cycles: self.threads.iter().map(|t| t.3).sum(),
            inlet_cycles: self
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Inlet)
                .map(|s| s.instructions)
                .sum(),
            quanta,
        };
        Timeline {
            tracks: self.tracks,
            spans: self.spans,
            instants: self.instants,
            counters: self.counters,
            quanta: stats,
            cycles: final_cycles,
        }
    }
}

fn pri_name(p: Priority) -> &'static str {
    match p {
        Priority::Low => "low",
        Priority::High => "high",
    }
}

impl Timeline {
    /// Build a timeline from the retained mark stream of one run.
    ///
    /// `final_cycles` are the run's final per-priority instruction
    /// counters (cycles executed after the last mark become trailing glue
    /// or extend a still-open span). `codeblock_names` maps codeblock ids
    /// to display names; ids beyond the slice fall back to `"cbN"`.
    pub fn build(
        records: &[MarkRecord],
        final_cycles: [u64; 2],
        codeblock_names: &[&str],
    ) -> Timeline {
        let mut b = Builder {
            codeblock_names,
            tracks: Vec::new(),
            track_ids: HashMap::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            counters: Vec::new(),
            open_thread: [None, None],
            open_inlet: [None, None],
            sys_depth: [0, 0],
            sys_open: [None, None],
            prev_cycles: [0, 0],
            prev_global: 0,
            threads: Vec::new(),
            inlet_starts: Vec::new(),
            boundaries: Vec::new(),
        };
        for r in records {
            let global = r.at();
            b.flush_glue(r.cycles, global);
            b.apply(r);
            b.sample_counters(r);
            b.prev_cycles = r.cycles;
            b.prev_global = global;
        }
        b.finish(final_cycles)
    }

    /// Total cycles (instructions) in the run.
    #[inline]
    pub fn total_cycles(&self) -> u64 {
        self.cycles[0] + self.cycles[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycles: [u64; 2], mark: Mark, frame: u32, pri: Priority) -> MarkRecord {
        MarkRecord {
            cycles,
            mark,
            frame,
            pri,
            queue_words: [0, 0],
        }
    }

    fn ts(cb: u16, t: u16) -> Mark {
        Mark::ThreadStart {
            codeblock: cb,
            thread: t,
        }
    }

    /// Two threads on frame A, one on frame B, with a high-priority inlet
    /// interrupting the second thread.
    fn sample_records() -> Vec<MarkRecord> {
        vec![
            rec([2, 0], ts(0, 0), 0x100, Priority::Low),
            rec([10, 0], Mark::ThreadEnd, 0x100, Priority::Low),
            rec([12, 0], ts(0, 1), 0x100, Priority::Low),
            rec(
                [15, 0],
                Mark::InletStart {
                    codeblock: 0,
                    inlet: 0,
                },
                0x100,
                Priority::High,
            ),
            rec([15, 5], Mark::InletEnd, 0x100, Priority::High),
            rec([20, 5], Mark::ThreadEnd, 0x100, Priority::Low),
            rec([22, 5], ts(1, 0), 0x200, Priority::Low),
            rec([30, 5], Mark::ThreadEnd, 0x200, Priority::Low),
        ]
    }

    #[test]
    fn builds_quanta_with_interruptions() {
        let t = Timeline::build(&sample_records(), [31, 5], &["fib", "main"]);
        assert_eq!(t.quanta.count(), 2);
        assert_eq!(t.quanta.threads, 3);
        assert_eq!(t.quanta.inlets, 1);
        let q0 = t.quanta.quanta[0];
        assert_eq!((q0.frame, q0.threads, q0.cycles), (0x100, 2, 16));
        assert_eq!(q0.interruptions, 1);
        let q1 = t.quanta.quanta[1];
        assert_eq!(
            (q1.frame, q1.threads, q1.cycles, q1.interruptions),
            (0x200, 1, 8, 0)
        );
        assert!((t.quanta.threads_per_quantum() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn spans_carry_names_and_priorities() {
        let t = Timeline::build(&sample_records(), [31, 5], &["fib", "main"]);
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"fib.t0"));
        assert!(names.contains(&"fib.t1"));
        assert!(names.contains(&"main.t0"));
        assert!(names.contains(&"fib.in0"));
        let inlet = t.spans.iter().find(|s| s.kind == SpanKind::Inlet).unwrap();
        assert_eq!(inlet.pri, Priority::High);
        assert_eq!(inlet.instructions, 5);
        // The inlet spans global time 15..20 (5 high-pri instructions).
        assert_eq!((inlet.start, inlet.end), (15, 20));
    }

    #[test]
    fn glue_fills_unattributed_cycles() {
        let t = Timeline::build(&sample_records(), [31, 5], &[]);
        let glue: u64 = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Other)
            .map(|s| s.instructions)
            .sum();
        // Low: 0..2 before t0, 10..12, 20..22 between threads, 30..31 tail.
        assert_eq!(glue, 2 + 2 + 2 + 1);
        // Every low-priority instruction is attributed exactly once.
        let attributed: u64 = t
            .spans
            .iter()
            .filter(|s| s.pri == Priority::Low)
            .map(|s| s.instructions)
            .sum();
        assert_eq!(attributed, 31);
    }

    #[test]
    fn spans_on_one_track_never_overlap() {
        let t = Timeline::build(&sample_records(), [31, 5], &[]);
        for track in 0..t.tracks.len() {
            let mut spans: Vec<&Span> = t.spans.iter().filter(|s| s.track == track).collect();
            spans.sort_by_key(|s| s.start);
            for pair in spans.windows(2) {
                assert!(
                    pair[1].start >= pair[0].end,
                    "overlap on track {track}: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_codeblocks_fall_back_to_ids() {
        let t = Timeline::build(&sample_records(), [31, 5], &[]);
        assert!(t.spans.iter().any(|s| s.name == "cb0.t0"));
    }

    #[test]
    fn sys_spans_are_depth_counted() {
        let records = vec![
            rec([1, 0], Mark::SysStart, 0, Priority::Low),
            rec([3, 0], Mark::SysStart, 0, Priority::Low),
            rec([6, 0], Mark::SysEnd, 0, Priority::Low),
            rec([9, 0], Mark::SysEnd, 0, Priority::Low),
        ];
        let t = Timeline::build(&records, [10, 0], &[]);
        let sys: Vec<&Span> = t.spans.iter().filter(|s| s.kind == SpanKind::Sys).collect();
        assert_eq!(sys.len(), 1);
        assert_eq!((sys[0].start, sys[0].end, sys[0].instructions), (1, 9, 8));
    }

    #[test]
    fn histograms_cover_all_quanta() {
        let t = Timeline::build(&sample_records(), [31, 5], &[]);
        let th = t.quanta.threads_histogram();
        assert_eq!(th, vec![(1, 1), (2, 1)]);
        let lh = t.quanta.length_histogram();
        let total: u64 = lh.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total as usize, t.quanta.count());
        for &(lo, hi, _) in &lh {
            assert!(lo < hi);
        }
    }

    #[test]
    fn counters_deduplicate_repeated_values() {
        let mut records = sample_records();
        for r in &mut records {
            r.queue_words = [3, 0];
        }
        records[4].queue_words = [3, 1];
        let t = Timeline::build(&records, [31, 5], &[]);
        assert!(t.counters.len() >= 2);
        for pair in t.counters.windows(2) {
            assert!(pair[0].at <= pair[1].at);
            assert!(pair[0].queue_words != pair[1].queue_words || pair[0].at < pair[1].at);
        }
    }

    #[test]
    fn activations_split_on_scheduling_boundaries() {
        // MD-style stream: two messages dispatched to the SAME frame, one
        // thread each. Frame-run quanta merge them; activations do not.
        let records = vec![
            rec(
                [1, 0],
                Mark::InletStart {
                    codeblock: 0,
                    inlet: 0,
                },
                0x100,
                Priority::Low,
            ),
            rec([3, 0], Mark::InletEnd, 0x100, Priority::Low),
            rec([3, 0], ts(0, 0), 0x100, Priority::Low),
            rec([8, 0], Mark::ThreadEnd, 0x100, Priority::Low),
            rec(
                [9, 0],
                Mark::InletStart {
                    codeblock: 0,
                    inlet: 0,
                },
                0x100,
                Priority::Low,
            ),
            rec([11, 0], Mark::InletEnd, 0x100, Priority::Low),
            rec([11, 0], ts(0, 1), 0x100, Priority::Low),
            rec([16, 0], Mark::ThreadEnd, 0x100, Priority::Low),
        ];
        let t = Timeline::build(&records, [17, 0], &[]);
        assert_eq!(t.quanta.count(), 1);
        assert_eq!(t.quanta.activations, 2);
        assert!((t.quanta.threads_per_activation() - 1.0).abs() < 1e-9);
        // High-priority inlets are interruptions, not scheduling events.
        let t = Timeline::build(&sample_records(), [31, 5], &[]);
        assert_eq!(t.quanta.activations, 0);
    }

    #[test]
    fn frame_activations_are_boundaries_and_instants() {
        let records = vec![
            rec([1, 0], Mark::FrameActivated, 0x100, Priority::Low),
            rec([2, 0], ts(0, 0), 0x100, Priority::Low),
            rec([5, 0], Mark::ThreadEnd, 0x100, Priority::Low),
            rec([6, 0], Mark::FrameActivated, 0x100, Priority::Low),
            rec([7, 0], ts(0, 1), 0x100, Priority::Low),
            rec([9, 0], Mark::ThreadEnd, 0x100, Priority::Low),
        ];
        let t = Timeline::build(&records, [10, 0], &[]);
        assert_eq!(t.quanta.count(), 1); // same frame: one frame-run quantum
        assert_eq!(t.quanta.activations, 2); // two scheduler activations
        assert_eq!(t.instants.len(), 2);
    }

    #[test]
    fn empty_run_is_empty_timeline() {
        let t = Timeline::build(&[], [0, 0], &[]);
        assert!(t.spans.is_empty());
        assert_eq!(t.quanta.count(), 0);
        assert_eq!(t.quanta.threads_per_quantum(), 0.0);
        assert_eq!(t.quanta.median_cycles(), 0);
    }
}
