//! The record-once/replay-parallel engine must be invisible: identical
//! measurements to streaming the same run into a live sink, in one
//! machine run when the queues fit.
//!
//! `run_recorded` strips for the paper's sweep, so its legs are scored at
//! this sweep's 64-byte geometries; every geometry, the 16-byte one
//! included, is scored from a `StrippedLog` built for this sweep and
//! recorded through `run_with_sink`.

use tamsim_cache::{paper_sweep, table2_geometry, CacheBank, CacheGeometry, StrippedLog};
use tamsim_core::{Experiment, Implementation};
use tamsim_tam::Program;
use tamsim_trace::{Access, AccessKind, Hooks, Priority, Tee, TraceLog};

fn sweep() -> Vec<CacheGeometry> {
    vec![
        table2_geometry(),
        CacheGeometry::new(1024, 1, 64),
        CacheGeometry::new(4096, 2, 16),
    ]
}

/// The geometries of `sweep()` that `run_recorded`'s recording covers.
fn recorded_sweep() -> Vec<CacheGeometry> {
    let geoms: Vec<CacheGeometry> = sweep()
        .into_iter()
        .filter(|g| g.block_bytes == 64)
        .collect();
    assert!(geoms.iter().all(|g| paper_sweep().contains(g)));
    geoms
}

fn programs() -> Vec<(&'static str, Program)> {
    vec![
        ("fib", tamsim_programs::fib(8)),
        ("ss", tamsim_programs::ss(12)),
    ]
}

/// Recording during the machine run and replaying the log afterwards must
/// reproduce the streaming path bit for bit: same run measurements, same
/// cache outcome for every geometry.
#[test]
fn record_replay_matches_streaming_sink() {
    let geoms = sweep();
    let at_64 = recorded_sweep();
    for (name, program) in programs() {
        for impl_ in [Implementation::Am, Implementation::Md] {
            let exp = Experiment::new(impl_);

            let mut bank = CacheBank::symmetric(geoms.iter().copied());
            let streamed = exp.run_with_sink(&program, &mut bank);

            let mut log = StrippedLog::for_sweep(&geoms);
            let stripped = exp.run_with_sink(&program, &mut log);
            let replayed = CacheBank::replay_parallel(&geoms, &log);

            let recorded = exp.run_recorded(&program);
            let replayed_64 = CacheBank::replay_parallel(&at_64, &recorded.log);

            let ctx = format!("{name} under {impl_:?}");
            for run in [&recorded.run, &stripped] {
                assert_eq!(run.instructions, streamed.instructions, "{ctx}");
                assert_eq!(run.result, streamed.result, "{ctx}");
                assert_eq!(run.queue_words, streamed.queue_words, "{ctx}");
                assert_eq!(
                    format!("{:?}", run.counts),
                    format!("{:?}", streamed.counts),
                    "{ctx}"
                );
            }
            assert_eq!(replayed, bank.summaries(), "{ctx}");
            let streamed_64: Vec<_> = at_64
                .iter()
                .map(|&g| (g, bank.summary_for(g).expect("a 64-byte geometry")))
                .collect();
            assert_eq!(replayed_64, streamed_64, "{ctx}");
            assert_eq!(log.len() as u64, stripped.counts.total(), "{ctx}");
            assert_eq!(
                recorded.log.len() as u64,
                recorded.run.counts.total(),
                "{ctx}"
            );
        }
    }
}

/// The recorder strips online exactly as it strips a raw log offline:
/// every back-end runs the small suite into a raw `TraceLog` and a
/// `StrippedLog` side by side, and feeding the raw log through a fresh
/// `StrippedLog` must rebuild the online one, field for field.
#[test]
fn online_strip_equals_offline_strip() {
    let mut geoms = paper_sweep();
    geoms.extend([8, 16, 32].map(|b| CacheGeometry::new(8192, 4, b)));
    for bench in tamsim_programs::small_suite() {
        for impl_ in [
            Implementation::Am,
            Implementation::AmEnabled,
            Implementation::Md,
        ] {
            let mut hooks = Tee::new(StrippedLog::for_sweep(&geoms), TraceLog::new());
            let run = Experiment::new(impl_).run_with_sink(&bench.program, &mut hooks);
            let Tee { a: online, b: raw } = hooks;
            let mut offline = StrippedLog::for_sweep(&geoms);
            offline.feed(&raw);
            let ctx = format!("{} under {impl_:?}", bench.name);
            assert_eq!(raw.len() as u64, run.counts.total(), "{ctx}");
            assert_eq!(online.len(), raw.len(), "{ctx}");
            assert!(online == offline, "{ctx}: online and offline strips differ");
            assert_eq!(
                CacheBank::replay_parallel(&geoms, &online),
                CacheBank::replay_parallel(&geoms, &raw),
                "{ctx}"
            );
        }
    }
}

/// The point of recording inside the sizing loop: when the default queues
/// fit, the sweep costs exactly one machine simulation.
#[test]
fn records_in_a_single_machine_run_when_queues_fit() {
    for (name, program) in programs() {
        for impl_ in [Implementation::Am, Implementation::Md] {
            let mut attempts = Vec::new();
            let rec = Experiment::new(impl_)
                .run_recorded_observed(&program, |attempt| attempts.push(attempt));
            assert_eq!(attempts, vec![0], "{name} under {impl_:?}");
            assert!(!rec.log.is_empty());
        }
    }
}

/// Queue overflow restarts with doubled queues and a discarded partial
/// log; the final recording must still match the streaming path run at
/// the same (tiny) initial queue sizes.
#[test]
fn overflow_retries_then_records_cleanly() {
    let geoms = sweep();
    let program = tamsim_programs::fib(8);
    let mut tiny = Experiment::new(Implementation::Md);
    tiny.queue_words = [16, 16];

    let mut attempts = 0u32;
    let recorded = tiny.run_recorded_observed(&program, |_| attempts += 1);
    assert!(
        attempts > 1,
        "expected 16-word queues to overflow (got {attempts} attempt)"
    );
    assert!(recorded.run.queue_words[0] > 16 || recorded.run.queue_words[1] > 16);

    let mut bank = CacheBank::symmetric(geoms.iter().copied());
    let streamed = tiny.run_with_sink(&program, &mut bank);
    assert_eq!(recorded.run.instructions, streamed.instructions);
    assert_eq!(recorded.run.result, streamed.result);
    assert_eq!(recorded.run.queue_words, streamed.queue_words);
    // A clean recording: replay sees only the final run's events.
    let at_64 = recorded_sweep();
    assert_eq!(
        CacheBank::replay_parallel(&at_64, &recorded.log),
        at_64
            .iter()
            .map(|&g| (g, bank.summary_for(g).expect("a 64-byte geometry")))
            .collect::<Vec<_>>()
    );
    // The same through `run_with_sink`, over every geometry.
    let mut log = StrippedLog::for_sweep(&geoms);
    let stripped = tiny.run_with_sink(&program, &mut log);
    assert_eq!(stripped.queue_words, streamed.queue_words);
    assert_eq!(CacheBank::replay_parallel(&geoms, &log), bank.summaries());
}

/// A queue overflow restarts the run, and the log must hold only the
/// attempt that completed: one event per counted access, and the same
/// events as a recording started at the final queue sizes. (The test
/// above cannot see a partial attempt left in the log, because the
/// streamed bank it compares against shares the attempt loop.) Both the
/// raw events, recorded into a `TraceLog` through `run_with_sink`, and
/// `run_recorded`'s stripped recording must match.
#[test]
fn overflow_restart_keeps_only_the_final_attempt() {
    let program = tamsim_programs::fib(8);
    let mut tiny = Experiment::new(Implementation::Md);
    tiny.queue_words = [16, 16];
    let mut raw = TraceLog::new();
    let run = tiny.run_with_sink(&program, &mut raw);
    let recorded = tiny.run_recorded(&program);
    assert_ne!(
        run.queue_words, tiny.queue_words,
        "expected 16-word queues to overflow"
    );
    assert_eq!(recorded.run.queue_words, run.queue_words);
    assert_eq!(raw.len() as u64, run.counts.total());
    assert_eq!(recorded.log.len() as u64, recorded.run.counts.total());

    let mut sized = tiny;
    sized.queue_words = run.queue_words;
    let mut direct_raw = TraceLog::new();
    let direct_run = sized.run_with_sink(&program, &mut direct_raw);
    let direct = sized.run_recorded(&program);
    assert_eq!(direct_run.queue_words, run.queue_words);
    assert_eq!(direct.run.queue_words, run.queue_words);
    assert!(raw.iter().eq(direct_raw.iter()));
    assert!(recorded.log == direct.log, "stripped recordings differ");
}

/// The legacy streaming path stays a supported API for live-sink
/// consumers.
#[test]
fn legacy_run_with_sink_still_works() {
    let geom = table2_geometry();
    let mut bank = CacheBank::symmetric([geom]);
    let run =
        Experiment::new(Implementation::Am).run_with_sink(&tamsim_programs::fib(8), &mut bank);
    assert!(run.instructions > 0);
    let summary = bank.summary_for(geom).expect("geometry present");
    assert!(summary.i.reads > 0, "fetches reached the sink");
    assert!(summary.d.accesses() > 0, "data accesses reached the sink");
}

/// Counts the shapes in which instructions reach a live sink.
#[derive(Clone, Default)]
struct FetchShapes {
    fetches: u64,
    ticks: u64,
    batches: u64,
    batched: u64,
}

impl Hooks for FetchShapes {
    fn access(&mut self, access: Access) {
        self.fetches += u64::from(access.kind == AccessKind::Fetch);
    }

    fn instruction(&mut self, _pri: Priority, _pc: u32) {
        self.ticks += 1;
    }

    fn fetch_run(&mut self, _pri: Priority, _start_pc: u32, n: u32) {
        self.batches += 1;
        self.batched += u64::from(n);
    }
}

/// The driver hands the executor's straight-line batches to a live sink
/// whole, one call per batch, so the sink's own bulk path runs; single
/// instructions arrive as a fetch and a tick. Together they account for
/// every fetch and every instruction of the run.
#[test]
fn live_sinks_receive_batches_whole() {
    for impl_ in [Implementation::Am, Implementation::Md] {
        let mut shapes = FetchShapes::default();
        let run = Experiment::new(impl_).run_with_sink(&tamsim_programs::fib(8), &mut shapes);
        assert!(shapes.batches > 0, "{impl_:?}: no batch reached the sink");
        assert_eq!(shapes.fetches, shapes.ticks, "{impl_:?}");
        assert_eq!(
            shapes.fetches + shapes.batched,
            run.counts.fetches(),
            "{impl_:?}"
        );
        assert_eq!(shapes.ticks + shapes.batched, run.instructions, "{impl_:?}");
    }
}
