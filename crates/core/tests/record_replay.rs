//! The record-once/replay-parallel engine must be invisible: identical
//! measurements to streaming the same run into a live sink, in one
//! machine run when the queues fit.

use tamsim_cache::{table2_geometry, CacheBank, CacheGeometry};
use tamsim_core::{Experiment, Implementation};
use tamsim_tam::Program;
use tamsim_trace::{Access, AccessKind, Hooks, Priority};

fn sweep() -> Vec<CacheGeometry> {
    vec![
        table2_geometry(),
        CacheGeometry::new(1024, 1, 64),
        CacheGeometry::new(4096, 2, 16),
    ]
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
    for (name, program) in programs() {
        for impl_ in [Implementation::Am, Implementation::Md] {
            let exp = Experiment::new(impl_);

            let mut bank = CacheBank::symmetric(geoms.iter().copied());
            let streamed = exp.run_with_sink(&program, &mut bank);

            let recorded = exp.run_recorded(&program);
            let replayed = CacheBank::replay_parallel(&geoms, &recorded.log);

            let ctx = format!("{name} under {impl_:?}");
            assert_eq!(recorded.run.instructions, streamed.instructions, "{ctx}");
            assert_eq!(recorded.run.result, streamed.result, "{ctx}");
            assert_eq!(recorded.run.queue_words, streamed.queue_words, "{ctx}");
            assert_eq!(
                format!("{:?}", recorded.run.counts),
                format!("{:?}", streamed.counts),
                "{ctx}"
            );
            assert_eq!(replayed, bank.summaries(), "{ctx}");
            assert_eq!(
                recorded.log.len() as u64,
                recorded.run.counts.total(),
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
    assert_eq!(
        CacheBank::replay_parallel(&geoms, &recorded.log),
        bank.summaries()
    );
}

/// A queue overflow restarts the run, and the log must hold only the
/// attempt that completed: one event per counted access, and the same
/// events as a recording started at the final queue sizes. (The test
/// above cannot see a partial attempt left in the log, because the
/// streamed bank it compares against shares the attempt loop.)
#[test]
fn overflow_restart_keeps_only_the_final_attempt() {
    let program = tamsim_programs::fib(8);
    let mut tiny = Experiment::new(Implementation::Md);
    tiny.queue_words = [16, 16];
    let recorded = tiny.run_recorded(&program);
    assert_ne!(
        recorded.run.queue_words, tiny.queue_words,
        "expected 16-word queues to overflow"
    );
    assert_eq!(recorded.log.len() as u64, recorded.run.counts.total());

    let mut sized = tiny;
    sized.queue_words = recorded.run.queue_words;
    let direct = sized.run_recorded(&program);
    assert_eq!(direct.run.queue_words, recorded.run.queue_words);
    assert!(recorded.log.iter().eq(direct.log.iter()));
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
