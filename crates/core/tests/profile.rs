//! Profiler integration tests: the differential guarantee (profiling does
//! not perturb the run) and the validity of emitted artifacts.

use tamsim_core::{Experiment, Implementation};
use tamsim_obs::{json, Priority, Span};
use tamsim_programs::{fib, quicksort};
use tamsim_tam::Program;

fn programs() -> Vec<Program> {
    vec![fib(10), quicksort(24, 0xC0FFEE)]
}

/// `run_profiled` must be an ordinary run with an observer attached:
/// identical stats, counts, results, and granularity.
#[test]
fn profiled_runs_are_bit_identical_to_plain_runs() {
    for program in programs() {
        for impl_ in [Implementation::Am, Implementation::Md] {
            let exp = Experiment::new(impl_);
            let plain = exp.run(&program);
            let profiled = exp.run_profiled(&program);
            let p = &profiled.run;
            assert_eq!(plain.instructions, p.instructions, "{}", program.name);
            assert_eq!(plain.stats, p.stats, "{}", program.name);
            assert_eq!(plain.result, p.result, "{}", program.name);
            assert_eq!(plain.counts, p.counts, "{}", program.name);
            assert_eq!(plain.queue_words, p.queue_words, "{}", program.name);
            assert_eq!(
                plain.granularity.quanta, p.granularity.quanta,
                "{}",
                program.name
            );
            assert_eq!(
                plain.granularity.threads, p.granularity.threads,
                "{}",
                program.name
            );
        }
    }
}

/// The profile's own quantum detection must agree with the granularity
/// statistics computed live during the run, and the capture's cycle
/// counters must match the machine's instruction count.
#[test]
fn profile_statistics_agree_with_live_granularity() {
    for program in programs() {
        for impl_ in [Implementation::Am, Implementation::Md] {
            let profiled = Experiment::new(impl_).run_profiled(&program);
            assert_eq!(profiled.raw.total_cycles(), profiled.run.instructions);
            let profile = profiled.profile().expect("profile analysis failed");
            let q = &profile.timeline.quanta;
            let g = &profiled.run.granularity;
            assert_eq!(q.count() as u64, g.quanta, "{}", program.name);
            assert_eq!(q.threads, g.threads, "{}", program.name);
            assert_eq!(q.inlets, g.inlets, "{}", program.name);
            assert_eq!(q.thread_cycles, g.thread_instructions, "{}", program.name);
        }
    }
}

/// The emitted artifacts must parse as JSON, and spans that share a track
/// must never overlap (Perfetto renders overlapping slices wrongly).
#[test]
fn emitted_trace_parses_and_spans_never_overlap_per_track() {
    let profiled = Experiment::new(Implementation::Am).run_profiled(&fib(10));
    let profile = profiled.profile().expect("profile analysis failed");
    json::validate(&profile.trace_json()).expect("trace.json must be valid JSON");
    json::validate(&profile.profile_json()).expect("profile.json must be valid JSON");

    for track in 0..profile.timeline.tracks.len() {
        let mut spans: Vec<&Span> = profile
            .timeline
            .spans
            .iter()
            .filter(|s| s.track == track)
            .collect();
        spans.sort_by_key(|s| (s.start, s.end));
        for pair in spans.windows(2) {
            assert!(
                pair[1].start >= pair[0].end,
                "overlapping spans on track {track} ({}): {:?} / {:?}",
                profile.timeline.tracks[track].name,
                pair[0],
                pair[1]
            );
        }
    }
    // Every instruction is attributed to exactly one span of its priority.
    for pri in Priority::ALL {
        let attributed: u64 = profile
            .timeline
            .spans
            .iter()
            .filter(|s| s.pri == pri)
            .map(|s| s.instructions)
            .sum();
        assert_eq!(attributed, profile.timeline.cycles[pri.index()]);
    }
}

/// The paper's locality contrast must be visible in the profile: the AM
/// scheduler batches multiple threads per activation (it drains a frame's
/// whole RCV) where MD runs only one message's threads per dispatch. The
/// frame-run quantum metric (the paper's Table 2 definition) must agree
/// with the weaker published inequality AM >= MD.
#[test]
fn am_activations_batch_more_threads_than_md_dispatches() {
    let program = fib(10);
    let am = Experiment::new(Implementation::Am)
        .run_profiled(&program)
        .profile()
        .unwrap();
    let md = Experiment::new(Implementation::Md)
        .run_profiled(&program)
        .profile()
        .unwrap();
    let am_tpa = am.timeline.quanta.threads_per_activation();
    let md_tpa = md.timeline.quanta.threads_per_activation();
    assert!(
        am_tpa > md_tpa,
        "expected AM threads/activation ({am_tpa:.2}) > MD ({md_tpa:.2})"
    );
    let am_tpq = am.timeline.quanta.threads_per_quantum();
    let md_tpq = md.timeline.quanta.threads_per_quantum();
    assert!(
        am_tpq >= md_tpq * 0.99,
        "expected AM tpq ({am_tpq:.2}) >= MD tpq ({md_tpq:.2})"
    );
}

/// Hotspot attribution covers every fetch and resolves real symbols.
#[test]
fn hotspots_cover_all_fetches_with_named_symbols() {
    let profiled = Experiment::new(Implementation::Am).run_profiled(&fib(10));
    let profile = profiled.profile().unwrap();
    let h = &profile.hotspots;
    assert_eq!(h.total_fetches, profiled.run.stats.instructions);
    let region_sum: u64 = h.regions.iter().map(|r| r.fetches).sum();
    assert_eq!(region_sum, h.total_fetches);
    let names: Vec<&str> = h
        .regions
        .iter()
        .flat_map(|r| r.rows.iter().map(|row| row.name.as_str()))
        .collect();
    assert!(names.iter().any(|n| n.starts_with("sys:")), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("fib.")), "{names:?}");
    assert!(!names.contains(&"(unmapped)"), "{names:?}");
}

/// A queue overflow restarts the run, and the profiler must describe only
/// the attempt that completed: its capture equals that of a run started
/// at the final queue sizes, and its cycle counters equal the machine's
/// instruction count.
#[test]
fn overflow_restart_profiles_only_the_final_attempt() {
    let program = fib(8);
    let mut tiny = Experiment::new(Implementation::Md);
    tiny.queue_words = [16, 16];
    let profiled = tiny.run_profiled(&program);
    assert_ne!(
        profiled.run.queue_words, tiny.queue_words,
        "expected 16-word queues to overflow"
    );
    assert_eq!(profiled.raw.total_cycles(), profiled.run.instructions);

    let mut sized = tiny;
    sized.queue_words = profiled.run.queue_words;
    let direct = sized.run_profiled(&program);
    assert_eq!(direct.run.queue_words, profiled.run.queue_words);
    assert_eq!(profiled.raw.records, direct.raw.records);
    assert_eq!(profiled.raw.cycles, direct.raw.cycles);
}
