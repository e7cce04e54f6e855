//! The serve-mode gate: open-loop request serving must produce
//! byte-identical completion records across lockstep and fast-forward,
//! for every back-end and placement policy — plus conservation under
//! saturation (every injected
//! request completes before the run quiesces) and end-to-end result
//! correctness (each request's reply carries exactly the batch answer).

use tamsim_core::Implementation;
use tamsim_net::{
    ArrivalKind, MeshExperiment, NetConfig, PlacementPolicy, ServeConfig, ServeRunResult,
};
use tamsim_programs as programs;
use tamsim_tam::Program;

const IMPLS: [Implementation; 3] = [
    Implementation::Am,
    Implementation::AmEnabled,
    Implementation::Md,
];

const POLICIES: [PlacementPolicy; 3] = PlacementPolicy::ALL;

/// Every request-visible and mesh-visible observable except `net_trace`
/// (serve runs are untraced).
fn assert_serve_identical(a: &ServeRunResult, b: &ServeRunResult, ctx: &str) {
    assert_eq!(a.records, b.records, "completion records differ: {ctx}");
    assert_eq!(a.cfg, b.cfg, "scenario differs: {ctx}");
    assert_eq!(a.mesh.cycles, b.mesh.cycles, "cycle count differs: {ctx}");
    assert_eq!(a.mesh.halt, b.mesh.halt, "halt reason differs: {ctx}");
    assert_eq!(
        a.mesh.instructions, b.mesh.instructions,
        "instruction counts differ: {ctx}"
    );
    assert_eq!(a.mesh.stats, b.mesh.stats, "machine counters differ: {ctx}");
    assert_eq!(a.mesh.counts, b.mesh.counts, "access counts differ: {ctx}");
    assert_eq!(
        a.mesh.stall_cycles, b.mesh.stall_cycles,
        "NI stall cycles differ: {ctx}"
    );
    assert_eq!(a.mesh.net, b.mesh.net, "fabric statistics differ: {ctx}");
    assert_eq!(
        a.mesh.link_stats, b.mesh.link_stats,
        "per-link telemetry differs: {ctx}"
    );
    assert_eq!(
        a.mesh.queue_words, b.mesh.queue_words,
        "queue auto-sizing diverged: {ctx}"
    );
    assert_eq!(
        a.mesh.live_frames, b.mesh.live_frames,
        "live-frame census differs: {ctx}"
    );
    assert_eq!(a.mesh.steals, b.mesh.steals, "steal counts differ: {ctx}");
    assert_eq!(
        a.mesh.watchdog_trips, b.mesh.watchdog_trips,
        "watchdog trips differ: {ctx}"
    );
    for (n, (p, q)) in a.mesh.activity.iter().zip(&b.mesh.activity).enumerate() {
        assert_eq!(
            p.spans, q.spans,
            "activity timeline differs on node {n}: {ctx}"
        );
    }
}

/// Per-request lifecycle invariants plus end-to-end answer correctness:
/// every reply must carry exactly the words the batch run returns.
fn assert_serve_sane(r: &ServeRunResult, program: &Program, ctx: &str) {
    assert_eq!(
        r.records.len(),
        r.cfg.requests as usize,
        "conservation: every request must complete: {ctx}"
    );
    let batch = MeshExperiment::new(r.mesh.implementation, 1).run(program);
    let expect: Vec<i64> = batch.result.iter().map(|w| w.as_i64()).collect();
    assert!(!expect.is_empty(), "batch run must return words: {ctx}");
    for rec in &r.records {
        assert!(rec.node < r.mesh.nodes, "origin outside the mesh: {ctx}");
        assert!(
            rec.injected >= rec.arrival,
            "request {} injected before it arrived: {ctx}",
            rec.id
        );
        assert!(
            rec.completed > rec.injected,
            "request {} completed before it ran: {ctx}",
            rec.id
        );
        assert_eq!(
            rec.result, expect,
            "request {} returned the wrong answer: {ctx}",
            rec.id
        );
    }
    assert!(r.achieved_ppm() > 0, "zero throughput: {ctx}");
}

/// The tentpole wall: seed × driver modes × policies × back-ends —
/// byte-identical completion records everywhere, correct answers
/// everywhere.
#[test]
fn serve_wall_is_bit_identical_across_drivers_and_policies() {
    let program = programs::fib(8);
    let cfg = ServeConfig::new(20_000, 24, 0xA11CE);
    for impl_ in IMPLS {
        for policy in POLICIES {
            let exp = MeshExperiment::new(impl_, 4).with_placement(policy);
            let lock = exp.lockstep().serve(&program, &cfg);
            let fast = exp.serve(&program, &cfg);
            let ctx = format!("fib(8) under {impl_:?} ({policy:?})");
            assert_serve_identical(&lock, &fast, &format!("{ctx}, fast-forward vs lockstep"));
            assert_serve_sane(&lock, &program, &ctx);
        }
    }
}

/// Different seeds must produce different schedules and different
/// completion records; the same seed must reproduce them exactly.
#[test]
fn serve_records_are_seed_deterministic() {
    let program = programs::fib(8);
    let exp = MeshExperiment::new(Implementation::Md, 4);
    let a = exp.serve(&program, &ServeConfig::new(30_000, 16, 1));
    let b = exp.serve(&program, &ServeConfig::new(30_000, 16, 1));
    let c = exp.serve(&program, &ServeConfig::new(30_000, 16, 2));
    assert_eq!(a.records, b.records, "same seed must reproduce exactly");
    assert_ne!(a.records, c.records, "different seeds must differ");
}

/// Fixed-rate arrivals ride the same machinery: the wall holds for
/// [`ArrivalKind::Fixed`] too, and the spacing shows up in the records.
#[test]
fn fixed_rate_serving_is_bit_identical_and_evenly_spaced() {
    let program = programs::fib(8);
    let cfg = ServeConfig {
        kind: ArrivalKind::Fixed,
        ..ServeConfig::new(5_000, 12, 9)
    };
    let exp = MeshExperiment::new(Implementation::Am, 4);
    let lock = exp.lockstep().serve(&program, &cfg);
    let fast = exp.serve(&program, &cfg);
    assert_serve_identical(&lock, &fast, "fixed-rate, fast-forward vs lockstep");
    for rec in &lock.records {
        assert_eq!(rec.arrival, rec.id as u64 * 200, "5000 ppm = every 200");
    }
    assert_serve_sane(&lock, &program, "fixed-rate");
}

/// A single-node mesh serves too (every request originates and completes
/// on node 0; the reply is still ejected off-mesh, never dispatched).
#[test]
fn single_node_mesh_serves_requests() {
    let program = programs::fib(8);
    let cfg = ServeConfig::new(10_000, 8, 3);
    for impl_ in IMPLS {
        let exp = MeshExperiment::new(impl_, 1);
        let lock = exp.lockstep().serve(&program, &cfg);
        let fast = exp.serve(&program, &cfg);
        let ctx = format!("1x1 mesh under {impl_:?}");
        assert_serve_identical(&lock, &fast, &ctx);
        assert_serve_sane(&lock, &program, &ctx);
        assert!(lock.records.iter().all(|r| r.node == 0));
    }
}

/// Saturation regression: offered load far beyond service capacity on
/// a congested fabric with small entry queues. Open-loop back-pressure
/// holds arrivals (nothing dropped), conservation still holds at halt,
/// and the tail visibly stretches beyond the best case.
#[test]
fn saturation_holds_arrivals_and_conserves_requests() {
    let program = programs::fib(8);
    // One request per 2 cycles against a service time of hundreds of
    // cycles per request: a deep backlog on every node.
    let cfg = ServeConfig::new(500_000, 48, 7);
    let net = NetConfig {
        link_capacity: 8,
        inject_capacity: 8,
        recv_capacity: 8,
        ..NetConfig::default()
    };
    let mut exp = MeshExperiment::new(Implementation::Md, 4).with_net(net);
    exp.queue_words = [256, 256];
    let lock = exp.lockstep().serve(&program, &cfg);
    let fast = exp.serve(&program, &cfg);
    assert_serve_identical(&lock, &fast, "saturated, fast-forward vs lockstep");
    assert_serve_sane(&lock, &program, "saturated");
    // A lone request on the same mesh measures the unloaded service
    // time; under saturation every request's latency must sit far above
    // it (the machine interleaves all outstanding call DAGs, so even the
    // "first" request finishes late).
    let lone = exp.serve(&program, &ServeConfig::new(500_000, 1, 7));
    let unloaded = lone.records[0].latency();
    let min = lock.records.iter().map(|r| r.latency()).min().unwrap();
    assert!(
        min > 4 * unloaded,
        "saturation must stretch latencies well past the unloaded \
         service time (unloaded {unloaded}, saturated min {min})"
    );
    // The backlog came from genuine queueing, visible per link.
    assert!(!lock.mesh.link_stats.is_empty());
}

/// Queue auto-sizing still guards serve mode: entry queues too small for
/// the offered concurrency overflow, the attempt restarts with doubled
/// queues — replaying the same arrival schedule from a fresh link — and
/// every request still completes, identically on every driver.
#[test]
fn undersized_serve_runs_recover_by_queue_doubling() {
    let program = programs::fib(10);
    let cfg = ServeConfig::new(100_000, 12, 5);
    let mut exp = MeshExperiment::new(Implementation::Md, 4);
    exp.queue_words = [48, 48];
    let lock = exp.lockstep().serve(&program, &cfg);
    let fast = exp.serve(&program, &cfg);
    assert_serve_identical(&lock, &fast, "queue-recovery, fast-forward vs lockstep");
    assert_serve_sane(&lock, &program, "queue-recovery");
    assert!(
        lock.mesh.queue_words.iter().any(|&w| w > 48),
        "12 concurrent call DAGs must not fit 48-word queues (got {:?})",
        lock.mesh.queue_words
    );
}

/// An arrival gap longer than the watchdog window must not be mistaken
/// for gridlock: a glacial offered load (one request per 50k cycles with
/// a 10k-cycle watchdog) completes without a single trip, identically in
/// both serial drivers.
#[test]
fn arrival_gaps_longer_than_the_watchdog_window_do_not_trip_it() {
    let program = programs::fib(8);
    let cfg = ServeConfig {
        kind: ArrivalKind::Fixed,
        ..ServeConfig::new(20, 4, 13)
    };
    let mut exp = MeshExperiment::new(Implementation::Am, 4);
    exp.watchdog_cycles = 10_000;
    let lock = exp.lockstep().serve(&program, &cfg);
    let fast = exp.serve(&program, &cfg);
    assert_serve_identical(&lock, &fast, "glacial load, fast-forward vs lockstep");
    assert_eq!(
        lock.mesh.watchdog_trips, 0,
        "an arrival gap is not gridlock"
    );
    assert_serve_sane(&lock, &program, "glacial load");
    // The run really did span the whole schedule.
    assert!(lock.mesh.cycles >= 150_000, "three 50k-cycle gaps");
}
