//! Work-stealing placement gate. The `steal` policy migrates enabled
//! frames at run time, so its determinism story is strictly harder than
//! the static policies': steal decisions, migration messages, forwarding
//! rewrites, and home-slot reclamation all happen in the driver's serial
//! window, and lockstep and fast-forward must agree bit-for-bit on every
//! observable — including the per-node steal counts themselves.
//!
//! In debug builds every `StealEngine::settle` also checks the engine's
//! pending-inbound counts (the scan's target filter) against a recount
//! over its forwarding entries, so each run below audits them after
//! every settle.

use tamsim_core::Implementation;
use tamsim_mdp::Word;
use tamsim_net::{
    MeshExperiment, MeshRunResult, NetConfig, OriginDist, PlacementPolicy, ServeConfig,
};
use tamsim_programs as programs;

fn assert_bit_identical(a: &MeshRunResult, b: &MeshRunResult, ctx: &str) {
    assert_eq!(b.cycles, a.cycles, "cycle count differs: {ctx}");
    assert_eq!(b.halt, a.halt, "halt reason differs: {ctx}");
    assert_eq!(b.result, a.result, "result words differ: {ctx}");
    assert_eq!(b.arrays, a.arrays, "heap arrays differ: {ctx}");
    assert_eq!(b.instructions, a.instructions, "instructions differ: {ctx}");
    assert_eq!(b.stats, a.stats, "machine counters differ: {ctx}");
    assert_eq!(b.counts, a.counts, "access counts differ: {ctx}");
    assert_eq!(b.stall_cycles, a.stall_cycles, "NI stalls differ: {ctx}");
    assert_eq!(b.net, a.net, "fabric statistics differ: {ctx}");
    assert_eq!(
        b.deliver_stalls, a.deliver_stalls,
        "deliver stalls differ: {ctx}"
    );
    assert_eq!(b.link_stats, a.link_stats, "link telemetry differs: {ctx}");
    assert_eq!(b.queue_words, a.queue_words, "queue sizing differs: {ctx}");
    assert_eq!(b.live_frames, a.live_frames, "frame census differs: {ctx}");
    assert_eq!(b.steals, a.steals, "steal counts differ: {ctx}");
    assert_eq!(
        b.watchdog_trips, a.watchdog_trips,
        "watchdog trips differ: {ctx}"
    );
    for (n, (x, y)) in b.activity.iter().zip(&a.activity).enumerate() {
        assert_eq!(x.spans, y.spans, "activity differs on node {n}: {ctx}");
    }
}

/// The heart of the gate: lockstep and fast-forward must produce
/// identical runs under `--policy steal`, and the run must contain
/// actual migrations (a vacuous pass — zero steals — would gate
/// nothing).
#[test]
fn steal_is_bit_identical_across_drivers() {
    let program = programs::fib(12);
    for impl_ in [Implementation::Am, Implementation::AmEnabled] {
        for nodes in [4, 8] {
            let exp =
                MeshExperiment::new(impl_, nodes).with_placement(PlacementPolicy::WorkStealing);
            let lock = exp.lockstep().run(&program);
            let fast = exp.run(&program);
            let ctx = format!("fib(12) under {impl_:?} on {nodes} nodes");
            assert_bit_identical(&lock, &fast, &format!("{ctx}, fast-forward"));
            assert!(
                lock.steals.iter().sum::<u64>() > 0,
                "no frames were migrated: {ctx}"
            );
        }
    }
}

/// The serve shape the ledger measures: open-loop Poisson requests into
/// one corner of a 4x4 mesh under `steal`, below the knee (1000 ppm:
/// long idle gaps between requests) and in overload (20000 ppm: a deep
/// corner backlog and a forwarding directory that grows all run). The
/// fast-forward driver's awake set, lazy idle spans and pending-inbound
/// counts must reproduce lockstep exactly, request by request.
#[test]
fn corner_serve_steal_fast_forward_matches_lockstep() {
    let program = programs::fib(8);
    for impl_ in [Implementation::Am, Implementation::AmEnabled] {
        for rate_ppm in [1_000, 20_000] {
            let cfg = ServeConfig {
                origins: OriginDist::Corner,
                ..ServeConfig::new(rate_ppm, 96, 7)
            };
            let exp = MeshExperiment::new(impl_, 16).with_placement(PlacementPolicy::WorkStealing);
            let lock = exp.lockstep().serve(&program, &cfg);
            let fast = exp.serve(&program, &cfg);
            let ctx = format!("fib(8) corner serve under {impl_:?} at {rate_ppm} ppm");
            assert_eq!(lock.records, fast.records, "request records differ: {ctx}");
            assert_bit_identical(&lock.mesh, &fast.mesh, &ctx);
            assert_eq!(
                lock.mesh.backstop_rearms, fast.mesh.backstop_rearms,
                "backstop re-arms differ: {ctx}"
            );
            assert!(
                lock.mesh.steals.iter().sum::<u64>() > 0,
                "no frames were migrated: {ctx}"
            );
        }
    }
}

/// Migration must be invisible to the program: the steal run computes
/// the same answer (result words and heap arrays) as both static
/// policies, on every program in the small suite.
#[test]
fn steal_preserves_program_semantics() {
    for bench in programs::small_suite() {
        let steal = MeshExperiment::new(Implementation::Am, 4)
            .with_placement(PlacementPolicy::WorkStealing)
            .run(&bench.program);
        for fixed in [PlacementPolicy::RoundRobin, PlacementPolicy::LocalityAware] {
            let base = MeshExperiment::new(Implementation::Am, 4)
                .with_placement(fixed)
                .run(&bench.program);
            let ctx = format!("{} (steal vs {fixed:?})", bench.program.name);
            assert_eq!(steal.result, base.result, "result differs: {ctx}");
            assert_eq!(steal.arrays, base.arrays, "arrays differ: {ctx}");
            assert_eq!(steal.halt, base.halt, "halt reason differs: {ctx}");
        }
    }
}

/// Congestion narrows the inject window: migrations are refused and
/// retried, forwarded messages stall, and lockstep and fast-forward
/// must still agree. This is the adversarial path for the Busy-retry discipline
/// (a steal aborted by a full buffer must leave no side effects).
#[test]
fn steal_is_bit_identical_under_congestion() {
    let net = NetConfig {
        link_capacity: 8,
        inject_capacity: 8,
        recv_capacity: 8,
        ..NetConfig::default()
    };
    let program = programs::fib(11);
    let exp = MeshExperiment::new(Implementation::Am, 4)
        .with_placement(PlacementPolicy::WorkStealing)
        .with_net(net);
    let lock = exp.lockstep().run(&program);
    let fast = exp.run(&program);
    assert_bit_identical(&lock, &fast, "congested fib(11), fast-forward");
}

/// Every frame a steal moves must eventually be freed on its *new* home
/// and its orphaned home slot reclaimed: after a run to completion the
/// live-frame census is zero everywhere, exactly as under the static
/// policies. A census leak here means a double-counted or lost `ffree`
/// on the forwarding path. Corner-skewed serve load is the pressure
/// source — every request lands on node 0, so frames migrate off it
/// throughout the run.
#[test]
fn steal_census_drains_to_zero() {
    for nodes in [4, 9, 16] {
        let cfg = ServeConfig {
            origins: OriginDist::Corner,
            ..ServeConfig::new(20_000, 24, 5)
        };
        let r = MeshExperiment::new(Implementation::Am, nodes)
            .with_placement(PlacementPolicy::WorkStealing)
            .serve(&programs::fib(9), &cfg);
        assert!(
            r.mesh.steals.iter().sum::<u64>() > 0,
            "no migrations on {nodes} nodes"
        );
        for (n, &live) in r.mesh.live_frames.iter().enumerate() {
            assert_eq!(live, 0, "node {n} leaked frames on {nodes} nodes");
        }
    }
}

/// The static policies must be bit-for-bit unaffected by the steal
/// machinery existing: their `steals` vector is all zero and their runs
/// byte-match the pre-steal goldens (covered by the golden gate); here
/// we pin the zero vector.
#[test]
fn static_policies_report_zero_steals() {
    for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::LocalityAware] {
        let run = MeshExperiment::new(Implementation::Am, 4)
            .with_placement(policy)
            .run(&programs::fib(10));
        assert_eq!(run.steals, vec![0; 4], "{policy:?} must never steal");
    }
}

/// MD has no frame queue for the engine to scan — under `--policy
/// steal` the migration half never fires (zero steals) and the policy
/// degenerates to its birth half, which is exactly the
/// `LocalityAware` census shed. The whole run must therefore be
/// cycle-identical to `--policy local`.
#[test]
fn md_under_steal_degenerates_to_locality_placement() {
    let steal = MeshExperiment::new(Implementation::Md, 4)
        .with_placement(PlacementPolicy::WorkStealing)
        .run(&programs::fib(11));
    assert_eq!(steal.steals, vec![0; 4], "MD must never migrate");
    let local = MeshExperiment::new(Implementation::Md, 4)
        .with_placement(PlacementPolicy::LocalityAware)
        .run(&programs::fib(11));
    assert_eq!(steal.result, local.result, "MD steal computes fib(11)");
    assert_eq!(steal.halt, local.halt);
    assert_eq!(steal.cycles, local.cycles, "identical birth placement");
    assert_eq!(steal.instructions, local.instructions);
    assert_eq!(steal.live_frames, vec![0; 4], "census must drain");
}

/// One node has nothing to steal from and nobody to give work to: the
/// policy must be a no-op and the run must match the single-node anchor
/// exactly (same invariant the static policies obey).
#[test]
fn single_node_steal_matches_rr() {
    let program = programs::fib(10);
    let steal = MeshExperiment::new(Implementation::Am, 1)
        .with_placement(PlacementPolicy::WorkStealing)
        .run(&program);
    let rr = MeshExperiment::new(Implementation::Am, 1)
        .with_placement(PlacementPolicy::RoundRobin)
        .run(&program);
    assert_eq!(steal.result, rr.result);
    assert_eq!(steal.cycles, rr.cycles);
    assert_eq!(steal.instructions, rr.instructions);
    assert_eq!(steal.steals, vec![0]);
}

/// The forwarding round-trip under fire: every request of a corner-
/// skewed serve run arrives at node 0, so frames migrate off it
/// constantly while parents keep sending to the old addresses — sends
/// race migrations, land via the forwarding path, and every request
/// must still complete **exactly once** with the right answer, with
/// identical completion records in lockstep and fast-forward.
#[test]
fn corner_skew_forwarding_round_trip_is_exactly_once() {
    let program = programs::fib(9);
    let cfg = ServeConfig {
        origins: OriginDist::Corner,
        ..ServeConfig::new(30_000, 24, 0xA11CE)
    };
    let exp =
        MeshExperiment::new(Implementation::Am, 4).with_placement(PlacementPolicy::WorkStealing);
    let lock = exp.lockstep().serve(&program, &cfg);
    let fast = exp.serve(&program, &cfg);
    assert_eq!(lock.records, fast.records, "fast-forward records differ");
    assert_eq!(lock.mesh.cycles, fast.mesh.cycles);
    assert_eq!(lock.mesh.steals, fast.mesh.steals);
    // Exactly once: 24 in, 24 out, each id once, each the right answer.
    assert_eq!(lock.records.len(), 24, "conservation under skew");
    let batch = MeshExperiment::new(Implementation::Am, 1).run(&program);
    let expect: Vec<i64> = batch.result.iter().map(|w| w.as_i64()).collect();
    for (i, rec) in lock.records.iter().enumerate() {
        assert_eq!(rec.id as usize, i, "duplicate or lost completion");
        assert_eq!(rec.node, 0, "corner arrivals originate at node 0");
        assert_eq!(rec.result, expect, "request {i} answered wrongly");
    }
    assert!(
        lock.mesh.steals.iter().sum::<u64>() > 0,
        "skewed load must actually migrate frames"
    );
    // And the migrations must genuinely drain the corner: stolen frames
    // ran elsewhere, so other nodes executed real work.
    let busy: Vec<u64> = lock.mesh.stats.iter().map(|s| s.instructions).collect();
    assert!(
        busy[1..].iter().any(|&i| i > 0),
        "no work ever left the corner: {busy:?}"
    );
}

/// Steal counts are conserved: `fib(12)` allocates a known number of
/// frames, and every migration is of a frame that was later freed —
/// so total steals can never exceed total frames allocated (census
/// commits) on the victim nodes.
#[test]
fn steal_counts_are_sane() {
    let run = MeshExperiment::new(Implementation::Am, 4)
        .with_placement(PlacementPolicy::WorkStealing)
        .run(&programs::fib(12));
    let total: u64 = run.steals.iter().sum();
    assert!(total > 0, "expected migrations");
    // fib(12) spawns ~465 activations; each can migrate at most once
    // per enabling, bounded far below the message total.
    assert!(
        total <= run.net.delivered_msgs,
        "more steals ({total}) than delivered messages ({})",
        run.net.delivered_msgs
    );
    let _ = Word::from_i64(0); // keep the mdp dev-dependency honest
}
