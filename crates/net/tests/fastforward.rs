//! The fast-forward gate: the event-horizon driver must be bit-identical
//! to the lockstep driver in every observable — cycle counts, results,
//! heap arrays, per-node machine counters and access counts, NI stall
//! cycles, run-length activity timelines, fabric statistics, queue
//! auto-sizing, and recorded access traces. Any gap means the
//! fast-forward skipped a cycle that was not actually a no-op.

use tamsim_core::Implementation;
use tamsim_net::{
    MeshExperiment, MeshRunResult, NetConfig, NetTraceMode, NodeState, PlacementPolicy,
};
use tamsim_programs as programs;
use tamsim_tam::Program;

const IMPLS: [Implementation; 3] = [
    Implementation::Am,
    Implementation::AmEnabled,
    Implementation::Md,
];

fn assert_bit_identical(lock: &MeshRunResult, fast: &MeshRunResult, ctx: &str) {
    assert_eq!(fast.cycles, lock.cycles, "cycle count differs: {ctx}");
    assert_eq!(fast.halt, lock.halt, "halt reason differs: {ctx}");
    assert_eq!(fast.result, lock.result, "result words differ: {ctx}");
    assert_eq!(fast.arrays, lock.arrays, "heap arrays differ: {ctx}");
    assert_eq!(
        fast.instructions, lock.instructions,
        "instruction counts differ: {ctx}"
    );
    assert_eq!(fast.stats, lock.stats, "machine counters differ: {ctx}");
    assert_eq!(fast.counts, lock.counts, "access counts differ: {ctx}");
    assert_eq!(
        fast.stall_cycles, lock.stall_cycles,
        "NI stall cycles differ: {ctx}"
    );
    assert_eq!(fast.net, lock.net, "fabric statistics differ: {ctx}");
    assert_eq!(
        fast.deliver_stalls, lock.deliver_stalls,
        "per-node deliver stalls differ: {ctx}"
    );
    assert_eq!(
        fast.link_stats, lock.link_stats,
        "per-link telemetry differs: {ctx}"
    );
    assert_eq!(
        fast.queue_words, lock.queue_words,
        "queue auto-sizing diverged: {ctx}"
    );
    assert_eq!(
        fast.live_frames, lock.live_frames,
        "live-frame census differs: {ctx}"
    );
    assert_eq!(
        fast.watchdog_trips, lock.watchdog_trips,
        "watchdog trips differ: {ctx}"
    );
    assert_eq!(
        fast.backstop_rearms, lock.backstop_rearms,
        "backstop re-arms differ: {ctx}"
    );
    for (n, (f, l)) in fast.activity.iter().zip(&lock.activity).enumerate() {
        assert_eq!(
            f.spans, l.spans,
            "activity timeline differs on node {n}: {ctx}"
        );
    }
}

fn assert_differential(program: &Program, nodes: &[u32], net: NetConfig) {
    for impl_ in IMPLS {
        for &n in nodes {
            for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::LocalityAware] {
                let exp = MeshExperiment::new(impl_, n)
                    .with_placement(policy)
                    .with_net(net);
                let lock = exp.lockstep().run(program);
                let fast = exp.run(program);
                let ctx = format!(
                    "{} under {:?} on {} nodes ({:?}, {net:?})",
                    program.name, impl_, n, policy
                );
                assert_bit_identical(&lock, &fast, &ctx);
            }
        }
    }
}

#[test]
fn fib_fast_forward_is_bit_identical() {
    assert_differential(&programs::fib(12), &[1, 2, 4, 8], NetConfig::default());
}

/// The shapes the activity-proportional driver targets: wide meshes
/// where a handful of machines run and a few messages fly while most
/// nodes sit idle for long stretches, with awake and occupied sets that
/// span several 64-bit words of the node index. Lockstep steps every
/// machine and scans every buffer each cycle, so it is the oracle for
/// the lazily recorded idle spans as much as for the cycle counts.
#[test]
fn fib_fast_forward_is_bit_identical_on_wide_meshes() {
    let program = programs::fib(12);
    for impl_ in [Implementation::Md, Implementation::Am] {
        for nodes in [72, 256] {
            for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::LocalityAware] {
                let exp = MeshExperiment::new(impl_, nodes).with_placement(policy);
                let lock = exp.lockstep().run(&program);
                let fast = exp.run(&program);
                let ctx = format!("fib(12) under {impl_:?} on {nodes} nodes ({policy:?})");
                assert_bit_identical(&lock, &fast, &ctx);
                assert!(
                    lock.activity
                        .iter()
                        .filter(|a| a.cycles_in(NodeState::Run) > 0)
                        .count()
                        > 1,
                    "work never left one node: {ctx}"
                );
            }
        }
    }
}

/// Past 16 nodes the pre-widening node tag would have overflowed into the
/// sign bit; a 40-node run exercises `falloc`/`ffree` round-trips through
/// tags 17..39 under both static placement policies, and the live-frame
/// census must cover every node.
#[test]
fn forty_node_falloc_ffree_round_trip() {
    let program = programs::fib(13);
    for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::LocalityAware] {
        let exp = MeshExperiment::new(Implementation::Md, 40).with_placement(policy);
        let lock = exp.lockstep().run(&program);
        let fast = exp.run(&program);
        let ctx = format!("fib(13) on 40 nodes ({policy:?})");
        assert_bit_identical(&lock, &fast, &ctx);
        // Frames were genuinely spread past node 16 and freed again.
        assert!(fast.net.delivered_msgs > 0, "no cross-node traffic: {ctx}");
        assert!(
            fast.live_frames.len() == 40,
            "census must cover all 40 nodes: {ctx}"
        );
    }
}

#[test]
fn quicksort_fast_forward_is_bit_identical() {
    assert_differential(
        &programs::quicksort(24, 0xC0FFEE),
        &[2, 4],
        NetConfig::default(),
    );
}

#[test]
fn small_suite_fast_forward_is_bit_identical() {
    for bench in programs::small_suite() {
        assert_differential(&bench.program, &[4], NetConfig::default());
    }
}

/// Extreme fabric timings shift every event edge the fast-forward has to
/// honour: long hop latencies produce the deep pure-wait stretches the
/// horizon jumps over, and wide/narrow links move the serialization
/// release times.
#[test]
fn fast_forward_is_bit_identical_under_skewed_fabric_timing() {
    let fib = programs::fib(10);
    for net in [
        NetConfig {
            hop_latency: 17,
            ..NetConfig::default()
        },
        NetConfig {
            link_bandwidth: 4,
            ..NetConfig::default()
        },
        NetConfig {
            hop_latency: 1,
            link_bandwidth: 1,
            link_capacity: 16,
            inject_capacity: 16,
            recv_capacity: 16,
        },
    ] {
        assert_differential(&fib, &[2, 4], net);
    }
}

/// Tiny buffers force ready heads to sit stuck behind back-pressure — the
/// case where the horizon query must refuse to jump and the driver must
/// reproduce lockstep's stall accounting cycle by cycle.
#[test]
fn fast_forward_is_bit_identical_under_congestion() {
    let net = NetConfig {
        link_capacity: 8,
        inject_capacity: 8,
        recv_capacity: 8,
        ..NetConfig::default()
    };
    assert_differential(&programs::fib(11), &[4], net);
}

/// Network tracing must be invisible: a `--trace-net` run must be
/// bit-identical to an untraced one in every observable, on all six
/// small-suite programs, under all three implementations, and under both
/// drivers. The trace itself must be internally consistent — one record
/// per injected message, causally ordered lifecycle cycles, FIFO dispatch
/// matching that never underflows, and per-link words conservation.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    for bench in programs::small_suite() {
        for impl_ in IMPLS {
            let exp = MeshExperiment::new(impl_, 4);
            for (label, e) in [("fast-forward", exp), ("lockstep", exp.lockstep())] {
                let plain = e.run(&bench.program);
                let traced = e.traced(NetTraceMode::Full).run(&bench.program);
                let ctx = format!(
                    "{} under {impl_:?} on 4 nodes ({label} driver, traced)",
                    bench.program.name
                );
                assert_bit_identical(&plain, &traced, &ctx);

                let trace = traced.net_trace.as_ref().expect("traced run has a trace");
                assert_eq!(trace.dropped, 0, "full mode must retain everything: {ctx}");
                assert_eq!(
                    trace.records.len() as u64,
                    plain.net.injected_msgs,
                    "one record per injected message: {ctx}"
                );
                assert_eq!(
                    trace.unmatched_dispatches, 0,
                    "dispatch matcher underflowed: {ctx}"
                );
                assert_eq!(
                    trace
                        .records
                        .iter()
                        .filter(|r| r.deliver_cycle.is_some())
                        .count() as u64,
                    plain.net.delivered_msgs,
                    "delivered-record count differs from fabric stats: {ctx}"
                );
                for r in &trace.records {
                    let mut prev = r.inject_cycle;
                    for h in &r.hops {
                        assert!(h.cycle >= prev, "hop before inject on msg {}: {ctx}", r.id);
                        prev = h.cycle;
                    }
                    if let Some(eject) = r.eject_cycle {
                        assert!(eject >= prev, "eject precedes last hop: {ctx}");
                        prev = eject;
                    }
                    if let Some(deliver) = r.deliver_cycle {
                        assert!(deliver >= prev, "deliver precedes eject: {ctx}");
                        if let Some(dispatch) = r.dispatch_cycle {
                            assert!(dispatch >= deliver, "dispatch precedes deliver: {ctx}");
                        }
                    }
                }
                assert!(
                    trace.dispatched().next().is_some(),
                    "no message reached its handler: {ctx}"
                );
                // Quiescent fabric at the end of the run: every link row
                // conserves words with nothing left queued.
                for row in &traced.link_stats {
                    assert_eq!(
                        row.words_in_total(),
                        row.words_out + row.queued_words as u64,
                        "link words not conserved on node {} ({}): {ctx}",
                        row.node,
                        row.kind.label()
                    );
                    assert_eq!(row.queued_words, 0, "message stranded in a buffer: {ctx}");
                }
            }
        }
    }
}

/// Recording must not perturb the run, and the recorded per-node traces
/// must be identical under both drivers.
#[test]
fn recorded_traces_are_bit_identical() {
    let program = programs::fib(11);
    for impl_ in [Implementation::Am, Implementation::Md] {
        let exp = MeshExperiment::new(impl_, 4);
        let lock = exp.lockstep().run_recorded(&program);
        let fast = exp.run_recorded(&program);
        let ctx = format!("fib(11) under {impl_:?} on 4 nodes");
        assert_bit_identical(&lock.run, &fast.run, &ctx);
        assert_eq!(lock.logs.len(), fast.logs.len());
        for (n, (l, f)) in lock.logs.iter().zip(&fast.logs).enumerate() {
            assert_eq!(l.len(), f.len(), "node {n} trace length differs: {ctx}");
            assert!(l.iter().eq(f.iter()), "node {n} trace events differ: {ctx}");
        }
    }
}

/// Recording composes with causal net tracing: the traced serial loop
/// records the same per-node traces as the untraced one, and still hands
/// back its net trace.
#[test]
fn recording_under_net_tracing_matches_untraced_recording() {
    let program = programs::fib(11);
    let exp = MeshExperiment::new(Implementation::Am, 4);
    let plain = exp.run_recorded(&program);
    let traced = exp.traced(NetTraceMode::Ring(256)).run_recorded(&program);
    let ctx = "fib(11) under Am on 4 nodes, traced";
    assert!(traced.run.net_trace.is_some(), "net trace missing: {ctx}");
    assert_bit_identical(&plain.run, &traced.run, ctx);
    assert_eq!(plain.logs.len(), traced.logs.len());
    for (n, (p, t)) in plain.logs.iter().zip(&traced.logs).enumerate() {
        assert!(p.iter().eq(t.iter()), "node {n} trace events differ: {ctx}");
    }
}
