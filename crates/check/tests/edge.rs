//! Driver edge paths the mesh differentials rarely reach: the
//! gridlock-watchdog trip and the quiescence-backstop re-arm race.
//!
//! Both fixtures are pinned — generator seeds, network configurations,
//! and the exact cycle counts they produce — so any change to the
//! watchdog or backstop logic shows up as a concrete number, not a flaky
//! threshold. Each scenario is run under the lockstep driver and the
//! event-horizon fast-forward driver; the two must agree bit-for-bit on
//! every observable, including the edge-path counters themselves.

use tamsim_check::{generate, GenConfig};
use tamsim_core::Implementation;
use tamsim_net::{MeshExperiment, MeshRunResult, NetConfig, PlacementPolicy};

/// A saturating 2×2 fabric: one-message links and one-slot interface
/// queues, so a modest burst of remote traffic back-pressures all the
/// way into the senders.
fn tiny_fabric() -> NetConfig {
    NetConfig {
        link_capacity: 1,
        inject_capacity: 1,
        recv_capacity: 1,
        ..NetConfig::default()
    }
}

/// Run under both drivers and panic-capture each; the two outcomes must
/// match (both complete with identical results, or both abort).
fn both_drivers(
    exp: MeshExperiment,
    program: &tamsim_tam::Program,
) -> [Result<MeshRunResult, String>; 2] {
    [exp.lockstep(), exp].map(|e| {
        let p = program.clone();
        std::panic::catch_unwind(move || e.run(&p)).map_err(|e| {
            e.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into())
        })
    })
}

/// Gridlock on a saturated 2×2 mesh: seed 0's call fan-out wedges every
/// node behind the one-slot queues, nothing moves for a full watchdog
/// interval, and no amount of machine-queue doubling can cure a fabric
/// that small — the watchdog must abort with its gridlock diagnosis (not
/// hang, and not die on the machine's layout assert).
#[test]
fn watchdog_aborts_a_gridlocked_mesh_identically_under_both_drivers() {
    let program = generate(0, &GenConfig::default());
    let mut exp = MeshExperiment::new(Implementation::Am, 4)
        .with_placement(PlacementPolicy::RoundRobin)
        .with_net(tiny_fabric());
    exp.queue_words = [16, 16];
    exp.watchdog_cycles = 200;
    for outcome in both_drivers(exp, &program) {
        let msg = outcome.expect_err("a gridlocked mesh must abort, not complete");
        assert!(
            msg.contains("gridlocked program?"),
            "expected the watchdog diagnosis, got: {msg}"
        );
    }
}

/// The exact watchdog threshold. With 300-cycle hops the longest
/// no-progress stretch in this run is one message flight: 301 iterations
/// from the cycle after the last fabric move to the next one. A watchdog
/// set to that stretch never trips (`cycle - last_progress` must *exceed*
/// it); one cycle tighter trips on the first flight, and — since a
/// latency stall is not cured by queue growth — every retry trips again
/// until the queue-demand abort. The fast-forward driver never executes
/// the skipped iterations, so its jump-time check (`horizon >
/// last_progress + watchdog_cycles`) must reproduce this boundary to the
/// cycle.
#[test]
fn watchdog_boundary_is_exact_under_both_drivers() {
    let program = generate(0, &GenConfig::default());
    for (impl_, cycles_at_boundary) in [(Implementation::Am, 7455), (Implementation::Md, 7149)] {
        let mut exp = MeshExperiment::new(impl_, 4)
            .with_placement(PlacementPolicy::RoundRobin)
            .with_net(NetConfig {
                hop_latency: 300,
                ..NetConfig::default()
            });

        // Watchdog exactly at the longest quiet stretch: completes.
        exp.watchdog_cycles = 301;
        for outcome in both_drivers(exp, &program) {
            let run = outcome.expect("watchdog at the boundary must not trip");
            assert_eq!(run.watchdog_trips, 0, "{impl_:?}");
            assert_eq!(run.cycles, cycles_at_boundary, "{impl_:?}");
        }

        // One cycle tighter: trips on the first long flight and aborts.
        exp.watchdog_cycles = 300;
        for outcome in both_drivers(exp, &program) {
            let msg = outcome.expect_err("a too-tight watchdog must trip");
            assert!(msg.contains("gridlocked program?"), "{impl_:?}: {msg}");
        }
    }
}

/// The arrival/suspend race behind the quiescence backstop: a message
/// lands between an AM scheduler's final frame-queue check and its
/// suspend, so the whole mesh looks idle with posted frames still
/// queued. The backstop re-arms the node instead of quiescing. These two
/// suite runs are pinned configurations where the race really happens —
/// `backstop_rearms` counts it — and the run still completes with the
/// right answer at the exact same cycle under both drivers.
#[test]
fn backstop_rearm_race_is_counted_and_resolved_identically() {
    let suite = tamsim_programs::small_suite();
    let fixture = [
        (
            "DTW",
            Implementation::Am,
            PlacementPolicy::LocalityAware,
            1,
            8768,
        ),
        (
            "Wavefront",
            Implementation::AmEnabled,
            PlacementPolicy::RoundRobin,
            2,
            14688,
        ),
    ];
    for (name, impl_, policy, rearms, cycles) in fixture {
        let bench = suite.iter().find(|b| b.name == name).unwrap();
        let exp = MeshExperiment::new(impl_, 4).with_placement(policy);
        let [lock, fast] = both_drivers(exp, &bench.program)
            .map(|o| o.unwrap_or_else(|e| panic!("{name} must complete, panicked: {e}")));
        for run in [&lock, &fast] {
            assert_eq!(run.backstop_rearms, rearms, "{name}");
            assert_eq!(run.cycles, cycles, "{name}");
        }
        assert_eq!(lock.first_difference(&fast), None, "{name}");
    }
}
